"""The package's public names, the imports between its layers, and the
modules a study leaves unloaded."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import voho


def test_every_export_resolves_once():
    assert len(voho.__all__) == len(set(voho.__all__))
    missing = [name for name in voho.__all__ if not hasattr(voho, name)]
    assert missing == []


def _voho_imports(module: str) -> set[str]:
    """The voho modules that the source of voho.<module> imports."""
    source = Path(voho.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # voho holds no subpackages, so a relative import is from voho
            base = ".".join(filter(None, ["voho" if node.level else "", node.module]))
            if node.module is None:  # from . import x
                found.update(f"{base}.{alias.name}" for alias in node.names)
            else:
                found.add(base)
    return {name for name in found if name == "voho" or name.startswith("voho.")}


@pytest.mark.parametrize(
    "module, allowed",
    [("quantise", set()), ("homogenise", {"voho.errors"}), ("ctw", {"voho.quantise"})],
)
def test_layers_below_the_pipeline_exchange_plain_arrays(module, allowed):
    # symbols, returns and prices cross these boundaries as numpy arrays,
    # so none of these modules needs another's types
    assert _voho_imports(module) == allowed


def test_a_study_loads_no_thread_pool_and_no_numpy_ma(tmp_path):
    script = """
import sys
import voho
config = voho.StudyConfig(
    synthetic=voho.SyntheticSpec(instruments=2, n=300), deltas=[0.5, 1.0],
    min_daily=100, min_skeleton_events=10, out_dir=sys.argv[1],
)
voho.run_study(config)
print(",".join(m for m in ("concurrent.futures", "numpy.ma") if m in sys.modules))
"""
    src = str(Path(voho.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "kde_orig2.csv").exists()  # the KDE ran
    assert done.stdout == "\n"
