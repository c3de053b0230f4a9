"""The package's public names, the imports between its layers, and the
modules a study leaves unloaded."""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import voho

from conftest import run_python


def test_every_export_resolves_once():
    assert len(voho.__all__) == len(set(voho.__all__))
    missing = [name for name in voho.__all__ if not hasattr(voho, name)]
    assert missing == []


def _imports(module: str) -> set[str]:
    """The modules that the source of voho.<module> imports."""
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
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [("quantise", set()), ("homogenise", {"voho.errors"}), ("ctw", {"voho.quantise"})],
)
def test_layers_below_the_pipeline_exchange_plain_arrays(module, allowed):
    # symbols, returns and prices cross these boundaries as numpy arrays,
    # so none of these modules needs another's types; and only the pipeline
    # writes files, so none of them needs a file or stream module either
    imports = _imports(module)
    assert {name for name in imports if name == "voho" or name.startswith("voho.")} == allowed
    assert imports & {"csv", "io", "os", "contextlib"} == set()


def test_the_cli_decomposes_nothing_itself():
    # voho decompose exports through the pipeline's own decomposition, so
    # the command line holds no second copy of it
    assert "voho.homogenise" not in _imports("cli")


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
    done = run_python("-c", script, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "kde_orig2.csv").exists()  # the KDE ran
    assert done.stdout == "\n"


@pytest.mark.parametrize("spec", [voho.StudyConfig, voho.InputSpec, voho.SyntheticSpec], ids=lambda c: c.__name__)
def test_readme_documents_every_config_key(spec):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"`{spec.__name__}` keys" in readme
    missing = [f.name for f in fields(spec) if f"| `{f.name}` |" not in readme]
    assert missing == []
