"""The package's public names, the imports between its layers, and the
modules a study leaves unloaded."""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import voho

from conftest import run_python


def test_every_export_resolves_once():
    assert len(voho.__all__) == len(set(voho.__all__))
    missing = [name for name in voho.__all__ if not hasattr(voho, name)]
    assert missing == []


def test_the_package_root_names_the_study_api_alone():
    # every layer function has one import path, through its module
    assert sorted(voho.__all__) == sorted([
        "run_study", "config_from_json", "validate_config", "StudyConfig", "InputSpec", "SyntheticSpec",
        "StudyResult", "VohoError", "ConfigError", "DataError", "AllInstrumentsFailedError",
    ])
    assert importlib.util.find_spec("voho.variants") is None  # a variant is named in voho.stats alone
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert [name for name in voho.__all__ if f"`{name}`" not in readme] == []


def _modules() -> list[str]:
    """The name of every module of voho."""
    return sorted(path.stem for path in Path(voho.__file__).parent.glob("*.py"))


def _tree(module: str) -> ast.Module:
    """The parsed source of voho.<module>."""
    return ast.parse(Path(voho.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))


def _imports(module: str) -> set[str]:
    """The modules that the source of voho.<module> imports."""
    found = set()
    for node in ast.walk(_tree(module)):
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


def test_every_module_imports_only_declared_dependencies():
    # pyproject.toml declares numpy alone; an import of anything else that
    # happens to be installed where the tests run would still pass them
    allowed = sys.stdlib_module_names | {"numpy", "voho"}
    imported = [(module, name) for module in _modules() for name in sorted(_imports(module))]
    assert [(module, name) for module, name in imported if name.split(".")[0] not in allowed] == []


def _callers(node: ast.AST, name: str, enclosing: str = "<module>"):
    """(the name of the innermost function around it, the call) for each
    call of `name` under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = node.name
    if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        yield enclosing, node
    for child in ast.iter_child_nodes(node):
        yield from _callers(child, name, enclosing)


def test_entropy_rate_is_called_only_by_score_sequences():
    # the one scoring step: every estimate a study makes passes through it
    callers = [f"{module}.{caller}" for module in _modules() for caller, _ in _callers(_tree(module), "entropy_rate")]
    assert callers == ["pipeline.score_sequences"]


def _opens_to_write(call: ast.Call) -> bool:
    """Whether an open(...) call may create or change a file: its mode= is
    not a literal, or a literal mode among mode= and its first two arguments
    holds w, a, x or +."""
    given = [kw.value for kw in call.keywords if kw.arg == "mode"]
    if any(not isinstance(mode, ast.Constant) for mode in given):
        return True
    modes = [arg.value for arg in given + call.args[:2] if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    return any(re.fullmatch(r"[rwaxbt+]+", mode) and set(mode) & set("wax+") for mode in modes)


def test_every_file_write_sits_in_open_output():
    # open_output refuses a target that is not a regular file before it
    # writes, so no other code may create, rename or write a file
    writes = []
    for module in _modules():
        tree = _tree(module)
        writes += [(f"{module}.{caller}", "open") for caller, call in _callers(tree, "open") if _opens_to_write(call)]
        for name in ("replace", "rename"):
            writes += [
                (f"{module}.{caller}", f"os.{name}")
                for caller, call in _callers(tree, name)
                if getattr(getattr(call.func, "value", None), "id", None) == "os"
            ]
        for name in ("write_text", "write_bytes"):
            writes += [(f"{module}.{caller}", name) for caller, _ in _callers(tree, name)]
    assert writes == [("pipeline.open_output", "open"), ("pipeline.open_output", "os.replace")]


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
