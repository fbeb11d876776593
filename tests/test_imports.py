"""What a fresh process imports, and the package's lazily resolved exports.

Each import check runs in a new interpreter, because this one has loaded
every module already."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import qtwick

PACKAGE = Path(qtwick.__file__).resolve().parent
# runs `python -m qtwick ARGS` and reports, on its last stderr line, whether
# numpy was loaded by the time the process exits
COMMAND_PROBE = (
    "import atexit, runpy, sys; "
    "atexit.register(lambda: print('numpy' in sys.modules, file=sys.stderr)); "
    "runpy.run_module('qtwick', run_name='__main__')"
)


def _numpy_loaded(*args: str, code: int = 0) -> bool:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    return proc.stderr.splitlines()[-1] == "True"


def _numpy_after_import(statement: str) -> bool:
    probe = f"{statement}; import sys; print('numpy' in sys.modules, file=sys.stderr)"
    return _numpy_loaded("-c", probe)


@pytest.mark.parametrize("statement", ["import qtwick", "import qtwick.cli",
                                       "from qtwick import cli, wick_mixed"])
def test_import_leaves_numpy_out(statement):
    assert not _numpy_after_import(statement)


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["wick", "--eps", "11**"], 0),
    (["wick", "--eps", "11**", "--q", "0.5", "--t", "1.25", "--format", "json"], 0),
    (["pairings", "--n", "3"], 0),
    (["wick", "--eps", "1x"], 2),
    (["wick", "--eps", "11**", "--q", "nan", "--t", "1"], 2),
    ([], 2),
    (["fock", "--d", "2", "--m", "4", "--q", "0.5", "--t", "1.25", "--ops", "s1,s1"], 0),
    (["fock", "--d", "2", "--m", "4", "--q", "0.5", "--t", "1.25", "--residual"], 0),
])
def test_numpy_free_commands_leave_numpy_out(argv, code):
    assert not _numpy_loaded("-c", COMMAND_PROBE, *argv, code=code)


def test_a_numpy_command_loads_numpy():
    argv = ["clt", "--mode", "moment", "--eps", "11**", "--q", "0.5", "--t", "1.25",
            "--ns", "4,8", "--seed", "1"]
    assert _numpy_loaded("-c", COMMAND_PROBE, *argv)
    assert _numpy_after_import("from qtwick import sampled_table")


# ------------------------------------------------------------ export map

def test_export_map_is_all():
    assert set(qtwick._EXPORTS) == set(qtwick.__all__) - {"__version__"}
    assert len(qtwick.__all__) == len(set(qtwick.__all__))


def test_every_export_is_its_defining_modules_object():
    for name, module in qtwick._EXPORTS.items():
        defining = importlib.import_module(f"qtwick.{module}")
        assert getattr(qtwick, name) is getattr(defining, name), name


def test_dir_lists_every_export():
    assert set(qtwick.__all__) <= set(dir(qtwick))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from qtwick import *", namespace)
    assert set(qtwick.__all__) <= set(namespace)
    for name in qtwick.__all__:
        assert namespace[name] is getattr(qtwick, name)


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        qtwick.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from qtwick import no_such_name", {})


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # the standard library from 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == qtwick.__version__


# ------------------------------------------------------------ pair order

def _names(tree: ast.AST) -> set[str]:
    """Every name a module binds, reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _modules_naming(names: set[str]) -> set[str]:
    """The package's modules that name any of names."""
    return {path.stem for path in sorted(PACKAGE.glob("*.py"))
            if _names(ast.parse(path.read_text())) & names}


def test_only_coeffs_knows_the_pair_order():
    # engines read a table by pair, by prefix or as a matrix; the rank of a
    # pair and the packed length of n sites stay inside coeffs
    assert _modules_naming({"_pair_rank", "_pair_count"}) == {"coeffs"}


def test_only_coeffs_knows_how_a_table_is_drawn():
    # an engine asks a table whether it is two-point and never forks on
    # whether it was sampled; the sampled table and its kernel stay inside coeffs
    drawing = {"_SampledTable", "_draw", "_derive_seeds", "_splitmix64", "_SAMPLE_CHUNK"}
    assert _modules_naming(drawing) == {"coeffs"}


def _raised_names(tree: ast.AST) -> set[str]:
    """The names of the exception classes a module raises by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_no_module_raises_a_bare_value_error():
    # every refusal of caller input is a ValidationError (or another
    # subclass of ValueError from qtwick.errors), so callers can tell a
    # refused input from an error of the program
    raising = {path.stem for path in sorted(PACKAGE.glob("*.py"))
               if "ValueError" in _raised_names(ast.parse(path.read_text()))}
    assert raising == set()
