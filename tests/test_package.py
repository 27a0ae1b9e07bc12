"""Package structure: module exports, imports between modules, the test
modules' imports without numpy, and the names that bench/tracer.py wraps."""

import ast
import importlib
import io
import runpy
import tokenize
from pathlib import Path

from conftest import record_calls
from test_cli import _NO_NUMPY, _python

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "codebounds"


def _module(stem: str):
    return importlib.import_module("codebounds" if stem == "__init__" else f"codebounds.{stem}")


def _imports(path: Path) -> list[ast.Import | ast.ImportFrom]:
    """Every import statement of a file, those inside functions included."""
    return [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def _code_lines(path: Path) -> int:
    """Lines of a file that are neither blank, comment nor docstring."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENDMARKER}
    lines = {line for tok in tokenize.generate_tokens(io.StringIO(text).readline)
             if tok.type not in layout for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstrings)


def test_code_line_count_pinned():
    # the package's size in code lines, per module so that a failure names
    # the module that moved; a change that moves it updates the pin and
    # reports the counts before and after
    lines = {path.stem: _code_lines(path) for path in PACKAGE.glob("*.py")}
    assert lines == {"__init__": 2, "__main__": 3, "bounds": 177, "cli": 286, "exactmath": 65,
                     "golden": 67, "levenshtein": 102, "oracle": 111}
    assert sum(lines.values()) == 813


def test_exported_names_exist():
    missing = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
               for name in getattr(_module(path.stem), "__all__", ())
               if not hasattr(_module(path.stem), name)]
    assert not missing


def test_levenshtein_exports_only_the_bound():
    # the bound keeps no state between calls, so it has nothing else to export
    assert _module("levenshtein").__all__ == ["levenshtein_max_size"]


def test_names_imported_across_modules_are_exported():
    # `from .x import y` anywhere in the package names y in x.__all__
    unlisted = [f"{path.stem} imports {node.module}.{alias.name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for node in _imports(path)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names
                if alias.name not in getattr(_module(node.module), "__all__", ())]
    assert not unlisted


def _imported_modules(path: Path) -> set[str]:
    """Module names a file imports; `from x import y` counts as x and x.y,
    and `from .x import y` as codebounds.x and codebounds.x.y."""
    out = set()
    for node in _imports(path):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        else:
            module = f"codebounds.{node.module}" if node.level else node.module
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def test_reference_definitions_stay_outside_the_package():
    # the package never loads tests/reference.py, and the references and
    # the oracle load nothing of the code they are a second source for
    for path in PACKAGE.glob("*.py"):
        assert "reference" not in _imported_modules(path), path.name
    checked = {"codebounds.bounds", "codebounds.levenshtein"}
    for path in (ROOT / "tests" / "reference.py", PACKAGE / "oracle.py"):
        assert not _imported_modules(path) & checked, path.name


def test_test_modules_import_without_numpy():
    # numpy is a test extra for one reference, imported inside the function
    # that uses it: with every numpy import failing, a fresh interpreter
    # still imports each test module, so a new top-level numpy import fails
    # here, not first in CI's run without numpy
    stems = sorted(path.stem for path in (ROOT / "tests").glob("*.py"))
    program = _NO_NUMPY + (
        "import importlib\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "for stem in sys.argv[2:]:\n"
        "    importlib.import_module(stem)\n")
    proc = _python("-B", "-c", program, str(ROOT / "tests"), *stems)
    assert "test_oracle" in stems and proc.returncode == 0, proc.stderr.decode()


def test_tracer_wraps_existing_names():
    # read bench/tracer.py without importing it, so that no bytecode is written
    wraps = runpy.run_path(str(ROOT / "bench" / "tracer.py"))["WRAPS"]
    missing = [f"{module}.{attr}" for module, attr, *_ in wraps
               if not hasattr(_module(module), attr)]
    assert wraps and not missing


def test_tracer_records_one_levenshtein_span_per_table_cell(capsys, monkeypatch):
    # the bound is called, and timed, once per cell; so is every other bound
    # the tracer wraps on bounds, since the table of bounds looks each bound
    # function up on the module when it is called; bound A's search looks up
    # bound_a_check the same way, so the tracer sees each of its checks
    tracer_module = runpy.run_path(str(ROOT / "bench" / "tracer.py"))
    tracer = tracer_module["Tracer"]()
    modules = {name: _module(name) for name in ("cli", "bounds", "golden", "oracle")}
    tracer.install(modules)
    try:
        rc = modules["cli"].main(["table", "--q", "2", "--n-range", "4..12", "--d-range", "3..8",
                                  "--bounds", "all", "--format", "csv"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    cells = sum(1 for n in range(4, 13) for d in range(3, 9) if d <= n)
    assert rc == 0
    assert tracer.stats[tracer_module["LEV"]].calls == cells
    names = ["bound_a_max_k", "elias_max_size", "griesmer_max_k", "hamming_max_size",
             "plotkin_max_size", "singleton_max_k"]
    calls = {name: getattr(tracer.stats.get(f"bounds.{name}"), "calls", 0) for name in names}
    assert calls == dict.fromkeys(names, cells)
    bounds = modules["bounds"]
    checks = record_calls(monkeypatch, bounds, "bound_a_check")
    for n in range(4, 13):
        for d in range(3, min(n, 8) + 1):
            bounds.bound_a_max_k(n, d, 2)
    traced = getattr(tracer.stats.get("bounds.bound_a_check"), "calls", 0)
    assert traced == len(checks) >= cells
