"""Project metadata: every console script `pyproject.toml` declares exists,
every Python file parses as the oldest Python it declares, and every name
the benchmark's tracer wraps exists."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
SOURCES = [p for d in ("src", "tests", "tools", "perfbench")
           for p in sorted((ROOT / d).rglob("*.py"))]


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    meta = tomllib.loads(PYPROJECT.read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_sources_parse_as_python_3_10():
    # `requires-python` includes 3.10, so no file may use newer syntax (an
    # `except*`, a type parameter list); library APIs are not checked
    assert 'requires-python = ">=3.10"' in PYPROJECT.read_text()
    assert len(SOURCES) > 40
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


def test_no_module_level_import_goes_unused():
    # an `__init__.py` imports to re-export, and a `# noqa: F401` line keeps
    # a name that a wrapper looks up in the module (the tracer's targets)
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree, lines = ast.parse(text), text.splitlines()
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused


def test_benchmark_wrappers_find_every_name_they_wrap():
    # the tracer looks up each function it wraps by name, so a renamed or
    # deleted one fails here as in the CI smoke; run apart, since it patches
    # the bikat modules in place
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']\n"
            "import tracing\n"
            "t = tracing.Tracer(); t.install(); t.uninstall()\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
