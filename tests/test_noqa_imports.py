"""Imports kept unused for the benchmark's trace spans are ones the spans wrap.

A `# noqa: F401` import in `src/mtlens` binds a name the module itself
never reads, so that `benchmarks/spans.py` can wrap the call at that
name. Each such name must be a `WRAPPED` attribute of its module, so
no import outlives its entry and the list of imports to delete with
`WRAPPED` is exact.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "benchmarks" / "spans.py"


def _wrapped() -> set:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(module, attr) for module, attr, _, _ in spans.WRAPPED}


def _unused_noqa_imports() -> list:
    """(module, name) of each name a noqa: F401 import binds and its module never reads."""
    unused = []
    for path in sorted((ROOT / "src" / "mtlens").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "noqa: F401" in lines[node.lineno - 1]:
                unused += [
                    (f"mtlens.{path.stem}", name)
                    for name in (alias.asname or alias.name for alias in node.names)
                    if name not in read
                ]
    return unused


def test_every_unused_noqa_import_is_wrapped():
    unused = _unused_noqa_imports()
    assert unused  # the spans wrap some name a module does not call itself
    assert [entry for entry in unused if entry not in _wrapped()] == []
