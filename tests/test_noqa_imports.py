"""Every import in `src/mtlens` is read, but those kept for the benchmark's trace spans.

A `# noqa: F401` import in `src/mtlens` binds a name the module itself
never reads, so that `benchmarks/spans.py` can wrap the call at that
name. Each such name must be a `WRAPPED` attribute of its module, so
no import outlives its entry and the list of imports to delete with
`WRAPPED` is exact. Any other name an import binds must be read in its
module (`__init__.py` binds names to export them), so an import that a
deleted helper leaves behind fails here.
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


def _unread_imports() -> list:
    """(module, name, noqa) of each name an import binds and its module never reads.

    noqa tells whether the import's line carries `noqa: F401`.
    """
    unread = []
    for path in sorted((ROOT / "src" / "mtlens").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                noqa = "noqa: F401" in lines[node.lineno - 1]
                unread += [
                    (f"mtlens.{path.stem}", name, noqa)
                    for name in (alias.asname or alias.name for alias in node.names)
                    if name not in read
                ]
    return unread


def test_every_unused_noqa_import_is_wrapped():
    unread = _unread_imports()
    assert any(noqa for _, _, noqa in unread)  # the spans wrap some name a module does not call itself
    wrapped = _wrapped()
    assert [
        (module, name) for module, name, noqa in unread
        if (noqa and (module, name) not in wrapped) or (not noqa and module != "mtlens.__init__")
    ] == []
