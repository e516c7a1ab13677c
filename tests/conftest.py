import sys
from pathlib import Path

from mtlens.corpus import Sentence

DATA_DIR = Path(__file__).parent / "data"


def pytest_terminal_summary(terminalreporter):
    """Print one line per acceptance criterion after capture ends."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok in sorted(results):
        terminalreporter.write_line(
            f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
        )


def make_corpus(lines):
    return tuple(Sentence.from_line(l) for l in lines)


def make_sentence(text):
    return Sentence.from_line(text)


class ScriptedRng:
    """Stand-in random stream replaying a fixed script of draws."""

    def __init__(self, randrange_values=(), random_values=()):
        self._ints = list(randrange_values)
        self._floats = list(random_values)

    def randrange(self, n):
        v = self._ints.pop(0)
        assert 0 <= v < n, f"scripted value {v} out of range for randrange({n})"
        return v

    def random(self):
        return self._floats.pop(0)


sys.modules.setdefault("_mtlens_test_helpers", sys.modules[__name__])
