"""Seeded test-set perturbations: per-word misspelling, per-sentence case-changing.

Misspelling applies exactly one character edit (delete, insert or
substitute) to each selected word, so every changed word sits at
character edit distance 1 from its original. Insert/substitute
characters are drawn from the word's own alphabet, which keeps the
noise script-appropriate without a language model. Case-changing
rewrites a selected sentence entirely in upper, lower or per-token
title case.

Per-sentence RNG streams are derived as seed XOR sentence-index, so
a sentence's perturbation depends only on the seed and its position.
"""

from dataclasses import dataclass
from enum import Enum

from .corpus import Corpus, Sentence
from .errors import DataError
from .rng import SplitMix64


class PerturbationKind(Enum):
    MISSPELLING = "misspelling"
    CASE_CHANGING = "case_changing"


@dataclass(frozen=True)
class PerturbationSpec:
    kind: PerturbationKind
    probability: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise DataError(f"probability must be in [0,1], got {self.probability}")


def misspell_word(word: str, rng: SplitMix64) -> str:
    """Apply one uniformly chosen character edit to a non-empty word.

    Deletion is excluded for single-character words (would empty the
    token) and substitution is excluded for words with a one-letter
    alphabet (could only reproduce the word).
    """
    if not word:
        raise DataError("cannot misspell an empty word")
    alphabet = sorted(set(word))
    ops = []
    if len(word) >= 2:
        ops.append("delete")
    ops.append("insert")
    if len(alphabet) >= 2:
        ops.append("substitute")
    op = ops[rng.randrange(len(ops))]
    if op == "delete":
        pos = rng.randrange(len(word))
        return word[:pos] + word[pos + 1 :]
    if op == "insert":
        pos = rng.randrange(len(word) + 1)
        ch = alphabet[rng.randrange(len(alphabet))]
        return word[:pos] + ch + word[pos:]
    pos = rng.randrange(len(word))
    candidates = [c for c in alphabet if c != word[pos]]
    ch = candidates[rng.randrange(len(candidates))]
    return word[:pos] + ch + word[pos + 1 :]


def _title_token(tok: str) -> str:
    return tok[:1].upper() + tok[1:].lower()


_CASE_OPS = (
    lambda toks: [t.upper() for t in toks],
    lambda toks: [t.lower() for t in toks],
    lambda toks: [_title_token(t) for t in toks],
)


def perturb_corpus(corpus: Corpus, spec: PerturbationSpec) -> Corpus:
    """Perturb each word (misspelling) or sentence (case-changing)
    independently with spec.probability. Sentence count is preserved;
    misspelling also preserves per-sentence token counts."""
    out = []
    for index, sent in enumerate(corpus):
        rng = SplitMix64(spec.seed ^ index)
        if spec.kind is PerturbationKind.MISSPELLING:
            changed = False
            tokens = list(sent.tokens)
            for w, word in enumerate(tokens):
                if rng.random() < spec.probability:
                    tokens[w] = misspell_word(word, rng)
                    changed = True
            out.append(Sentence.from_tokens(tokens) if changed else sent)
        else:
            if sent.tokens and rng.random() < spec.probability:
                transform = _CASE_OPS[rng.randrange(3)]
                out.append(Sentence.from_tokens(transform(list(sent.tokens))))
            else:
                out.append(sent)
    return tuple(out)
