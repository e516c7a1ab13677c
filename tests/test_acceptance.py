"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`. The per-criterion
PASS/FAIL lines are collected in RESULTS and printed in the terminal
summary (see conftest.pytest_terminal_summary); `-s` also shows them
live.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from mtlens.align import Alignment, train_model1, viterbi_align
from mtlens.cli import main as cli_main
from mtlens.corpus import Corpus, Sentence
from mtlens.lrp import contributions, entropy
from mtlens.perturb import PerturbationKind, PerturbationSpec, perturb_corpus
from mtlens.quality import corpus_bleu
from mtlens.rng import SplitMix64
from mtlens.robustness import harmonic_mean, robustness_report
from mtlens.semsim import embedding_set, rmss
from mtlens.transformer import RESERVED, Vocab, init_model
from mtlens.wordorder import frs, ter

from conftest import DATA_DIR, make_corpus, make_sentence


RESULTS = []


def _report(num, name, ok):
    RESULTS.append((num, name, ok))
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_frs_exhaustive():
    def oracle(perm, m):
        chunks = 1
        for a, b in zip(perm, perm[1:]):
            if b != a + 1:
                chunks += 1
        if m <= 1:
            return 1.0
        return min(1.0, max(0.0, 1.0 - (chunks - 1) / (m - 1)))

    start = time.monotonic()
    ok = True
    for n in range(1, 8):
        sent = make_sentence(" ".join(f"t{i}" for i in range(n)))
        for perm in itertools.permutations(range(n)):
            aln = Alignment(frozenset(enumerate(perm)))
            got = frs(aln, sent, sent).frs
            if got != oracle(list(perm), n):
                ok = False
        identity = frs(Alignment(frozenset(enumerate(range(n)))), sent, sent).frs
        ok = ok and identity == 1.0
        if n >= 2:
            rev = frs(
                Alignment(frozenset(enumerate(reversed(range(n))))), sent, sent
            ).frs
            ok = ok and rev == 0.0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(1, "FRS exactness", ok)


# -- 2 ----------------------------------------------------------------------


def _dp_levenshtein(a, b):
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[len(a)][len(b)]


def test_criterion_2_ter_oracle():
    rng = SplitMix64(20240202)
    ok = True
    for _ in range(1000):
        a = [f"v{rng.randrange(5)}" for _ in range(rng.randrange(9))]
        b = [f"v{rng.randrange(5)}" for _ in range(1 + rng.randrange(8))]
        hyp = Sentence.from_tokens(a)
        ref = Sentence.from_tokens(b)
        plain = ter(hyp, ref, shifts=False)
        shifted = ter(hyp, ref, shifts=True)
        if plain.edits != _dp_levenshtein(a, b):
            ok = False
        if shifted.ter > plain.ter:
            ok = False
    fixture = ter(make_sentence("b a"), make_sentence("a b"), shifts=True)
    ok = ok and fixture.ter == 0.5 and fixture.edits == 1
    _report(2, "TER oracle equivalence", ok)


# -- 3 ----------------------------------------------------------------------


def _oracle_bleu(hyp_lines, ref_lines):
    matched = {n: 0 for n in range(1, 5)}
    total = {n: 0 for n in range(1, 5)}
    hyp_len = ref_len = 0
    for h_line, r_line in zip(hyp_lines, ref_lines):
        h, r = h_line.split(), r_line.split()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            hc, rc = {}, {}
            for i in range(len(h) - n + 1):
                g = tuple(h[i : i + n])
                hc[g] = hc.get(g, 0) + 1
            for i in range(len(r) - n + 1):
                g = tuple(r[i : i + n])
                rc[g] = rc.get(g, 0) + 1
            for g, cnt in hc.items():
                total[n] += cnt
                matched[n] += min(cnt, rc.get(g, 0))
    prec = []
    for n in range(1, 5):
        if total[n] == 0:
            continue
        if matched[n] == 0:
            return 0.0
        prec.append(matched[n] / total[n])
    if not prec or hyp_len == 0:
        return 0.0
    geo = 1.0
    for p in prec:
        geo *= p
    geo **= 1.0 / len(prec)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * geo


def test_criterion_3_bleu():
    rng = SplitMix64(30303)
    ok = True
    for _ in range(100):
        lines = [
            " ".join(f"w{rng.randrange(9)}" for _ in range(1 + rng.randrange(7)))
            for _ in range(1 + rng.randrange(5))
        ]
        c = make_corpus(lines)
        if abs(corpus_bleu(c, c).score - 100.0) > 1e-9:
            ok = False
    for _ in range(200):
        pairs = 1 + rng.randrange(4)
        hyp_lines = [
            " ".join(f"w{rng.randrange(5)}" for _ in range(1 + rng.randrange(6)))
            for _ in range(pairs)
        ]
        ref_lines = [
            " ".join(f"w{rng.randrange(5)}" for _ in range(1 + rng.randrange(6)))
            for _ in range(pairs)
        ]
        got = corpus_bleu(make_corpus(hyp_lines), make_corpus(ref_lines)).score
        if abs(got - _oracle_bleu(hyp_lines, ref_lines)) > 1e-9:
            ok = False
    _report(3, "BLEU", ok)


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_robustness_consistency_algebra():
    ref = make_corpus(
        [
            "the cat sat on the mat today",
            "dogs bark at night in the yard",
            "rain falls on the green hills again",
        ]
    )
    hyp = make_corpus(
        [
            "the cat sat on the mat now",
            "dogs bark at night in a yard",
            "rain falls on the green hills often",
        ]
    )
    worse = make_corpus(
        [
            "the cat sat on the rug today",
            "dogs howl at night in the yard",
            "rain drops on the green hills again",
        ]
    )
    ok = robustness_report("c", "k", hyp, hyp, ref).robustness == 1.0
    from mtlens.robustness import consistency

    ok = ok and consistency(hyp, worse) == consistency(worse, hyp)
    ok = ok and abs(harmonic_mean(30.0, 60.0) - 40.0) <= 1e-9
    # perturbed corpus scoring higher than clean: raw > 1, clamped to 1
    rep = robustness_report("c", "k", worse, ref, ref)
    ok = ok and rep.raw_ratio > 1.0 and rep.robustness == 1.0 and rep.clamped
    _report(4, "robustness/consistency algebra", ok)


# -- 5 ----------------------------------------------------------------------


def _char_distance(a, b):
    return _dp_levenshtein(list(a), list(b))


def test_criterion_5_perturbation_statistics():
    rng = SplitMix64(55055)
    lines = []
    for _ in range(1000):
        words = []
        for _ in range(10):
            n = 3 + rng.randrange(6)
            words.append("".join(chr(ord("a") + rng.randrange(26)) for _ in range(n)))
        lines.append(" ".join(words))
    corpus = make_corpus(lines)

    spec = PerturbationSpec(PerturbationKind.MISSPELLING, 0.1, seed=9091)
    out = perturb_corpus(corpus, spec)
    changed = 0
    distance_ok = True
    for before, after in zip(corpus, out):
        for wb, wa in zip(before.tokens, after.tokens):
            if wb != wa:
                changed += 1
                if _char_distance(wb, wa) != 1:
                    distance_ok = False
    frac = changed / 10000.0
    ok = distance_ok and 0.09 <= frac <= 0.11

    case_lines = [
        " ".join(
            "aB" + chr(ord("c") + rng.randrange(20)) for _ in range(4)
        )
        for _ in range(4000)
    ]
    case_corpus = make_corpus(case_lines)
    spec = PerturbationSpec(PerturbationKind.CASE_CHANGING, 0.5, seed=777)
    out = perturb_corpus(case_corpus, spec)
    case_frac = sum(1 for b, a in zip(case_corpus, out) if b.raw != a.raw) / 4000.0
    ok = ok and 0.47 <= case_frac <= 0.53
    _report(5, "perturbation statistics", ok)


# -- 6 ----------------------------------------------------------------------


def _oracle_rmss(x_rows, y_rows, k):
    def cos(a, b):
        num = sum(p * q for p, q in zip(a, b))
        na = math.sqrt(sum(p * p for p in a))
        nb = math.sqrt(sum(q * q for q in b))
        return num / (na * nb)

    n = len(x_rows)
    out = []
    for i in range(n):
        xs = sorted(range(n), key=lambda j: (-cos(x_rows[i], y_rows[j]), j))[:k]
        ys = sorted(range(n), key=lambda j: (-cos(y_rows[i], x_rows[j]), j))[:k]
        denom = sum(cos(x_rows[i], y_rows[j]) for j in xs) / (2 * k)
        denom += sum(cos(y_rows[i], x_rows[j]) for j in ys) / (2 * k)
        out.append(None if denom <= 0 else cos(x_rows[i], y_rows[i]) / denom)
    return out


def test_criterion_6_rmss():
    rng = SplitMix64(606060)
    ok = True
    for n in range(1, 9):
        for k in range(1, min(3, n) + 1):
            x_rows = [[rng.random() + 0.05 for _ in range(3)] for _ in range(n)]
            y_rows = [[rng.random() + 0.05 for _ in range(3)] for _ in range(n)]
            got = rmss(embedding_set(x_rows), embedding_set(y_rows), k)
            want = _oracle_rmss(x_rows, y_rows, k)
            for g, w in zip(got.per_sentence, want):
                if abs(g - w) > 1e-12:
                    ok = False
    # scale invariance: scaling one vector by c > 0 changes nothing
    x_rows = [[rng.random() + 0.1 for _ in range(4)] for _ in range(6)]
    y_rows = [[rng.random() + 0.1 for _ in range(4)] for _ in range(6)]
    base = rmss(embedding_set(x_rows), embedding_set(y_rows), 2)
    x_scaled = [r if i != 3 else [v * 1000.0 for v in r] for i, r in enumerate(x_rows)]
    scaled = rmss(embedding_set(x_scaled), embedding_set(y_rows), 2)
    for a, b in zip(base.per_sentence, scaled.per_sentence):
        if abs(a - b) > 1e-12:
            ok = False
    # self-pair identity at k=1
    self_set = embedding_set([[1.0, 2.0], [3.0, 1.0], [0.5, 0.5]])
    ident = rmss(self_set, self_set, 1)
    ok = ok and all(v == 1.0 for v in ident.per_sentence)
    _report(6, "RMSS", ok)


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_lrp_conservation():
    words = tuple(f"w{i}" for i in range(20))
    vocab = Vocab.from_tokens(RESERVED + words)
    rng = SplitMix64(70707)
    ok = True
    for trial in range(100):
        heads = 1 + rng.randrange(2)
        model = init_model(
            layers=1 + rng.randrange(2),
            heads=heads,
            dim=8 if heads == 1 else 16,
            ffn=16,
            vocab_size=len(vocab),
            seed=trial,
        )
        n_src = 1 + rng.randrange(5)
        src = Sentence.from_tokens(words[rng.randrange(20)] for _ in range(n_src))
        tgt = Sentence.from_tokens(words[rng.randrange(20)] for _ in range(1 + rng.randrange(5)))
        records = contributions(model, src, tgt, vocab)
        for rec in records:
            total = rec.r_source + rec.r_target
            if abs(total - 1.0) > 1e-6:
                ok = False
            if rec.step == 1:
                if rec.target_rel.size != 0 or abs(rec.r_source - 1.0) > 1e-6:
                    ok = False
            if rec.r_source > 0:
                h = entropy(rec.source_rel / rec.r_source)
                if not (-1e-12 <= h <= math.log(n_src) + 1e-12):
                    ok = False
            if rec.target_rel.size > 0 and rec.r_target > 0:
                h = entropy(rec.target_rel / rec.r_target)
                if not (-1e-12 <= h <= math.log(rec.target_rel.size) + 1e-12):
                    ok = False
    _report(7, "LRP conservation", ok)


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_ibm_model1():
    hyp = make_corpus(["the house", "the book"])
    other = make_corpus(["das haus", "das buch"])
    table = train_model1(hyp, other, iterations=20)
    hist = table.log_likelihood_history
    ok = len(hist) == 20
    for prev, cur in zip(hist, hist[1:]):
        if cur < prev - 1e-12:
            ok = False
    for h_sent, o_sent in zip(hyp, other):
        aln = viterbi_align(table, h_sent, o_sent)
        if (0, 0) not in aln:  # the <-> das leads both sentences
            ok = False
    _report(8, "IBM Model 1", ok)


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    metrics = (
        "bleu,frs-vs-ref,ter-vs-ref,frs-vs-src,ter-vs-src,"
        "rmss-vs-ref,rmss-vs-src,avg-src-contribution,src-entropy,tgt-entropy"
    )
    start = time.monotonic()
    outputs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"run_{tag}.csv"
        code = cli_main(
            [
                "report", str(DATA_DIR / "run3"),
                "--metrics", metrics,
                "--csv", str(csv_path),
                "--svg", str(tmp_path / f"run_{tag}.svg"),
                "--embeddings", str(DATA_DIR / "emb3"),
                "--model", str(DATA_DIR / "fixture.wts"),
                "--vocab", str(DATA_DIR / "vocab.txt"),
                "--iters", "10", "--k", "2",
            ]
        )
        capsys.readouterr()
        outputs.append((code, csv_path.read_bytes()))
    elapsed = time.monotonic() - start
    ok = all(code == 0 for code, _ in outputs)
    ok = ok and outputs[0][1] == outputs[1][1]
    ok = ok and len(outputs[0][1]) > 0
    ok = ok and elapsed < 60.0
    _report(9, "end-to-end determinism", ok)
