import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bleu_oracle
import robustness_oracle
from mtlens import quality
from mtlens.corpus import AnalysisRun, CheckpointRun, Sentence
from mtlens.errors import DataError
from mtlens.quality import corpus_bleu
from mtlens.report import collect
from mtlens.robustness import consistency, robustness_report, robustness_suite

from conftest import make_corpus, outcome


REF = make_corpus(
    [
        "the cat sat on the mat today",
        "dogs bark at night in the yard",
        "rain falls on the green hills again",
    ]
)
CLEAN = make_corpus(
    [
        "the cat sat on the mat now",
        "dogs bark at night in a yard",
        "rain falls on the green hills often",
    ]
)
WORSE = make_corpus(
    [
        "the cat sat on the rug today",
        "dogs howl at night in the yard",
        "rain drops on the green hills again",
    ]
)


def test_identical_corpora_unit_robustness():
    rep = robustness_report("c1", "k", CLEAN, CLEAN, REF)
    assert rep.robustness == pytest.approx(1.0)


def test_ratio_matches_component_bleu():
    expected = corpus_bleu(WORSE, REF).score / corpus_bleu(CLEAN, REF).score
    rep = robustness_report("c1", "k", CLEAN, WORSE, REF)
    assert rep.robustness == pytest.approx(min(1.0, expected))


def test_robustness_clamped_when_perturbed_scores_higher():
    # "perturbed" output beats the clean one: raw ratio > 1, clamped to 1
    rep = robustness_report("c1", "misspelling", WORSE, REF, REF)
    assert rep.raw_ratio > 1.0
    assert rep.robustness == 1.0
    assert rep.clamped is True


def test_robustness_zero_clean_bleu_rejected():
    disjoint = make_corpus(["x y z", "q w e", "r t y"])
    with pytest.raises(DataError) as err:
        robustness_report("c1", "k", disjoint, CLEAN, REF)
    assert str(err.value) == "checkpoint c1: robustness undefined, clean BLEU is zero"


def test_report_scores_its_own_clean_corpus():
    rep = robustness_report("c1", "k", CLEAN, WORSE, REF)
    assert rep.tq_clean == corpus_bleu(CLEAN, REF)
    # a clean corpus the reference refuses raises corpus_bleu's message,
    # before the perturbed corpus's
    for perturbed in (CLEAN, CLEAN[:1]):
        with pytest.raises(DataError) as err:
            robustness_report("c1", "k", CLEAN[:2], perturbed, REF)
        assert str(err.value) == "corpus length mismatch: 2 hypotheses vs 3 references"


def test_each_pair_is_checked_once(monkeypatch):
    calls = []
    check = quality._check_corpora

    def counting(hyp, ref):
        calls.append((hyp, ref))
        return check(hyp, ref)

    monkeypatch.setattr(quality, "_check_corpora", counting)
    # K = 2 kinds, C = 3 checkpoints: four pairs per report
    run = _run({"c1": CLEAN, "c2": WORSE, "c3": REF})
    kinds = {kind: _run({"c1": WORSE, "c2": REF, "c3": CLEAN}) for kind in "ab"}
    assert len(robustness_suite(run, kinds)) == 6
    assert len(calls) == 4 * 2 * 3
    calls.clear()
    corpus_bleu(CLEAN, REF)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(DataError):
        corpus_bleu(CLEAN[:2], REF)
    assert len(calls) == 1
    calls.clear()
    collect(run, ["bleu"])
    assert calls == [(c.hypotheses, REF) for c in run.checkpoints]


def test_consistency_identical():
    assert consistency(CLEAN, CLEAN) == pytest.approx(100.0)


def test_consistency_symmetric_exact():
    a = consistency(CLEAN, WORSE)
    b = consistency(WORSE, CLEAN)
    assert a == b  # exact float equality


def test_consistency_disjoint_vocab():
    a = make_corpus(["aa bb cc"])
    b = make_corpus(["dd ee ff"])
    assert consistency(a, b) == 0.0


def test_harmonic_mean_formula():
    # consistency is 2ab/(a+b) of the two cross-BLEU directions
    a = corpus_bleu(CLEAN, WORSE).score
    b = corpus_bleu(WORSE, CLEAN).score
    expected = 2 * a * b / (a + b)
    assert consistency(CLEAN, WORSE) == pytest.approx(expected, abs=1e-9)


def _run(ckpts, ref=REF):
    src = make_corpus(["s"] * len(ref))
    return AnalysisRun(
        source=src,
        reference=ref,
        checkpoints=tuple(CheckpointRun(cid, corp) for cid, corp in sorted(ckpts.items())),
    )


def test_suite_clean_equals_perturbed():
    run = _run({"c1": CLEAN, "c2": REF})
    reports = robustness_suite(run, {"misspelling": run})
    assert len(reports) == 2
    for rep in reports:
        assert rep.robustness == pytest.approx(1.0)
        assert rep.consistency == pytest.approx(100.0)


def test_suite_composes_component_oracles():
    clean_run = _run({"c1": CLEAN})
    pert_run = _run({"c1": WORSE})
    reports = robustness_suite(clean_run, {"misspelling": pert_run})
    rep = reports[0]
    assert rep.tq_clean.score == pytest.approx(corpus_bleu(CLEAN, REF).score)
    assert rep.tq_perturbed.score == pytest.approx(corpus_bleu(WORSE, REF).score)
    assert rep.robustness == pytest.approx(
        min(1.0, rep.tq_perturbed.score / rep.tq_clean.score)
    )
    assert rep.consistency == pytest.approx(consistency(CLEAN, WORSE))


def test_suite_mismatched_checkpoints():
    clean_run = _run({"c1": CLEAN})
    pert_run = _run({"c2": WORSE})
    with pytest.raises(DataError, match="unpaired"):
        robustness_suite(clean_run, {"misspelling": pert_run})


def test_suite_one_word_deleted_matches_components():
    # perturbed output = clean output with one word dropped per sentence
    dropped = make_corpus([" ".join(s.tokens[:2] + s.tokens[3:]) for s in CLEAN])
    clean_run = _run({"c1": CLEAN})
    pert_run = _run({"c1": dropped})
    rep = robustness_suite(clean_run, {"deletion": pert_run})[0]
    tq_clean = corpus_bleu(CLEAN, REF).score
    tq_pert = corpus_bleu(dropped, REF).score
    assert rep.robustness == pytest.approx(min(1.0, tq_pert / tq_clean), abs=1e-9)
    a = corpus_bleu(CLEAN, dropped).score
    b = corpus_bleu(dropped, CLEAN).score
    assert rep.consistency == pytest.approx(2 * a * b / (a + b), abs=1e-9)


def test_suite_computes_clean_bleu_once_per_checkpoint(monkeypatch):
    interned = []
    intern = quality._intern

    def counting_intern(tokens, lowercase):
        interned.append(len(tokens))
        return intern(tokens, lowercase)

    monkeypatch.setattr(quality, "_intern", counting_intern)
    other = make_corpus([s.raw for s in WORSE])
    other_perturbed = make_corpus([s.raw for s in REF])
    run = _run({"c1": CLEAN, "c2": other})
    kinds = {kind: _run({"c1": WORSE, "c2": other_perturbed}) for kind in ("a", "b", "c")}
    reports = robustness_suite(run, kinds)
    assert len(reports) == 6
    # each distinct corpus read is counted once, however many reports use it:
    # REF, CLEAN and WORSE (other and other_perturbed repeat WORSE and REF)
    read = {REF, CLEAN, other, WORSE, other_perturbed}
    assert len(read) == 3
    assert sum(interned) == sum(len(s) for corpus in read for s in corpus)
    monkeypatch.undo()
    want = [
        robustness_report(cid, kind, ckpt, pert.checkpoints[i].hypotheses, REF)
        for kind, pert in sorted(kinds.items())
        for i, (cid, ckpt) in enumerate((("c1", CLEAN), ("c2", other)))
    ]
    assert reports == want


def test_suite_names_the_run_of_a_short_perturbed_corpus():
    clean_run = _run({"c1": CLEAN})
    short = _run({"c1": CLEAN[:2]}, ref=REF[:2])
    with pytest.raises(DataError) as err:
        robustness_suite(clean_run, {"x": clean_run, "y": short})
    assert str(err.value) == (
        "perturbation 'y': checkpoint c1: corpus length mismatch: 2 hypotheses vs 3 references"
    )


def test_suite_raises_zero_clean_bleu_before_a_later_bad_run():
    # scored in turn, kind x's zero clean BLEU at c1 comes before kind y's short corpus
    disjoint = make_corpus(["x y z", "q w e", "r t y"])
    clean_run = _run({"c1": disjoint})
    short = _run({"c1": CLEAN[:2]}, ref=REF[:2])
    with pytest.raises(DataError, match="clean BLEU is zero"):
        robustness_suite(clean_run, {"x": clean_run, "y": short})


# -- the one-count suite against the one-call-per-score oracle ------------------


@st.composite
def suites(draw):
    """A clean run and 1-3 perturbed runs over a pool of 1-5 small corpora.

    Pool corpora repeat across checkpoints and kinds, equal in value or
    the same object, and keep or replace each reference sentence. The
    reference may have no tokens, a pool corpus may be one sentence
    short, and checkpoint ids may fail to pair, so each error the suite
    raises comes up, alone or behind another.
    """
    n = draw(st.integers(1, 4))
    lines = st.sampled_from(("a b a c", "b c", "a", "c a b c a", ""))
    ref = tuple(Sentence.from_line(line) for line in draw(st.lists(lines, min_size=n, max_size=n)))
    words = st.sampled_from(draw(st.sampled_from(("ab", "abc", "xy"))))
    sentence = st.lists(words, max_size=6).map(Sentence.from_tokens)
    kept = st.one_of(st.just(None), sentence)  # None keeps the reference sentence
    pool = []
    for size in draw(st.lists(st.sampled_from((n,) * 5 + (n - 1,)), min_size=1, max_size=5)):
        picks = draw(st.lists(kept, min_size=size, max_size=size))
        pool.append(tuple(Sentence.from_line(r.raw) if p is None else p for p, r in zip(picks, ref)))
    ids = draw(st.lists(st.sampled_from(("c1", "c2", "c3")), min_size=1, max_size=3, unique=True))

    def run(ckpt_ids):
        return _run({cid: draw(st.sampled_from(pool)) for cid in ckpt_ids}, ref=ref)

    unpaired = st.lists(st.sampled_from(("c1", "c2")), min_size=1, max_size=2, unique=True)
    kinds = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    perturbed = {
        kind: run(draw(unpaired) if draw(st.integers(0, 5)) == 0 else ids) for kind in kinds
    }
    return run(ids), perturbed


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=suites())
def test_suite_matches_oracle(case):
    clean, perturbed = case
    assert outcome(robustness_suite, clean, perturbed) == outcome(
        robustness_oracle.robustness_suite, clean, perturbed
    )
    ref = clean.reference
    for ckpt in clean.checkpoints:
        for pert in perturbed.values():
            for other in pert.checkpoints:
                a, b = ckpt.hypotheses, other.hypotheses
                assert outcome(consistency, a, b) == outcome(robustness_oracle.consistency, a, b)
                tq_clean = outcome(bleu_oracle.corpus_bleu, a, ref)
                if isinstance(tq_clean, str):
                    continue
                args = (ckpt.checkpoint_id, "k", a, b, ref)
                assert outcome(robustness_report, *args) == outcome(
                    robustness_oracle.robustness_report, *args, tq_clean
                )
