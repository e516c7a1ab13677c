import pytest

from mtlens.corpus import AnalysisRun, CheckpointRun
from mtlens.errors import DataError
from mtlens.quality import corpus_bleu
from mtlens import robustness
from mtlens.robustness import consistency, robustness_report, robustness_suite

from conftest import make_corpus


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
    rep = robustness_report("c1", "k", CLEAN, CLEAN, REF, corpus_bleu(CLEAN, REF))
    assert rep.robustness == pytest.approx(1.0)


def test_ratio_matches_component_bleu():
    expected = corpus_bleu(WORSE, REF).score / corpus_bleu(CLEAN, REF).score
    rep = robustness_report("c1", "k", CLEAN, WORSE, REF, corpus_bleu(CLEAN, REF))
    assert rep.robustness == pytest.approx(min(1.0, expected))


def test_robustness_clamped_when_perturbed_scores_higher():
    # "perturbed" output beats the clean one: raw ratio > 1, clamped to 1
    rep = robustness_report("c1", "misspelling", WORSE, REF, REF, corpus_bleu(WORSE, REF))
    assert rep.raw_ratio > 1.0
    assert rep.robustness == 1.0
    assert rep.clamped is True


def test_robustness_zero_clean_bleu_rejected():
    disjoint = make_corpus(["x y z", "q w e", "r t y"])
    with pytest.raises(DataError):
        robustness_report("c1", "k", disjoint, CLEAN, REF, corpus_bleu(disjoint, REF))


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
    calls = []

    def counting_bleu(hyp, ref):
        calls.append((hyp, ref))
        return corpus_bleu(hyp, ref)

    monkeypatch.setattr(robustness, "corpus_bleu", counting_bleu)
    other = make_corpus([s.raw for s in WORSE])
    other_perturbed = make_corpus([s.raw for s in REF])
    run = _run({"c1": CLEAN, "c2": other})
    kinds = {kind: _run({"c1": WORSE, "c2": other_perturbed}) for kind in ("a", "b", "c")}
    reports = robustness_suite(run, kinds)
    assert len(reports) == 6
    clean_calls = [h for h, r in calls if (h is CLEAN or h is other) and r is REF]
    assert len(clean_calls) == 2 and clean_calls[0] is CLEAN and clean_calls[1] is other
    # besides, one perturbed BLEU and two consistency directions per report
    assert len(calls) == 2 + 3 * len(reports)
    monkeypatch.undo()
    want = [
        robustness_report(
            cid, kind, ckpt, pert.checkpoints[i].hypotheses, REF, corpus_bleu(ckpt, REF)
        )
        for kind, pert in sorted(kinds.items())
        for i, (cid, ckpt) in enumerate((("c1", CLEAN), ("c2", other)))
    ]
    assert reports == want
