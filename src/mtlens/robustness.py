"""Robustness and consistency of outputs under input perturbation.

Translation quality TQ is corpus BLEU throughout. Robustness is the
ratio TQ(perturbed-input hypotheses, reference) / TQ(clean
hypotheses, reference), clamped into [0,1]; the raw ratio is kept for
diagnostics. Consistency is the harmonic mean of the two cross-BLEU
directions between clean and perturbed hypotheses, reported on the
0-100 BLEU scale, a direction that corpus_bleus refuses counting 0.
Every score comes from quality.corpus_bleus, which counts each
distinct corpus once, serves both directions of a pair from one
clipped-match count and returns the DataError of a refused pair.
"""

from dataclasses import dataclass
from itertools import islice

from .corpus import AnalysisRun, Corpus, check_lengths
from .errors import DataError
from .quality import (  # noqa: F401 (benchmarks/spans.py wraps corpus_bleu here)
    BleuScore,
    corpus_bleu,
    corpus_bleus,
)


@dataclass(frozen=True)
class RobustnessReport:
    checkpoint_id: str
    kind: str
    tq_clean: BleuScore
    tq_perturbed: BleuScore
    robustness: float  # clamped to [0,1]
    raw_ratio: float
    clamped: bool
    consistency: float  # 0..100


def harmonic_mean(a: float, b: float) -> float:
    if a + b == 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def _consistency(across, back) -> float:
    """Harmonic mean of the two cross-BLEU scores; a refused direction scores 0."""
    return harmonic_mean(*(0.0 if isinstance(s, DataError) else s.score for s in (across, back)))


def consistency(hyp_clean: Corpus, hyp_perturbed: Corpus) -> float:
    check_lengths(hyp_clean, hyp_perturbed)
    return _consistency(*corpus_bleus([(hyp_clean, hyp_perturbed), (hyp_perturbed, hyp_clean)]))


def _pairs(clean, pert, ref):
    """The four pairs of a report: clean and perturbed against ref, then each against the other."""
    return [(clean, ref), (pert, ref), (clean, pert), (pert, clean)]


def _report(checkpoint_id, kind, tq_clean, tq_perturbed, across, back):
    """A report from the corpus_bleus scores of the four _pairs; raises
    the clean pair's error, then the perturbed pair's, then a zero
    clean BLEU."""
    for refused in (tq_clean, tq_perturbed):
        if isinstance(refused, DataError):
            raise refused
    if tq_clean.score == 0.0:
        raise DataError(
            f"checkpoint {checkpoint_id}: robustness undefined, clean BLEU is zero"
        )
    raw = tq_perturbed.score / tq_clean.score
    return RobustnessReport(
        checkpoint_id=checkpoint_id,
        kind=kind,
        tq_clean=tq_clean,
        tq_perturbed=tq_perturbed,
        robustness=min(1.0, raw),
        raw_ratio=raw,
        clamped=raw > 1.0,
        consistency=_consistency(across, back),
    )


def robustness_report(
    checkpoint_id: str, kind: str, hyp_clean: Corpus, hyp_perturbed: Corpus, ref: Corpus
) -> RobustnessReport:
    """Robustness and consistency of one checkpoint under one perturbation.

    One corpus_bleus call scores clean and perturbed hypotheses against
    the reference and against each other. A clean or perturbed corpus
    that corpus_bleus refuses raises its error, clean first; so does a
    zero clean BLEU.
    """
    return _report(checkpoint_id, kind, *corpus_bleus(_pairs(hyp_clean, hyp_perturbed, ref)))


def robustness_suite(run: AnalysisRun, perturbed_runs: dict) -> list[RobustnessReport]:
    """One report per checkpoint x perturbation kind.

    perturbed_runs maps kind -> AnalysisRun whose checkpoints carry
    the hypotheses decoded from the perturbed test set; checkpoint ids
    must pair with the clean run's. One corpus_bleus call scores every
    kind whose ids pair. A walk over kinds, then checkpoints, raises
    the first error: unpaired ids, then the clean error, then the
    perturbed error naming its kind and checkpoint, then a zero clean
    BLEU.
    """
    ref = run.reference
    clean_ids = {c.checkpoint_id for c in run.checkpoints}
    perturbed = {  # kind -> checkpoint id -> perturbed hypotheses
        kind: {c.checkpoint_id: c.hypotheses for c in perturbed_runs[kind].checkpoints}
        for kind in sorted(perturbed_runs)
    }
    scores = iter(corpus_bleus([
        pair
        for by_id in perturbed.values()
        if by_id.keys() == clean_ids
        for ckpt in run.checkpoints
        for pair in _pairs(ckpt.hypotheses, by_id[ckpt.checkpoint_id], ref)
    ]))
    reports = []
    for kind, by_id in perturbed.items():
        missing = sorted(clean_ids ^ by_id.keys())
        if missing:
            raise DataError(f"perturbation {kind!r}: unpaired checkpoint ids {missing}")
        for ckpt in run.checkpoints:
            cid = ckpt.checkpoint_id
            tq_clean, tq_perturbed, across, back = islice(scores, 4)
            if isinstance(tq_perturbed, DataError):
                tq_perturbed = DataError(f"perturbation {kind!r}: checkpoint {cid}: {tq_perturbed}")
            reports.append(_report(cid, kind, tq_clean, tq_perturbed, across, back))
    return reports
