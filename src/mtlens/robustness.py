"""Robustness and consistency of outputs under input perturbation.

Translation quality TQ is corpus BLEU throughout. Robustness is the
ratio TQ(perturbed-input hypotheses, reference) / TQ(clean
hypotheses, reference), clamped into [0,1]; the raw ratio is kept for
diagnostics. Consistency is the harmonic mean of the two cross-BLEU
directions between clean and perturbed hypotheses, reported on the
0-100 BLEU scale. Every score comes from quality.corpus_bleus, which
counts each distinct corpus once and serves both directions of a pair
from one clipped-match count.
"""

from dataclasses import dataclass

from .corpus import AnalysisRun, Corpus, check_lengths
from .errors import DataError
from .quality import (  # noqa: F401 (benchmarks/spans.py wraps corpus_bleu here)
    BleuScore,
    check_corpora,
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
    return harmonic_mean(*(0.0 if s is None else s.score for s in (across, back)))


def consistency(hyp_clean: Corpus, hyp_perturbed: Corpus) -> float:
    check_lengths(hyp_clean, hyp_perturbed)
    return _consistency(*corpus_bleus([(hyp_clean, hyp_perturbed), (hyp_perturbed, hyp_clean)]))


def _report(checkpoint_id, kind, tq_clean, tq_perturbed, across, back):
    """A report from the corpus_bleus scores of clean and perturbed hypotheses
    against the reference, then clean against perturbed and back."""
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
    checkpoint_id: str,
    kind: str,
    hyp_clean: Corpus,
    hyp_perturbed: Corpus,
    ref: Corpus,
    tq_clean: BleuScore,
) -> RobustnessReport:
    """Robustness and consistency of one checkpoint under one perturbation.

    tq_clean is corpus_bleu(hyp_clean, ref), which the caller computes
    once per checkpoint.
    """
    check_corpora(hyp_perturbed, ref)
    check_lengths(hyp_clean, hyp_perturbed)
    pairs = [(hyp_perturbed, ref), (hyp_clean, hyp_perturbed), (hyp_perturbed, hyp_clean)]
    return _report(checkpoint_id, kind, tq_clean, *corpus_bleus(pairs))


def robustness_suite(run: AnalysisRun, perturbed_runs: dict) -> list[RobustnessReport]:
    """One report per checkpoint x perturbation kind.

    perturbed_runs maps kind -> AnalysisRun whose checkpoints carry
    the hypotheses decoded from the perturbed test set; checkpoint ids
    must pair with the clean run's. One corpus_bleus call scores every
    report. Errors keep the order of a walk over kinds, then
    checkpoints, that scores each report in turn.
    """
    ref = run.reference
    clean_by_id = {c.checkpoint_id: c for c in run.checkpoints}
    jobs = []  # (kind, checkpoint id, clean hypotheses, perturbed hypotheses)
    error = None
    try:
        for kind in sorted(perturbed_runs):
            pert_by_id = {c.checkpoint_id: c for c in perturbed_runs[kind].checkpoints}
            missing = sorted(set(clean_by_id) ^ set(pert_by_id))
            if missing:
                raise DataError(
                    f"perturbation {kind!r}: unpaired checkpoint ids {missing}"
                )
            for ckpt in run.checkpoints:
                cid = ckpt.checkpoint_id
                check_corpora(ckpt.hypotheses, ref)
                hyp_perturbed = pert_by_id[cid].hypotheses
                try:
                    check_corpora(hyp_perturbed, ref)
                except DataError as exc:
                    raise DataError(f"perturbation {kind!r}: checkpoint {cid}: {exc}") from None
                jobs.append((kind, cid, ckpt.hypotheses, hyp_perturbed))
    except DataError as exc:
        # the reports before the first bad input come first, and so
        # does any zero clean BLEU among them
        error = exc

    scores = corpus_bleus([
        pair
        for _, _, clean, pert in jobs
        for pair in ((clean, ref), (pert, ref), (clean, pert), (pert, clean))
    ])
    reports = [
        _report(cid, kind, *scores[4 * j : 4 * j + 4]) for j, (kind, cid, _, _) in enumerate(jobs)
    ]
    if error is not None:
        raise error
    return reports
