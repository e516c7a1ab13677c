"""Robustness and consistency of outputs under input perturbation.

Translation quality TQ is corpus BLEU throughout. Robustness is the
ratio TQ(perturbed-input hypotheses, reference) / TQ(clean
hypotheses, reference), clamped into [0,1]; the raw ratio is kept for
diagnostics. Consistency is the harmonic mean of the two cross-BLEU
directions between clean and perturbed hypotheses, reported on the
0-100 BLEU scale.
"""

from dataclasses import dataclass

from .corpus import AnalysisRun, Corpus
from .errors import DataError
from .quality import BleuScore, corpus_bleu


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


def _safe_bleu(hyp: Corpus, ref: Corpus) -> float:
    """BLEU that treats an untokenized reference side as score 0."""
    try:
        return corpus_bleu(hyp, ref).score
    except DataError:
        return 0.0


def harmonic_mean(a: float, b: float) -> float:
    if a + b == 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def consistency(hyp_clean: Corpus, hyp_perturbed: Corpus) -> float:
    if len(hyp_clean) != len(hyp_perturbed):
        raise DataError(
            f"corpus length mismatch: {len(hyp_clean)} vs {len(hyp_perturbed)}"
        )
    return harmonic_mean(
        _safe_bleu(hyp_clean, hyp_perturbed), _safe_bleu(hyp_perturbed, hyp_clean)
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
    tq_perturbed = corpus_bleu(hyp_perturbed, ref)
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
        consistency=consistency(hyp_clean, hyp_perturbed),
    )


def robustness_suite(run: AnalysisRun, perturbed_runs: dict) -> list[RobustnessReport]:
    """One report per checkpoint x perturbation kind.

    perturbed_runs maps kind -> AnalysisRun whose checkpoints carry
    the hypotheses decoded from the perturbed test set; checkpoint ids
    must pair with the clean run's.
    """
    clean_by_id = {c.checkpoint_id: c for c in run.checkpoints}
    clean_bleu = {}  # checkpoint id -> clean BLEU, on first use so errors keep their order
    reports = []
    for kind in sorted(perturbed_runs):
        pert_run = perturbed_runs[kind]
        pert_by_id = {c.checkpoint_id: c for c in pert_run.checkpoints}
        missing = sorted(set(clean_by_id) ^ set(pert_by_id))
        if missing:
            raise DataError(
                f"perturbation {kind!r}: unpaired checkpoint ids {missing}"
            )
        for ckpt in run.checkpoints:
            cid = ckpt.checkpoint_id
            if cid not in clean_bleu:
                clean_bleu[cid] = corpus_bleu(ckpt.hypotheses, run.reference)
            reports.append(
                robustness_report(
                    cid,
                    kind,
                    ckpt.hypotheses,
                    pert_by_id[cid].hypotheses,
                    run.reference,
                    clean_bleu[cid],
                )
            )
    return reports
