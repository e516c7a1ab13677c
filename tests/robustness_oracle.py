"""Reference robustness suite, one corpus_bleu call per score.

This is the `mtlens.robustness` suite shipped before BLEU moved to one
count over every corpus: it scores each clean checkpoint against the
reference on first use, and then, per perturbation kind and checkpoint,
the perturbed output against the reference and both consistency
directions, each with `bleu_oracle.corpus_bleu`. Errors come in the
order of that loop. The one change from the shipped code is that a
perturbed corpus whose length differs from the reference's names its
kind and checkpoint.
"""

from mtlens.errors import DataError
from mtlens.robustness import RobustnessReport, harmonic_mean

from bleu_oracle import corpus_bleu


def _safe_bleu(hyp, ref) -> float:
    try:
        return corpus_bleu(hyp, ref).score
    except DataError:
        return 0.0


def consistency(hyp_clean, hyp_perturbed) -> float:
    if len(hyp_clean) != len(hyp_perturbed):
        raise DataError(
            f"corpus length mismatch: {len(hyp_clean)} vs {len(hyp_perturbed)}"
        )
    return harmonic_mean(
        _safe_bleu(hyp_clean, hyp_perturbed), _safe_bleu(hyp_perturbed, hyp_clean)
    )


def robustness_report(checkpoint_id, kind, hyp_clean, hyp_perturbed, ref, tq_clean):
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


def robustness_suite(run, perturbed_runs):
    clean_by_id = {c.checkpoint_id: c for c in run.checkpoints}
    clean_bleu = {}
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
            hyp_perturbed = pert_by_id[cid].hypotheses
            if len(hyp_perturbed) != len(run.reference):
                raise DataError(
                    f"perturbation {kind!r}: checkpoint {cid}: corpus length mismatch: "
                    f"{len(hyp_perturbed)} hypotheses vs {len(run.reference)} references"
                )
            reports.append(
                robustness_report(
                    cid, kind, ckpt.hypotheses, hyp_perturbed, run.reference, clean_bleu[cid]
                )
            )
    return reports
