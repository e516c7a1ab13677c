"""Robustness and consistency of outputs under input perturbation.

Translation quality TQ is corpus BLEU throughout. Robustness is the
ratio TQ(perturbed-input hypotheses, reference) / TQ(clean
hypotheses, reference), clamped into [0,1]; the raw ratio is kept for
diagnostics. Consistency is the harmonic mean of the two cross-BLEU
directions between clean and perturbed hypotheses, reported on the
0-100 BLEU scale. Clipped n-gram matches are symmetric in the two
sides, so one count serves both directions; only the hypothesis-side
totals differ.
"""

from dataclasses import dataclass

from .corpus import AnalysisRun, Corpus
from .errors import DataError
from .quality import (  # noqa: F401 (benchmarks/spans.py wraps corpus_bleu here)
    BleuScore,
    bleu_from_matches,
    check_corpora,
    clipped_matches,
    corpus_bleu,
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


def _safe_score(matched, hyp: Corpus, ref: Corpus) -> float:
    """BLEU from clipped matches that treats an untokenized reference side as score 0."""
    try:
        check_corpora(hyp, ref)
    except DataError:
        return 0.0
    return bleu_from_matches(matched, hyp, ref).score


def harmonic_mean(a: float, b: float) -> float:
    if a + b == 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def _consistency(matched, hyp_clean: Corpus, hyp_perturbed: Corpus) -> float:
    return harmonic_mean(
        _safe_score(matched, hyp_clean, hyp_perturbed),
        _safe_score(matched, hyp_perturbed, hyp_clean),
    )


def _check_lengths(hyp_clean: Corpus, hyp_perturbed: Corpus) -> None:
    if len(hyp_clean) != len(hyp_perturbed):
        raise DataError(
            f"corpus length mismatch: {len(hyp_clean)} vs {len(hyp_perturbed)}"
        )


def consistency(hyp_clean: Corpus, hyp_perturbed: Corpus) -> float:
    _check_lengths(hyp_clean, hyp_perturbed)
    (matched,) = clipped_matches((hyp_clean, hyp_perturbed), [(0, 1)])
    return _consistency(matched, hyp_clean, hyp_perturbed)


def _check_clean(checkpoint_id: str, tq_clean: BleuScore) -> None:
    if tq_clean.score == 0.0:
        raise DataError(
            f"checkpoint {checkpoint_id}: robustness undefined, clean BLEU is zero"
        )


def _report(checkpoint_id, kind, tq_clean, tq_perturbed, consistency_score):
    raw = tq_perturbed.score / tq_clean.score
    return RobustnessReport(
        checkpoint_id=checkpoint_id,
        kind=kind,
        tq_clean=tq_clean,
        tq_perturbed=tq_perturbed,
        robustness=min(1.0, raw),
        raw_ratio=raw,
        clamped=raw > 1.0,
        consistency=consistency_score,
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
    _check_clean(checkpoint_id, tq_clean)
    _check_lengths(hyp_clean, hyp_perturbed)
    to_ref, across = clipped_matches((hyp_perturbed, ref, hyp_clean), [(0, 1), (0, 2)])
    tq_perturbed = bleu_from_matches(to_ref, hyp_perturbed, ref)
    return _report(
        checkpoint_id, kind, tq_clean, tq_perturbed,
        _consistency(across, hyp_clean, hyp_perturbed),
    )


def robustness_suite(run: AnalysisRun, perturbed_runs: dict) -> list[RobustnessReport]:
    """One report per checkpoint x perturbation kind.

    perturbed_runs maps kind -> AnalysisRun whose checkpoints carry
    the hypotheses decoded from the perturbed test set; checkpoint ids
    must pair with the clean run's. Every corpus is counted once, in
    one clipped_matches call: each clean checkpoint against the
    reference, and each perturbed one against the reference and its
    clean checkpoint. Errors keep the order of a walk over kinds, then
    checkpoints, that scores each report in turn.
    """
    ref = run.reference
    index = {ref: 0}  # distinct corpora, in order of first use

    def at(corpus):
        return index.setdefault(corpus, len(index))

    clean_by_id = {c.checkpoint_id: c for c in run.checkpoints}
    clean_at = {}  # checkpoint id -> index of its clean hypotheses
    jobs = []  # (kind, checkpoint id, clean index, perturbed index)
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
                if cid not in clean_at:
                    check_corpora(ckpt.hypotheses, ref)
                    clean_at[cid] = at(ckpt.hypotheses)
                hyp_perturbed = pert_by_id[cid].hypotheses
                try:
                    check_corpora(hyp_perturbed, ref)
                except DataError as exc:
                    raise DataError(f"perturbation {kind!r}: checkpoint {cid}: {exc}") from None
                jobs.append((kind, cid, clean_at[cid], at(hyp_perturbed)))
    except DataError as exc:
        # the reports before the first bad input come first, and so
        # does any zero clean BLEU among them
        error = exc

    corpora = list(index)  # the reference is corpus 0, so (0, i) is corpus i against it
    pairs = list(dict.fromkeys(
        pair for _, _, c, p in jobs for pair in ((0, c), (0, p), (min(c, p), max(c, p)))
    ))
    matched = dict(zip(pairs, clipped_matches(corpora, pairs)))
    reports = []
    for kind, cid, c, p in jobs:
        tq_clean = bleu_from_matches(matched[0, c], corpora[c], ref)
        _check_clean(cid, tq_clean)
        tq_perturbed = bleu_from_matches(matched[0, p], corpora[p], ref)
        across = matched[min(c, p), max(c, p)]
        reports.append(_report(
            cid, kind, tq_clean, tq_perturbed, _consistency(across, corpora[c], corpora[p])
        ))
    if error is not None:
        raise error
    return reports
