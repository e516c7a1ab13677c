"""Command-line front end.

One binary, subcommand style. Subcommands return a JSON payload, text
or None, and main writes it to stdout (or --out); --format text prints
a payload's headline value alone, empty when undefined. Diagnostics go
to stderr. Exit codes: 0 success, 1 usage error, 2 data/contract error,
3 numeric failure, 4 out of memory (a MemoryError). Every randomized
path takes an explicit --seed; nothing is seeded from the clock.
"""

import argparse
import dataclasses
import itertools
import json
import os
import sys

from . import align as align_mod
from . import report as report_mod
from .corpus import check_lengths, is_utf8, load_corpus, load_run, save_corpus, write_text
from .errors import DataError, NumericError, UsageError
from .lrp import contributions  # noqa: F401 (benchmarks/spans.py wraps this name)
from .perturb import PerturbationKind, PerturbationSpec, perturb_corpus
from .quality import corpus_bleu
from .robustness import robustness_suite
from .semsim import load_embeddings, rmss
from .series import mean_or_none
from .transformer import load_model, load_vocab
from .wordorder import frs as frs_op
from .wordorder import corpus_frs, score_defined
from .wordorder import ter as ter_op


def _load_pair(first_path, second_path):
    first = load_corpus(first_path)
    second = load_corpus(second_path)
    check_lengths(first, second)
    return first, second


def _mean_payload(name, results, skipped, per_sentence, **extras) -> dict:
    payload = {
        f"mean_{name}": mean_or_none([getattr(r, name) for r in results]),
        "count": len(results),
        "skipped": skipped,
        **extras,
    }
    if per_sentence:
        payload["sentences"] = [dataclasses.asdict(r) for r in results]
    return payload


# ---------------------------------------------------------------------------
# subcommands


def cmd_bleu(args) -> dict:
    score = corpus_bleu(load_corpus(args.hyp), load_corpus(args.ref), lowercase=args.lc)
    return {
        "score": score.score,
        "precisions": list(score.precisions),
        "bp": score.brevity_penalty,
        "hyp_len": score.hyp_len,
        "ref_len": score.ref_len,
    }


def cmd_ter(args) -> dict:
    hyp, ref = _load_pair(args.hyp, args.ref)
    results, skipped = score_defined(
        zip(hyp, ref), lambda h, r: ter_op(h, r, shifts=args.shifts)
    )
    return _mean_payload("ter", results, skipped, args.per_sentence, shifts=bool(args.shifts))


def cmd_frs(args) -> dict:
    hyp, other = _load_pair(args.hyp, args.other)
    if not args.align:
        results, skipped = corpus_frs(hyp, other, args.iters)
        return _mean_payload("frs", results, skipped, args.per_sentence)
    alignments = align_mod.read_pharaoh(args.align)
    if len(alignments) != len(hyp):
        raise DataError(
            f"{args.align}: {len(alignments)} alignment lines for {len(hyp)} sentences"
        )

    def score(lineno, alignment, h, o):
        try:
            return frs_op(alignment, h, o)
        except DataError as exc:  # only a link read from --align can fall outside its pair
            raise DataError(f"{args.align}: line {lineno}: {exc}") from exc

    results, skipped = score_defined(zip(itertools.count(1), alignments, hyp, other), score)
    return _mean_payload("frs", results, skipped, args.per_sentence)


def cmd_align(args) -> str:
    hyp = load_corpus(args.hyp)
    other = load_corpus(args.other)
    table = align_mod.train_model1(hyp, other, iterations=args.iters)
    return align_mod.format_pharaoh(table.alignments)


_KINDS = {
    "misspelling": PerturbationKind.MISSPELLING,
    "case": PerturbationKind.CASE_CHANGING,
    "case_changing": PerturbationKind.CASE_CHANGING,
}


def cmd_perturb(args) -> None:
    spec = PerturbationSpec(kind=_KINDS[args.kind], probability=args.prob, seed=args.seed)
    corpus = load_corpus(args.infile)
    save_corpus(perturb_corpus(corpus, spec), args.outfile)


def cmd_robust(args) -> str:
    run = load_run(args.clean)
    if args.ref:
        run = dataclasses.replace(run, reference=load_corpus(args.ref))
    perturbed = {}
    for item in args.perturbed:
        kind, eq, path = item.partition("=")
        if not eq or "/" in kind:  # a bare directory, maybe with "=" in its path
            kind, path = os.path.basename(os.path.normpath(item)), item
        if not kind:
            raise UsageError(f"--perturbed: empty kind in {item!r}")
        if not is_utf8(kind):
            raise UsageError(f"--perturbed: kind {kind!r} is not valid UTF-8")
        if kind in perturbed:
            raise UsageError(f"--perturbed: kind {kind!r} given more than once")
        perturbed[kind] = load_run(path)
    rows = [["checkpoint", "kind", "bleu_clean", "bleu_pert", "R", "R_raw", "C"]]
    for rep in robustness_suite(run, perturbed):
        values = (rep.tq_clean.score, rep.tq_perturbed.score, rep.robustness,
                  rep.raw_ratio, rep.consistency)
        rows.append([rep.checkpoint_id, rep.kind, *map(report_mod.format_value, values)])
    return report_mod.csv_text(rows)


def cmd_rmss(args) -> dict:
    x_set = load_embeddings(args.x_emb)
    y_set = load_embeddings(args.y_emb)
    result = rmss(x_set, y_set, args.k)
    if args.per_sentence:
        write_text(args.per_sentence, json.dumps(list(result.per_sentence)) + "\n")
    return {
        "mean": result.mean,
        "k": result.k,
        "count": x_set.count,
        "skipped": result.skipped,
        "per_sentence": args.per_sentence or None,
    }


def _load_model_and_vocab(model_path, vocab_path):
    """The model and vocab, refused unless the model embeds every vocab id."""
    model, vocab = load_model(model_path), load_vocab(vocab_path)
    if len(vocab) > model.vocab_size:
        raise DataError(f"{vocab_path} holds {len(vocab)} tokens, but {model_path} "
                        f"embeds only {model.vocab_size}")
    return model, vocab


def cmd_lrp(args) -> str:
    model, vocab = _load_model_and_vocab(args.model, args.vocab)
    src, tgt = _load_pair(args.src, args.tgt)
    scored, stats, skipped = report_mod.corpus_contributions(model, vocab, src, tgt)
    out_lines = [
        json.dumps(
            {
                "sentence": idx,
                "step": rec.step,
                "r_source": rec.r_source,
                "r_target": rec.r_target,
                "source_rel": [float(v) for v in rec.source_rel],
                "target_rel": [float(v) for v in rec.target_rel],
                "predicted_id": rec.predicted_id,
            }
        )
        for idx, records in scored
        for rec in records
    ]
    summary = {**dataclasses.asdict(stats), "skipped_sentences": skipped}
    out_lines.append(json.dumps({"summary": summary}))
    return "\n".join(out_lines) + "\n"


def _load_report_embeddings(emb_dir, run, metrics):
    """The existing files under emb_dir that the rmss metrics read, keyed by run-relative name."""
    names = [f"{m.rsplit('-', 1)[1]}.emb" for m in metrics if m in report_mod.RMSS_METRICS]
    names += [report_mod.hyp_emb_name(c) for c in run.checkpoints]
    return {name: load_embeddings(path) for name in names
            if os.path.isfile(path := os.path.join(emb_dir, name))}


def cmd_report(args) -> dict:
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise UsageError("--metrics needs at least one metric name")
    for i, metric in enumerate(metrics):
        if metric not in report_mod.KNOWN_METRICS:
            known = ", ".join(report_mod.KNOWN_METRICS)
            raise UsageError(f"--metrics: unknown metric {metric!r}; known: {known}")
        if metric in metrics[:i]:
            raise UsageError(f"--metrics: metric {metric!r} given more than once")
    run = load_run(args.run_dir)
    # load only what a requested metric reads
    embeddings = model = vocab = None
    if args.embeddings and any(m in report_mod.RMSS_METRICS for m in metrics):
        embeddings = _load_report_embeddings(args.embeddings, run, metrics)
    if args.model and args.vocab and any(m in report_mod.RELEVANCE_METRICS for m in metrics):
        model, vocab = _load_model_and_vocab(args.model, args.vocab)
    series, notes = report_mod.collect(
        run, metrics, iterations=args.iters, k=args.k, lowercase=args.lc,
        embeddings=embeddings, model=model, vocab=vocab,
    )
    for note in notes:
        print(note, file=sys.stderr)
    # the SVG first: it may refuse a checkpoint name, and then no file is written
    if args.svg:
        report_mod.emit_svg(series, args.svg)
    if args.csv:
        report_mod.emit_csv(series, args.csv)
    names = [s.metric_name for s in series]
    return {"csv": args.csv or None, "svg": args.svg or None, "series": names, "notes": notes}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlens",
        description="Analysis toolkit for machine-translation outputs",
    )
    parser.set_defaults(format="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write results to this file instead of stdout")

    def add_scalar_out(p):
        add_out(p)
        p.add_argument(
            "--format", choices=("json", "text"), default="json",
            help="json record or bare headline value",
        )

    p = sub.add_parser("bleu", help="corpus BLEU-4")
    p.add_argument("hyp")
    p.add_argument("ref")
    p.add_argument("--lc", action="store_true", help="lowercase before scoring")
    add_scalar_out(p)
    p.set_defaults(func=cmd_bleu, headline="score")

    p = sub.add_parser("ter", help="translation edit rate")
    p.add_argument("hyp")
    p.add_argument("ref")
    p.add_argument("--shifts", action="store_true", help="enable greedy block shifts")
    p.add_argument("--per-sentence", action="store_true")
    add_scalar_out(p)
    p.set_defaults(func=cmd_ter, headline="mean_ter")

    p = sub.add_parser("frs", help="fuzzy reordering score")
    p.add_argument("hyp")
    p.add_argument("other", help="reference or source corpus")
    p.add_argument("--align", help="Pharaoh alignment file (default: train IBM-1)")
    p.add_argument("--iters", type=int, default=10, help="EM iterations")
    p.add_argument("--per-sentence", action="store_true")
    add_scalar_out(p)
    p.set_defaults(func=cmd_frs, headline="mean_frs")

    p = sub.add_parser("align", help="IBM Model 1 word alignment (Pharaoh output)")
    p.add_argument("hyp", help="side whose token indexes own the links")
    p.add_argument("other", help="conditioning side (gets the NULL token)")
    p.add_argument("--iters", type=int, default=10)
    add_out(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("perturb", help="misspell or case-change a corpus")
    p.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p.add_argument("--prob", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("infile")
    p.add_argument("outfile")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("robust", help="robustness/consistency table (CSV)")
    p.add_argument("--clean", required=True, help="clean run directory")
    p.add_argument(
        "--perturbed",
        action="append",
        required=True,
        metavar="[KIND=]DIR",
        help="perturbed run directory; repeatable",
    )
    p.add_argument("--ref", help="override reference corpus")
    add_out(p)
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("rmss", help="ratio margin-based similarity score")
    p.add_argument("--k", type=int, default=4, help="neighborhood size")
    p.add_argument("x_emb", help="reference-or-source embeddings")
    p.add_argument("y_emb", help="hypothesis embeddings")
    p.add_argument("--per-sentence", metavar="FILE", help="write per-pair scores here")
    add_scalar_out(p)
    p.set_defaults(func=cmd_rmss, headline="mean")

    p = sub.add_parser("lrp", help="relevance propagation records (JSON lines)")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("src")
    p.add_argument("tgt")
    add_out(p)
    p.set_defaults(func=cmd_lrp)

    p = sub.add_parser("report", help="metric series over checkpoints (CSV/SVG)")
    p.add_argument("run_dir")
    p.add_argument(
        "--metrics",
        default="bleu,frs-vs-ref,ter-vs-ref",
        help="comma-separated metric names",
    )
    p.add_argument("--csv", help="CSV output path")
    p.add_argument("--svg", help="SVG output path")
    p.add_argument("--embeddings", help="embedding dir (ref.emb, src.emb, checkpoints/<id>/hyp.emb)")
    p.add_argument("--model", help="transformer weight file for relevance metrics")
    p.add_argument("--vocab", help="vocab file for relevance metrics")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--lc", action="store_true")
    add_out(p)
    p.set_defaults(func=cmd_report)

    return parser


def _check_distinct_outputs(args) -> None:
    """Refuse two output paths that name one file; F and ./F count as one, "" as none."""
    written = {}
    for dest in ("csv", "svg", "per_sentence", "out"):
        path = getattr(args, dest, None)
        if isinstance(path, str) and path:  # ter/frs --per-sentence is a flag
            option = "--" + dest.replace("_", "-")
            first = written.setdefault(os.path.realpath(path), option)
            if first != option:
                raise UsageError(f"{first} and {option} both write {path}")


_EXIT_CODES = {
    UsageError: 1,
    DataError: 2,
    OSError: 2,
    NumericError: 3,
    MemoryError: 4,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_distinct_outputs(args)
        result = args.func(args)
        if isinstance(result, dict) and args.format == "text":
            value = result[args.headline]
            result = f"{'' if value is None else value}\n"
        elif isinstance(result, dict):
            result = json.dumps(result, indent=2) + "\n"
        if result is not None:
            if args.out:
                write_text(args.out, result)
            else:
                sys.stdout.write(result)
        return 0
    except tuple(_EXIT_CODES) as exc:
        # numpy's MemoryError names the allocation; a bare one names nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entry() -> None:
    # stdout carries the bytes --out would write, whatever the locale
    sys.stdout.reconfigure(encoding="utf-8", newline="\n")
    sys.exit(main())


if __name__ == "__main__":
    entry()
