"""Benchmark of the mtlens command line, one workload per invocation.

    python3 benchmarks/run.py --workload report|relevance|scoring \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports mtlens from
./src and keeps generated inputs and outputs under ./.bench_build.
Inputs are made from the seed before any timing starts and are
checked against their digests before each run.

Each round is a fresh interpreter (timed_round.py) that calls
mtlens.cli.main once per command of the workload. Rounds repeat until
--seconds have passed; every output is checked after its round,
outside the timing. The last line of stdout is one JSON object:
with --trace 0 the end-to-end metrics (medians over the rounds), with
--trace 1 the per-layer metrics from traced rounds, alternated with
untraced ones to give the tracing overhead.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy

import checks
import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "mtlens-bench")
OUT = os.path.join(WORK, "out")  # emptied before every round
# a run must end within 180 s; no round starts after this and none outlives it
HARD_LIMIT_S = 165.0
RMSS_CHECKED_ROWS = 16


@dataclass
class Workload:
    """Commands for one round, the loaders they call, and their checks."""

    commands: list  # argv lists for mtlens.cli.main
    loaders: list  # (loader name, path) pairs timed for setup_s
    setup_repeats: int
    checks: list  # one callable per command, returning a list of problems
    prepare: Callable[[], None] | None = None  # lays out OUT before a round


def report_workload(inp, seed) -> Workload:
    run, emb = os.path.join(inp, "run"), os.path.join(inp, "emb")
    files = {k: os.path.join(OUT, f"report.{k}") for k in ("csv", "svg", "json")}
    command = [
        "report", run,
        "--metrics", "bleu,frs-vs-ref,ter-vs-ref,rmss-vs-ref,rmss-vs-src",
        "--embeddings", emb,
        "--csv", files["csv"], "--svg", files["svg"], "--out", files["json"],
    ]
    embeddings = [os.path.join(emb, f"{side}.emb") for side in ("ref", "src")] + [
        os.path.join(emb, "checkpoints", c, "hyp.emb") for c in gen.REPORT_CHECKPOINTS
    ]
    return Workload(
        commands=[command],
        loaders=[("load_run", run)] + [("load_embeddings", p) for p in embeddings],
        setup_repeats=20,
        checks=[lambda: checks.check_report(files, run, emb, gen.REPORT_CHECKPOINTS)],
    )


def relevance_workload(inp, seed) -> Workload:
    model_dir = gen.ensure_model(WORK)
    model = os.path.join(model_dir, "model.wts")
    vocab = os.path.join(model_dir, "vocab.txt")
    src, tgt = os.path.join(inp, "src.txt"), os.path.join(inp, "tgt.txt")
    out_path = os.path.join(OUT, "lrp.jsonl")
    return Workload(
        commands=[["lrp", "--model", model, "--vocab", vocab, src, tgt, "--out", out_path]],
        loaders=[("load_model", model), ("load_vocab", vocab), ("load_corpus", src), ("load_corpus", tgt)],
        setup_repeats=1,
        checks=[lambda: checks.check_relevance(out_path, src, tgt)],
    )


def scoring_workload(inp, seed) -> Workload:
    run = os.path.join(inp, "run")
    ref = os.path.join(run, "ref.txt")
    first = os.path.join(run, "checkpoints", gen.SCORING_CHECKPOINTS[0], "hyp.txt")
    ter_hyp, ter_ref = os.path.join(inp, "ter_hyp.txt"), os.path.join(inp, "ter_ref.txt")
    planted = os.path.join(inp, "planted.aln")
    x_emb, y_emb = os.path.join(inp, "x.emb"), os.path.join(inp, "y.emb")
    o = {k: os.path.join(OUT, k) for k in ("ter.json", "frs.json", "bleu.json", "rmss.json", "rmss_per.json", "robust.csv")}
    kinds = {"misspelling": ("0.1", checks.check_misspelling), "case": ("0.5", checks.check_case)}
    pert_dirs = {kind: os.path.join(OUT, f"pert_{kind}") for kind in kinds}
    vectors = {}

    def rmss_check():
        if not vectors:
            vectors["x"], vectors["y"] = checks.read_vectors(x_emb), checks.read_vectors(y_emb)
        rows = [i * gen.RMSS_COUNT // RMSS_CHECKED_ROWS for i in range(RMSS_CHECKED_ROWS)]
        return checks.check_rmss(o["rmss.json"], o["rmss_per.json"], vectors["x"], vectors["y"], rows)

    commands = [
        ["ter", "--shifts", "--per-sentence", ter_hyp, ter_ref, "--out", o["ter.json"]],
        ["frs", "--align", planted, "--per-sentence", first, ref, "--out", o["frs.json"]],
        ["bleu", first, ref, "--out", o["bleu.json"]],
        ["rmss", "--k", "4", x_emb, y_emb, "--per-sentence", o["rmss_per.json"], "--out", o["rmss.json"]],
    ]
    verify = [
        lambda: checks.check_ter(o["ter.json"], ter_hyp, ter_ref),
        lambda: checks.check_frs(o["frs.json"], planted, ref),
        lambda: checks.check_bleu(o["bleu.json"], first, ref),
        rmss_check,
    ]
    loaders = [
        ("load_corpus", ter_hyp), ("load_corpus", ter_ref),
        ("load_corpus", first), ("load_corpus", ref), ("read_pharaoh", planted),
        ("load_corpus", first), ("load_corpus", ref),
        ("load_embeddings", x_emb), ("load_embeddings", y_emb),
    ]
    for kind, (prob, check) in kinds.items():
        for ckpt in gen.SCORING_CHECKPOINTS:
            clean = os.path.join(run, "checkpoints", ckpt, "hyp.txt")
            noisy = os.path.join(pert_dirs[kind], "checkpoints", ckpt, "hyp.txt")
            commands.append(["perturb", "--kind", kind, "--prob", prob, "--seed", str(seed), clean, noisy])
            verify.append(lambda noisy=noisy, clean=clean, check=check: check(noisy, clean))
            loaders.append(("load_corpus", clean))
    commands.append(
        ["robust", "--clean", run]
        + [arg for kind, d in pert_dirs.items() for arg in ("--perturbed", f"{kind}={d}")]
        + ["--out", o["robust.csv"]]
    )
    verify.append(lambda: checks.check_robust(o["robust.csv"], run, pert_dirs, ref))
    loaders += [("load_run", run)] + [("load_run", d) for d in pert_dirs.values()]

    def prepare():
        # a perturbed run is the clean run's source and reference plus
        # the perturbed hypotheses the round writes
        for d in pert_dirs.values():
            for ckpt in gen.SCORING_CHECKPOINTS:
                os.makedirs(os.path.join(d, "checkpoints", ckpt))
            for name in ("src.txt", "ref.txt"):
                shutil.copyfile(os.path.join(run, name), os.path.join(d, name))

    return Workload(commands, loaders, 1, verify, prepare)


WORKLOADS = {"report": report_workload, "relevance": relevance_workload, "scoring": scoring_workload}


# ---------------------------------------------------------------------------
# diagnostics: not gated, printed so drift on a shared box can be told
# apart from a change in the program


def cpu_times():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields


def steal_share(before, after):
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total > 0 else None


def calibration_rate() -> float:
    """Best of five runs of a fixed pure-Python loop, in loops per second."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return 1.0 / best


def hardware() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


# ---------------------------------------------------------------------------


def run_round(workload, started, trace_path=None) -> dict:
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    if workload.prepare:
        workload.prepare()
    spec_path = os.path.join(WORK, "round.spec.json")
    result_path = os.path.join(WORK, "round.result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"src": SRC, "commands": workload.commands, "loaders": workload.loaders,
             "setup_repeats": workload.setup_repeats, "trace": trace_path},
            fh,
        )
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, PYTHONHASHSEED="0")
    budget = HARD_LIMIT_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "timed_round.py"), spec_path, result_path],
            stdout=sys.stderr, env=env, timeout=max(budget, 1.0), check=False,
        )
        ok = proc.returncode == 0 and os.path.exists(result_path)
    except subprocess.TimeoutExpired:
        print("round timed out", file=sys.stderr)
        ok = False
    if not ok:
        return {"failed": len(workload.commands), "problems": [], "errors": ["round did not finish"]}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    # a command fails when it exits non-zero or its output fails its check;
    # only the second makes the run incorrect
    result.update(failed=0, problems=[], errors=[])
    for argv, code, check in zip(workload.commands, result["codes"], workload.checks):
        if code != 0:
            result["errors"].append(f"{argv[0]}: exit code {code}")
            result["failed"] += 1
            continue
        problems = check()
        result["problems"] += problems
        result["failed"] += bool(problems)
    if trace_path:
        result["layers"] = spans.layer_metrics(spans.read_spans(trace_path))
    return result


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(rounds) -> dict:
    """Medians over the rounds that finished; setup_s over every sample."""
    done = [r for r in rounds if "wall_s" in r]
    return {
        "wall_s": {"value": _median(r["wall_s"] for r in done), "unit": "s"},
        "setup_s": {"value": _median(s for r in done for s in r["setup_s"]), "unit": "s"},
        "cpu_s": {"value": _median(r["cpu_s"] for r in done), "unit": "s"},
        "peak_rss_mb": {"value": _median(r["peak_rss_mb"] for r in done), "unit": "MB"},
    }


def per_layer(plain, traced) -> dict:
    """Medians over the traced rounds, and traced minus untraced wall time."""
    layers = [r["layers"] for r in traced if "layers" in r] or [spans.layer_metrics([])]
    metrics = {
        name: {"value": _median(l[name][0] for l in layers), "unit": unit}
        for name, (_, unit) in layers[0].items()
    }
    overhead = _median(r["wall_s"] for r in traced if "wall_s" in r) - _median(
        r["wall_s"] for r in plain if "wall_s" in r
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mtlens", "cli.py")):
        print(f"error: no mtlens sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2

    started = time.perf_counter()
    inputs = gen.ensure_inputs(WORK, args.workload, args.seed)
    workload = WORKLOADS[args.workload](inputs, args.seed)

    rate_before, stat_before = calibration_rate(), cpu_times()
    measure_start = time.perf_counter()
    plain, traced = [], []
    while True:
        if args.trace:
            trace_path = os.path.join(WORK, f"spans-{len(traced)}.jsonl")
            plain.append(run_round(workload, started))
            traced.append(run_round(workload, started, trace_path))
        else:
            plain.append(run_round(workload, started))
        # start another round only if it should end within --seconds
        now = time.perf_counter()
        per_round = (now - measure_start) / len(plain)
        if now - measure_start + per_round > args.seconds or now - started + per_round > HARD_LIMIT_S:
            break
    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    for p in (problems + [e for r in rounds for e in r["errors"]])[:20]:
        print(f"check: {p}", file=sys.stderr)
    print(json.dumps({"diagnostics": {
        "workload": args.workload, "seed": args.seed, "rounds": len(plain),
        "wall_s": [r.get("wall_s") for r in plain],
        "setup_s": [s for r in plain for s in r.get("setup_s", [])],
        "steal_share": steal_share(stat_before, cpu_times()),
        "calibration_loops_per_s": [rate_before, calibration_rate()],
        "hardware": hardware(),
    }}))
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rounds) * len(workload.commands),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
