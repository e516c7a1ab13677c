"""Spans around calls into mtlens, recorded from outside the program.

Each public function is wrapped at the name its caller looks it up
by: `from x import y` binds a second name, so `mtlens.cli.load_run`
and `mtlens.corpus.load_corpus` are wrapped separately, and so are the
copies of `train_model1` in `mtlens.align` and `mtlens.wordorder`.
Spans stay in memory and are written as JSON lines when the round
ends. `layer_metrics` turns them into the per-layer figures.

`corpus_wordorder` calls `viterbi_align`, `ter` and `frs` from pool
threads, so the recorder takes a lock, and a span opened on a pool
thread with nothing open on that thread is a child of the span open
on the main thread at that moment.
"""

import functools
import importlib
import inspect
import json
import os
import threading
import time

MB = float(1 << 20)


def _sentences(a, result) -> dict:
    if hasattr(result, "checkpoints"):  # a whole run from load_run
        count = len(result.source) + len(result.reference) + sum(
            len(c.hypotheses) for c in result.checkpoints
        )
    else:
        count = len(result)
    return {"sentences": count}


def _em_work(a, result) -> dict:
    per_iteration = sum(
        len(h.tokens) * (len(o.tokens) + 1)
        for h, o in zip(a["hyp"], a["other"])
        if h.tokens and o.tokens
    )
    return {"iterations": a["iterations"], "links": a["iterations"] * per_iteration}


def _file_mb(a, result) -> dict:
    return {"mb": os.path.getsize(a["path"]) / MB}


def _matrix_mb(a, result) -> dict:
    return {"matrix_mb": 8.0 * a["x_set"].count ** 2 / MB}


def _steps(a, result) -> dict:
    return {"steps": len(a["tgt"].tokens)}


def _tokens(a, result) -> dict:
    return {"tokens": sum(len(s.tokens) for s in a["corpus"])}


# (module, attribute, span name, work counted from bound arguments and result)
WRAPPED = (
    ("mtlens.cli", "main", "cli.main", None),
    ("mtlens.cli", "load_corpus", "corpus.load", _sentences),
    ("mtlens.cli", "load_run", "corpus.load", _sentences),
    ("mtlens.corpus", "load_corpus", "corpus.load", _sentences),
    ("mtlens.align", "read_pharaoh", "align.read", None),
    ("mtlens.align", "train_model1", "align.em", _em_work),
    ("mtlens.wordorder", "train_model1", "align.em", _em_work),
    ("mtlens.align", "viterbi_align", "align.viterbi", None),
    ("mtlens.wordorder", "viterbi_align", "align.viterbi", None),
    ("mtlens.cli", "ter_op", "wordorder.ter", None),
    ("mtlens.wordorder", "ter", "wordorder.ter", None),
    ("mtlens.cli", "frs_op", "wordorder.frs", None),
    ("mtlens.wordorder", "frs", "wordorder.frs", None),
    ("mtlens.report", "corpus_wordorder", "wordorder.corpus", None),
    ("mtlens.cli", "corpus_bleu", "quality.bleu", None),
    ("mtlens.report", "corpus_bleu", "quality.bleu", None),
    ("mtlens.robustness", "corpus_bleu", "quality.bleu", None),
    ("mtlens.cli", "robustness_suite", "robustness.suite", None),
    ("mtlens.cli", "perturb_corpus", "perturb.corpus", _tokens),
    ("mtlens.cli", "load_embeddings", "semsim.load", _file_mb),
    ("mtlens.cli", "rmss", "semsim.rmss", _matrix_mb),
    ("mtlens.report", "rmss", "semsim.rmss", _matrix_mb),
    ("mtlens.cli", "load_model", "transformer.load", _file_mb),
    ("mtlens.cli", "load_vocab", "transformer.load", _file_mb),
    ("mtlens.lrp", "forward", "transformer.forward", None),
    ("mtlens.lrp", "lrp_backward", "lrp.backward", None),
    ("mtlens.cli", "contributions", "lrp.contributions", _steps),
    ("mtlens.report", "contributions", "lrp.contributions", _steps),
    ("mtlens.report", "collect", "report.collect", None),
    ("mtlens.report", "emit_csv", "report.emit", None),
    ("mtlens.report", "emit_svg", "report.emit", None),
)


class Recorder:
    """Thread-safe span store; create it on the main thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()
        self._next_id = 0
        self.spans = []

    def open(self) -> tuple:
        tid = threading.get_ident()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = self._stacks.get(self._main)
                parent = main_stack[-1] if main_stack and tid != self._main else None
            stack.append(sid)
        return sid, parent, tid

    def close(self, sid, parent, tid, name, start, end, work) -> None:
        with self._lock:
            self._stacks[tid].pop()
            self.spans.append(
                {"id": sid, "parent": parent, "thread": tid, "name": name,
                 "start": start, "end": end, "work": work}
            )

    def wrap(self, fn, name, work):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, tid = self.open()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                # ter with shifts is its own layer metric; the flag is
                # read from the bound arguments, as the work counts are
                span_name, counts = name, None
                if work is not None or name == "wordorder.ter":
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if name == "wordorder.ter" and bound.arguments["shifts"]:
                        span_name = "wordorder.ter_shift"
                    if work is not None and result is not None:
                        counts = work(bound.arguments, result)
                self.close(sid, parent, tid, span_name, start, end, counts)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, work in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name, work))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans) -> dict:
    """Busy time, self time, calls and work counts per layer."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def group(s):
        return s["name"].replace("wordorder.ter_shift", "wordorder.ter")

    def outermost(s):
        # a span nested in another span of its own layer is counted there
        p = by_id.get(s["parent"])
        while p is not None:
            if group(p) == group(s):
                return False
            p = by_id.get(p["parent"])
        return True

    def self_time(s):
        inner = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
        ]
        return (s["end"] - s["start"]) - _covered(inner)

    busy, calls, self_s, work = {}, {}, {}, {}
    for s in spans:
        if not outermost(s):
            continue
        name = s["name"]
        busy[name] = busy.get(name, 0.0) + s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_time(s)
        for key, value in (s["work"] or {}).items():
            work[(name, key)] = work.get((name, key), 0) + value

    def b(name):
        return busy.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    def w(name, key):
        return work.get((name, key), 0)

    return {
        "corpus.load_s": (b("corpus.load"), "s"),
        "corpus.sentences": (w("corpus.load", "sentences"), "count"),
        "align.read_s": (b("align.read"), "s"),
        "align.em_s": (b("align.em"), "s"),
        "align.em_iterations": (w("align.em", "iterations"), "count"),
        "align.em_links": (w("align.em", "links"), "count"),
        "align.viterbi_s": (b("align.viterbi"), "s"),
        "align.viterbi_calls": (c("align.viterbi"), "count"),
        "wordorder.ter_s": (b("wordorder.ter"), "s"),
        "wordorder.ter_calls": (c("wordorder.ter"), "count"),
        "wordorder.ter_shift_s": (b("wordorder.ter_shift"), "s"),
        "wordorder.ter_shift_calls": (c("wordorder.ter_shift"), "count"),
        "wordorder.frs_s": (b("wordorder.frs"), "s"),
        "wordorder.frs_calls": (c("wordorder.frs"), "count"),
        "wordorder.corpus_self_s": (self_s.get("wordorder.corpus", 0.0), "s"),
        "quality.bleu_s": (b("quality.bleu"), "s"),
        "quality.bleu_calls": (c("quality.bleu"), "count"),
        "robustness.suite_s": (b("robustness.suite"), "s"),
        "perturb.corpus_s": (b("perturb.corpus"), "s"),
        "perturb.tokens": (w("perturb.corpus", "tokens"), "count"),
        "semsim.load_s": (b("semsim.load"), "s"),
        "semsim.load_mb": (w("semsim.load", "mb"), "MB"),
        "semsim.rmss_s": (b("semsim.rmss"), "s"),
        "semsim.rmss_calls": (c("semsim.rmss"), "count"),
        "semsim.rmss_matrix_mb": (w("semsim.rmss", "matrix_mb"), "MB"),
        "transformer.load_s": (b("transformer.load"), "s"),
        "transformer.load_mb": (w("transformer.load", "mb"), "MB"),
        "transformer.forward_s": (b("transformer.forward"), "s"),
        "transformer.forward_calls": (c("transformer.forward"), "count"),
        "lrp.backward_s": (b("lrp.backward"), "s"),
        "lrp.backward_calls": (c("lrp.backward"), "count"),
        "lrp.steps": (w("lrp.contributions", "steps"), "count"),
        "lrp.contributions_self_s": (self_s.get("lrp.contributions", 0.0), "s"),
        "report.collect_self_s": (self_s.get("report.collect", 0.0), "s"),
        "report.emit_s": (b("report.emit"), "s"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
    }
