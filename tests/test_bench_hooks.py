"""The benchmark's trace spans wrap mtlens names by lookup; each must exist."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import DATA_DIR

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.WRAPPED
    assert missing == []


# runs the argv lists given as JSON under the span recorder, as a traced
# benchmark round does, and prints their exit codes and the layer metrics
TRACED_ROUND = """
import json, sys, traceback
from spans import Recorder, layer_metrics
import mtlens.cli
recorder = Recorder()
recorder.install()
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(mtlens.cli.main(argv))
    except Exception:
        traceback.print_exc()
        codes.append(None)
metrics = {name: value for name, (value, _) in layer_metrics(recorder.spans).items()}
print(json.dumps({"codes": codes, "metrics": metrics}))
"""


def test_traced_commands_count_every_layers_work(tmp_path):
    # each work count reads arguments by name, so a renamed parameter breaks only tracing
    run, emb = DATA_DIR / "run3", DATA_DIR / "emb3"
    src, ref = str(run / "src.txt"), str(run / "ref.txt")
    hyp = str(run / "checkpoints" / "000100" / "hyp.txt")
    hyp_emb = str(emb / "checkpoints" / "000100" / "hyp.emb")
    model = ["--model", str(DATA_DIR / "fixture.wts"), "--vocab", str(DATA_DIR / "vocab.txt")]
    out = ["--out", "out"]
    commands = [
        ["ter", "--shifts", hyp, ref, *out],
        ["frs", hyp, ref, "--iters", "2", *out],
        ["align", hyp, ref, "--iters", "2", *out],
        ["rmss", "--k", "2", str(emb / "ref.emb"), hyp_emb, *out],
        ["lrp", *model, src, hyp, *out],
        ["perturb", "--kind", "misspelling", "--prob", "0.5", "--seed", "1", ref, "perturbed.txt"],
        ["report", str(run), "--metrics", "bleu,frs-vs-ref,rmss-vs-ref,src-entropy",
         "--iters", "2", "--k", "2", "--embeddings", str(emb), *model, "--csv", "report.csv", *out],
    ]
    root = SPANS.parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(SPANS.parent)])}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ROUND, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(commands), proc.stderr
    counted = ("corpus.sentences", "align.em_links", "semsim.load_mb", "semsim.rmss_matrix_mb",
               "transformer.load_mb", "lrp.steps", "perturb.tokens", "wordorder.ter_shift_calls")
    assert [name for name in counted if not result["metrics"][name] > 0] == []
