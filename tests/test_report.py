import contextlib
import io
import json
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import model1_oracle
import report_oracle
import wordorder_oracle
from mtlens import quality, report
from mtlens.align import TranslationTable, train_model1
from mtlens.cli import main
from mtlens.corpus import AnalysisRun, CheckpointRun, load_run
from mtlens.errors import DataError, NumericError
from mtlens.quality import corpus_bleu
from mtlens.report import RELEVANCE_METRICS, collect, emit_csv, emit_svg
from mtlens.semsim import load_embeddings, rmss
from mtlens.series import MetricSeries, SeriesPoint, mean_or_none
from mtlens.transformer import load_model, load_vocab
from mtlens.wordorder import corpus_wordorder

from conftest import DATA_DIR, make_corpus


IDENTITY_LINES = ["a b c", "a d e", "b d f", "c e f"]


def identity_run():
    ref = make_corpus(IDENTITY_LINES)
    src = make_corpus(["k l", "k m", "l m", "m k"])
    return AnalysisRun(
        source=src,
        reference=ref,
        checkpoints=(CheckpointRun("c1", make_corpus(IDENTITY_LINES)),),
    )


def fixture_run():
    return load_run(DATA_DIR / "run3")


def test_mean_or_none_adds_in_order():
    # sum() compensates its rounding on Python 3.12 and later (1.0 there);
    # a sequential fold gives 0.9999999999999999 on every version
    assert mean_or_none([0.1] * 10) == 0.09999999999999999
    assert mean_or_none([]) is None


def fixture_inputs():
    run = fixture_run()
    names = ["ref.emb", "src.emb"] + [report.hyp_emb_name(c) for c in run.checkpoints]
    inputs = {
        "embeddings": {name: load_embeddings(DATA_DIR / "emb3" / name) for name in names},
        "model": load_model(DATA_DIR / "fixture.wts"),
        "vocab": load_vocab(DATA_DIR / "vocab.txt"),
        "iterations": 5,
        "k": 2,
    }
    return run, inputs


def test_collect_identity_fixture():
    run = identity_run()
    series, notes = collect(run, ["bleu", "ter-vs-ref", "frs-vs-ref"])
    assert notes == []
    by_name = {s.metric_name: s for s in series}
    assert by_name["bleu"].points[0].value == pytest.approx(100.0)
    assert by_name["ter-vs-ref"].points[0].value == pytest.approx(0.0)
    assert by_name["frs-vs-ref"].points[0].value == pytest.approx(1.0)


def test_collect_missing_embeddings_noted():
    run = identity_run()
    series, notes = collect(run, ["bleu", "rmss-vs-ref"])
    assert [s.metric_name for s in series] == ["bleu"]
    assert any("rmss-vs-ref" in n for n in notes)


def test_collect_missing_model_noted():
    run = identity_run()
    series, notes = collect(run, ["avg-src-contribution"])
    assert series == []
    assert any("avg-src-contribution" in n for n in notes)


def test_collect_unknown_metric_rejected():
    with pytest.raises(DataError):
        collect(identity_run(), ["nope"])


@pytest.mark.parametrize("metrics", [["bleu", "bleu"], ["ter-vs-ref", "bleu", "ter-vs-ref"],
                                     ["src-entropy", "tgt-entropy", "src-entropy"]])
def test_collect_repeated_metric_rejected(metrics):
    # emit_csv would write one column name twice
    with pytest.raises(DataError, match="more than once"):
        collect(identity_run(), metrics)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(report.KNOWN_METRICS + ("nope", "BLEU")), min_size=1, max_size=5))
def test_collect_and_cli_refuse_alike(metrics):
    # one rule, check_metrics, refuses the first unknown or repeated name in one wording
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", str(DATA_DIR / "run3"), "--metrics", ",".join(metrics)])
    try:
        series, notes = collect(fixture_run(), metrics)
    except DataError as exc:
        assert (code, err.getvalue()) == (1, f"error: --metrics: {exc}\n")
    else:
        assert code == 0
        payload = json.loads(out.getvalue())
        assert (payload["series"], payload["notes"]) == ([s.metric_name for s in series], notes)


def test_collect_order_stability():
    run, inputs = fixture_inputs()
    metrics = ["bleu", "ter-vs-ref", "rmss-vs-ref"]
    series_a, _ = collect(run, metrics, **inputs)
    series_b, _ = collect(run, list(reversed(metrics)), **inputs)
    assert [s.metric_name for s in series_a] == metrics
    assert [s.metric_name for s in series_b] == list(reversed(metrics))
    a_by_name = {s.metric_name: s for s in series_a}
    for s in series_b:
        assert s == a_by_name[s.metric_name]


def test_collect_takes_a_one_shot_iterator():
    run = fixture_run()
    metrics = ["bleu", "ter-vs-ref", "frs-vs-ref"]
    series, notes = collect(run, iter(metrics))
    assert [s.metric_name for s in series] == metrics and notes == []
    assert (series, notes) == collect(run, metrics)


def test_collect_matches_direct_ops():
    run, inputs = fixture_inputs()
    series, notes = collect(
        run, ["bleu", "frs-vs-ref", "ter-vs-ref", "rmss-vs-ref"], **inputs
    )
    assert notes == []
    by_name = {s.metric_name: s for s in series}

    for idx, ckpt in enumerate(run.checkpoints):
        direct = corpus_bleu(ckpt.hypotheses, run.reference).score
        assert by_name["bleu"].points[idx].value == pytest.approx(direct, abs=1e-9)

    for metric in ("frs-vs-ref", "ter-vs-ref"):
        assert by_name[metric].points == corpus_wordorder(run, metric, iterations=5).points

    for idx, ckpt in enumerate(run.checkpoints):
        direct = rmss(
            inputs["embeddings"]["ref.emb"],
            inputs["embeddings"][report.hyp_emb_name(ckpt)],
            2,
        ).mean
        assert by_name["rmss-vs-ref"].points[idx].value == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("name", ["run3", "cased", "blank"])
@pytest.mark.parametrize("lowercase", [False, True])
def test_bleu_series_equals_corpus_bleu_per_checkpoint(name, lowercase):
    run = load_run(DATA_DIR / name)
    # a checkpoint of the wrong length fails its check and scores nothing
    short = CheckpointRun("short", run.checkpoints[0].hypotheses[:-1])
    run = AnalysisRun(run.source, run.reference, run.checkpoints + (short,) + run.checkpoints)
    series, notes = collect(run, ["bleu"], lowercase=lowercase)
    assert notes == []
    want = []
    for ckpt in run.checkpoints:
        try:
            score = corpus_bleu(ckpt.hypotheses, run.reference, lowercase=lowercase).score
            want.append(SeriesPoint(ckpt.checkpoint_id, score, 0))
        except DataError:
            want.append(SeriesPoint(ckpt.checkpoint_id, None, len(run.reference)))
    assert series[0].points == tuple(want)


def test_bleu_series_counts_each_distinct_corpus_once(monkeypatch):
    interned = []
    intern = quality._intern

    def counting_intern(tokens, lowercase):
        interned.append(len(tokens))
        return intern(tokens, lowercase)

    monkeypatch.setattr(quality, "_intern", counting_intern)
    run = fixture_run()
    series, notes = collect(run, ["bleu"])
    assert notes == [] and len(series[0].points) == 3
    # checkpoint 000300 repeats the reference, so three distinct corpora are counted
    read = {run.reference, *(c.hypotheses for c in run.checkpoints)}
    assert len(read) == 3
    assert sum(interned) == sum(len(s) for corpus in read for s in corpus)


def test_collect_ter_trains_no_alignment(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("TER must not train IBM-1")

    monkeypatch.setattr("mtlens.wordorder.train_model1", no_training)
    monkeypatch.setattr("mtlens.align.train_model1", no_training)
    run = fixture_run()
    series, notes = collect(run, ["ter-vs-ref", "ter-vs-src"])
    assert notes == []
    assert [s.metric_name for s in series] == ["ter-vs-ref", "ter-vs-src"]
    assert all(p.value is not None for s in series for p in s.points)


def test_collect_frs_looks_up_no_table_probabilities(monkeypatch):
    run = fixture_run()
    want_series = wordorder_oracle.corpus_wordorder(run, "reference", iterations=5)[0]
    hyp = run.checkpoints[0].hypotheses
    oracle = model1_oracle.train_model1(hyp, run.reference, iterations=5)
    want_links = [model1_oracle.viterbi_align(oracle, h, o) for h, o in zip(hyp, run.reference)]

    def no_lookup(*args, **kwargs):
        raise AssertionError("training alignments must come from the link arrays")

    monkeypatch.setattr(TranslationTable, "prob_block", no_lookup)
    series, notes = collect(run, ["frs-vs-ref"], iterations=5)
    assert notes == []
    assert series == [want_series]
    assert list(train_model1(hyp, run.reference, iterations=5).alignments) == want_links


def test_collect_lrp_metrics_present():
    run, inputs = fixture_inputs()
    series, notes = collect(
        run, ["avg-src-contribution", "src-entropy", "tgt-entropy"], **inputs
    )
    assert notes == []
    assert [s.metric_name for s in series] == [
        "avg-src-contribution", "src-entropy", "tgt-entropy",
    ]
    for s in series:
        for point in s.points:
            assert point.value is not None
            assert point.value >= 0.0
    avg = {s.metric_name: s for s in series}["avg-src-contribution"]
    for point in avg.points:
        assert 0.0 <= point.value <= 1.0


def test_failing_relevance_pass_runs_once(monkeypatch):
    run, inputs = fixture_inputs()
    corpus_contributions = report.corpus_contributions
    calls = []

    def fails_at_last_checkpoint(model, vocab, sources, targets):
        calls.append(targets)
        if targets is run.checkpoints[-1].hypotheses:
            raise NumericError("relevance overflow")
        return corpus_contributions(model, vocab, sources, targets)

    monkeypatch.setattr(report, "corpus_contributions", fails_at_last_checkpoint)
    series, notes = collect(
        run, ["bleu", *RELEVANCE_METRICS], model=inputs["model"], vocab=inputs["vocab"]
    )
    assert calls == [c.hypotheses for c in run.checkpoints]
    assert [s.metric_name for s in series] == ["bleu"]
    assert notes == [
        "avg-src-contribution: skipped (relevance overflow)",
        "src-entropy: skipped (relevance overflow)",
        "tgt-entropy: skipped (relevance overflow)",
    ]


def _series(name, values):
    return MetricSeries(
        metric_name=name,
        points=tuple(SeriesPoint(f"c{i}", v, 0) for i, v in enumerate(values)),
    )


def test_emit_csv_row_count(tmp_path):
    p = tmp_path / "out.csv"
    emit_csv([_series("m1", [1.0, 2.0])], p)
    lines = p.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "checkpoint,m1"


def test_emit_csv_empty_cell_for_absent(tmp_path):
    p = tmp_path / "out.csv"
    emit_csv([_series("m1", [1.0, None]), _series("m2", [None, 4.0])], p)
    lines = p.read_text().splitlines()
    assert lines[1] == "c0,1,"
    assert lines[2] == "c1,,4"


def test_emit_csv_roundtrip_precision(tmp_path):
    values = [0.123456789012345, 99.99999999, 3.0000000001e-4]
    p = tmp_path / "out.csv"
    emit_csv([_series("m", values)], p)
    lines = p.read_text().splitlines()[1:]
    for line, want in zip(lines, values):
        got = float(line.split(",")[1])
        assert got == pytest.approx(want, abs=1e-9)


def test_emit_svg_wellformed(tmp_path):
    p = tmp_path / "out.svg"
    emit_svg([_series("m1", [1.0, 2.0, 1.5]), _series("m2", [0.1, 0.4, 0.2])], p)
    root = ET.parse(p).getroot()
    assert root.tag.endswith("svg")
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 2
    assert root.get("viewBox") == "0 0 800 800"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text())
@example("a & b < c > d &amp; ]]> \"'")
def test_escape_equals_saxutils(text):
    assert report.escape(text) == sax_escape(text)


def _xml_char(c):
    """XML 1.0's Char production."""
    return c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.text(min_size=1), min_size=1, max_size=3))
@example(["ck\x01pt"])
@example(["a<b", "c&d", "\ufffe"])
def test_emit_svg_parses_or_refuses(tmp_path_factory, ids):
    path = tmp_path_factory.mktemp("svg") / "out.svg"
    series = MetricSeries("m", tuple(SeriesPoint(c, 1.0, 0) for c in ids))
    if not all(map(_xml_char, "".join(ids))):
        with pytest.raises(DataError, match="cannot carry"):
            emit_svg([series], path)
        assert not path.exists()
        return
    emit_svg([series], path)
    labels = [e.text for e in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
    # an XML parser reads CR and CRLF as LF
    assert [c.replace("\r\n", "\n").replace("\r", "\n") for c in ids] == labels[3:3 + len(ids)]


# values as a series holds them: undefined, tiny, ordinary and near the float range's ends
CHART_VALUES = st.one_of(st.none(), st.sampled_from([0.0, -0.5, 3.0, 1e-300, 1e300, -1e300]),
                         st.floats(-1e300, 1e300), st.floats(9e299, 1e300))
CHART_NAMES = st.text(st.sampled_from("&<>a;# é"), max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(name=CHART_NAMES, offset=st.integers(0, 4000),
       points=st.lists(st.tuples(CHART_NAMES, CHART_VALUES), min_size=1, max_size=12))
@example(name="a&b<c>", offset=0, points=[("<1&2>", None)] * 3)
@example(name="const", offset=400, points=[("c", 2.5)] * 12)
@example(name="ends", offset=0, points=[("lo", -1e300), ("hi", 1e300), ("x", None)])
def test_chart_equals_oracle(name, offset, points):
    series = MetricSeries(name, tuple(SeriesPoint(c, v, 0) for c, v in points))
    assert report._chart(series, offset) == report_oracle._chart(series, offset)


def test_emit_empty_rejected(tmp_path):
    with pytest.raises(DataError):
        emit_csv([], tmp_path / "x.csv")
    with pytest.raises(DataError):
        emit_svg([], tmp_path / "x.svg")


def test_lrp_series_skips_empty_sentences():
    _, inputs = fixture_inputs()
    ref = make_corpus(["ra re", ""])
    src = make_corpus(["ka ke", "ko"])
    hyp = make_corpus(["ra re", ""])
    run = AnalysisRun(source=src, reference=ref, checkpoints=(CheckpointRun("c1", hyp),))
    series, notes = collect(run, ["avg-src-contribution"], **inputs)
    assert notes == []
    point = series[0].points[0]
    assert point.skip_count == 1
    assert point.value is not None
