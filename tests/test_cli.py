import csv
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys

import pytest

from mtlens.cli import main
from mtlens.corpus import load_run
from mtlens.report import RELEVANCE_METRICS, collect
from mtlens.transformer import load_model, load_vocab, save_model

from conftest import DATA_DIR

SRC_DIR = DATA_DIR.parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text, encoding="utf-8")


def test_bleu_identity(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    write(ref, "the cat sat on the mat\nrain falls on green hills\n")
    code, out, _ = run_cli(capsys, "bleu", str(ref), str(ref))
    assert code == 0
    payload = json.loads(out)
    assert payload["score"] == pytest.approx(100.0, abs=1e-9)
    assert payload["bp"] == 1.0


def test_missing_file_is_data_error(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    write(ref, "a b\n")
    code, out, err = run_cli(capsys, "ter", str(tmp_path / "missing.txt"), str(ref))
    assert code == 2
    assert out == ""
    assert "missing.txt" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_failure_names_the_file(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    write(hyp, "a b\nb a\n")
    code, out, err = run_cli(capsys, "align", str(hyp), str(hyp), "--out", "/dev/full")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write /dev/full: ")
    assert err.count("\n") == 1


def test_unknown_subcommand_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0


def test_perturb_requires_seed(tmp_path, capsys):
    f = tmp_path / "in.txt"
    write(f, "a b\n")
    code, _, _ = run_cli(
        capsys, "perturb", "--kind", "misspelling", "--prob", "0.1",
        str(f), str(tmp_path / "out.txt"),
    )
    assert code == 1


def test_perturb_replay_identical(tmp_path, capsys):
    f = tmp_path / "in.txt"
    write(f, "alpha beta gamma delta\nepsilon zeta eta theta\n")
    out1 = tmp_path / "out1.txt"
    out2 = tmp_path / "out2.txt"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys, "perturb", "--kind", "misspelling", "--prob", "0.5",
            "--seed", "7", str(f), str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_perturb_case_alias(tmp_path, capsys):
    f = tmp_path / "in.txt"
    write(f, "Mixed Case line\n")
    code, _, _ = run_cli(
        capsys, "perturb", "--kind", "case", "--prob", "1.0", "--seed", "3",
        str(f), str(tmp_path / "out.txt"),
    )
    assert code == 0


def test_ter_json(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    write(hyp, "a b c\n")
    write(ref, "a c\n")
    code, out, _ = run_cli(capsys, "ter", str(hyp), str(ref), "--per-sentence")
    assert code == 0
    payload = json.loads(out)
    assert payload["mean_ter"] == pytest.approx(0.5)
    assert payload["sentences"][0]["edits"] == 1


def test_align_and_frs_pipeline(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    other = tmp_path / "other.txt"
    write(hyp, "a b c\na d e\nb d f\nc e f\n")
    write(other, "x y z\nx q w\ny q v\nz w v\n")
    aln = tmp_path / "out.aln"
    code, out, _ = run_cli(capsys, "align", str(hyp), str(other), "--iters", "8",
                           "--out", str(aln))
    assert code == 0
    assert aln.exists()
    code, out, _ = run_cli(capsys, "frs", str(hyp), str(other), "--align", str(aln))
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert 0.0 <= payload["mean_frs"] <= 1.0


def test_rmss_cli(tmp_path, capsys):
    emb = tmp_path / "x.emb"
    write(emb, "2 2\n1 0\n0 1\n")
    code, out, _ = run_cli(capsys, "rmss", "--k", "1", str(emb), str(emb))
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == pytest.approx(1.0)
    assert payload["skipped"] == 0


def test_lrp_cli(tmp_path, capsys):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    write(src, "ka ke\n")
    write(tgt, "ra re\n")
    code, out, _ = run_cli(
        capsys, "lrp",
        "--model", str(DATA_DIR / "fixture.wts"),
        "--vocab", str(DATA_DIR / "vocab.txt"),
        str(src), str(tgt),
    )
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(l) for l in lines]
    assert "summary" in records[-1]
    steps = records[:-1]
    assert len(steps) == 2
    assert steps[0]["step"] == 1
    assert steps[0]["r_source"] == pytest.approx(1.0, abs=1e-6)
    assert steps[0]["target_rel"] == []
    total = steps[1]["r_source"] + steps[1]["r_target"]
    assert total == pytest.approx(1.0, abs=1e-6)


def test_robust_cli_csv(tmp_path, capsys):
    def make_run(dirname, hyp_lines):
        d = tmp_path / dirname
        (d / "checkpoints" / "c1").mkdir(parents=True)
        write(d / "src.txt", "s one two\ns three four\n")
        write(d / "ref.txt", "the cat sat on the mat\nrain falls on green hills\n")
        write(d / "checkpoints" / "c1" / "hyp.txt", "\n".join(hyp_lines) + "\n")
        return d

    clean = make_run("clean", ["the cat sat on the mat", "rain falls on green hills"])
    pert = make_run("pert", ["the cat sat on a mat", "rain falls on green hills"])
    code, out, _ = run_cli(
        capsys, "robust", "--clean", str(clean),
        "--perturbed", f"misspelling={pert}",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "checkpoint,kind,bleu_clean,bleu_pert,R,R_raw,C"
    fields = lines[1].split(",")
    assert fields[0] == "c1"
    assert fields[1] == "misspelling"
    assert float(fields[2]) == pytest.approx(100.0)
    assert 0.0 <= float(fields[4]) <= 1.0


def test_report_cli_full_fixture(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    svg_path = tmp_path / "series.svg"
    code, out, _ = run_cli(
        capsys, "report", str(DATA_DIR / "run3"),
        "--metrics", "bleu,frs-vs-ref,ter-vs-ref,rmss-vs-ref,avg-src-contribution",
        "--csv", str(csv_path), "--svg", str(svg_path),
        "--embeddings", str(DATA_DIR / "emb3"),
        "--model", str(DATA_DIR / "fixture.wts"),
        "--vocab", str(DATA_DIR / "vocab.txt"),
        "--iters", "5", "--k", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["notes"] == []
    assert csv_path.exists() and svg_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("checkpoint,bleu,")
    assert len(lines) == 4  # header + 3 checkpoints


def test_threads_validation(capsys):
    # report has no --threads option: it is a usage error, not a traceback
    code, _, err = run_cli(capsys, "report", "somewhere", "--threads", "1")
    assert code == 1
    assert "Traceback" not in err


def test_format_text_headline(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    write(ref, "a b c d e\n")
    code, out, _ = run_cli(capsys, "bleu", str(ref), str(ref), "--format", "text")
    assert code == 0
    assert float(out.strip()) == pytest.approx(100.0)


def test_numeric_failure_exit_code(tmp_path, capsys):
    from mtlens.transformer import init_model

    m = init_model(layers=1, heads=1, dim=4, ffn=8, vocab_size=8, seed=0)
    m.weights["embedding"] = m.weights["embedding"] * 1e200  # overflow bait
    wts = tmp_path / "hot.wts"
    save_model(m, wts)
    vocab = tmp_path / "v.txt"
    write(vocab, "<bos>\n<eos>\n<unk>\n<pad>\nka\nra\n")
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    write(src, "ka\n")
    write(tgt, "ra\n")
    code, out, err = run_cli(
        capsys, "lrp", "--model", str(wts), "--vocab", str(vocab),
        str(src), str(tgt),
    )
    assert code == 3
    assert "non-finite" in err


def test_numeric_failure_prints_one_line_and_no_warning(tmp_path):
    # every weight is finite, but each logit sums products of 1e308
    model = load_model(DATA_DIR / "fixture.wts")
    model.weights["out_w"][:] = 1e308
    wts = tmp_path / "hot.wts"
    save_model(model, wts)
    run = DATA_DIR / "run3"
    argv = ["lrp", "--model", str(wts), "--vocab", str(DATA_DIR / "vocab.txt"),
            str(run / "src.txt"), str(run / "ref.txt")]
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "from mtlens.cli import entry; entry()", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: step 1: non-finite logits in forward pass\n"


def test_allocation_failure_prints_one_line(tmp_path):
    # one attention's scores over a 12,000-token source take 2.3 GB, and the
    # child alone may map 1 GiB; one BLAS thread keeps its start-up small
    (tmp_path / "long.txt").write_text(" ".join(["ka"] * 12000) + "\n", encoding="utf-8")
    argv = ["lrp", "--model", str(DATA_DIR / "fixture.wts"), "--vocab",
            str(DATA_DIR / "vocab.txt"), str(tmp_path / "long.txt"), str(tmp_path / "long.txt")]
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-c", "from mtlens.cli import entry; entry()", *argv],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap_address_space, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


def test_numeric_failure_names_the_oracles_step(tmp_path, capsys):
    import warnings

    import lrp_oracle
    from mtlens.corpus import load_corpus
    from mtlens.errors import NumericError
    from mtlens.transformer import init_model, load_model, load_vocab, save_model

    # only the target's third token overflows, so steps 1-3 pass and the
    # full teacher-forced pass is non-finite in every decoder row
    m = init_model(layers=1, heads=1, dim=4, ffn=8, vocab_size=8, seed=0)
    m.weights["embedding"][5] = 1e308
    wts = tmp_path / "hot.wts"
    save_model(m, wts)
    vocab = tmp_path / "v.txt"
    write(vocab, "<bos>\n<eos>\n<unk>\n<pad>\nka\nra\nmi\n")
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    write(src, "ka mi\n")
    write(tgt, "mi mi ra mi ka\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericError) as oracle:
            lrp_oracle.contributions(
                load_model(wts), load_corpus(src)[0], load_corpus(tgt)[0], load_vocab(vocab)
            )
        code, out, err = run_cli(
            capsys, "lrp", "--model", str(wts), "--vocab", str(vocab),
            str(src), str(tgt),
        )
    assert str(oracle.value) == "step 4: non-finite activation in decoder"
    assert code == 3
    assert out == ""
    assert err == f"error: {oracle.value}\n"


def _weights(edit):
    return edit((DATA_DIR / "fixture.wts").read_text(encoding="utf-8")).encode("utf-8")


def _weight_row(lineno, edit):
    def apply(text):
        lines = text.split("\n")
        lines[lineno - 1] = edit(lines[lineno - 1])
        return "\n".join(lines)

    return _weights(apply)


LRP_MODEL = ["lrp", "--model", "BAD", "--vocab", str(DATA_DIR / "vocab.txt"), "SRC", "SRC"]

# argv with BAD for the malformed file, that file's bytes, and what the error names
BAD_LOADER_INPUTS = {
    "weights-config-not-int": (
        LRP_MODEL, _weights(lambda t: t.replace("layers 2", "layers x")), "line 2",
    ),
    "weights-row-not-float": (
        LRP_MODEL,
        _weights(lambda t: t.replace("0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0", "1 zz", 1)),
        "line 8",
    ),
    "weights-row-too-short": (  # line 17 is the second of the 16 rows of dec0_cross_wk
        LRP_MODEL,
        _weight_row(17, lambda row: row.rsplit(" ", 1)[0]),
        "line 17: expected 16 values, got 15",
    ),
    "weights-row-too-long": (
        LRP_MODEL, _weight_row(17, lambda row: row + " 0.5"), "line 17: expected 16 values, got 17",
    ),
    "weights-zero-heads": (
        LRP_MODEL, _weights(lambda t: t.replace("heads 2", "heads 0")), "positive",
    ),
    "weights-huge-layer-count": (  # validation work grows with the arrays present
        LRP_MODEL,
        b"mtlens-weights 1\nlayers 1000000000\nheads 2\ndim 16\nffn 32\nvocab 32\n",
        "missing weight array 'embedding'",
    ),
    "weights-array-cut-short": (
        LRP_MODEL,
        _weights(lambda t: t[: t.index("array dec0_cross_wk")] + "array dec0_cross_wk 16 16\n"),
        "end of file",
    ),
    "weights-not-utf8": (
        LRP_MODEL, _weights(lambda t: t).replace(b"layers 2", b"layers \xff"), "line 2",
    ),
    "vocab-not-utf8": (
        ["lrp", "--model", str(DATA_DIR / "fixture.wts"), "--vocab", "BAD", "SRC", "SRC"],
        b"<bos>\n<eos>\n<unk>\n<pad>\nk\xe9\n",
        "line 5",
    ),
    "align-not-utf8": (
        ["frs", "SRC", "SRC", "--align", "BAD"], b"0-0 1-1\n0-0 \xff-1\n", "line 2",
    ),
    "emb-not-utf8": (["rmss", "--k", "1", "BAD", "EMB"], b"2 2\n1 0\n0 \xff\n", "line 3"),
    "emb-dim-too-large": (
        ["rmss", "--k", "1", "BAD", "EMB"], b"0 99999999999999999999\n", "bad header counts",
    ),
    "emb-row-after-blank": (["rmss", "--k", "1", "BAD", "EMB"], b"2 2\n1 0\n0 1\n\n5 5\n", "line 5"),
    "align-link-out-of-range": (["frs", "SRC", "SRC", "--align", "BAD"], b"0-0 1-1\n9-0\n", "line 2"),
}


@pytest.mark.parametrize("case", sorted(BAD_LOADER_INPUTS))
def test_bad_loader_input_is_data_error(tmp_path, capsys, case):
    argv, data, named = BAD_LOADER_INPUTS[case]
    paths = {"BAD": tmp_path / "bad.input", "SRC": tmp_path / "src.txt", "EMB": tmp_path / "good.emb"}
    paths["BAD"].write_bytes(data)
    write(paths["SRC"], "ka ke\nra re\n")
    write(paths["EMB"], "2 2\n1 0\n0 1\n")
    code, _, err = run_cli(capsys, *[str(paths.get(a, a)) for a in argv])
    assert code == 2
    assert str(paths["BAD"]) in err and named in err
    assert "Traceback" not in err


def test_report_loads_only_requested_inputs(tmp_path, capsys):
    emb = tmp_path / "emb"
    emb.mkdir()
    write(emb / "ref.emb", "not an embedding file\n")
    bad_model = tmp_path / "bad.wts"
    write(bad_model, "mtlens-weights 1\nlayers x\n")
    code, out, err = run_cli(
        capsys, "report", str(DATA_DIR / "run3"), "--metrics", "bleu",
        "--embeddings", str(emb), "--model", str(bad_model),
        "--vocab", str(DATA_DIR / "vocab.txt"),
    )
    assert code == 0, err
    assert json.loads(out)["series"] == ["bleu"]


def _run_dir(root, ref_lines, hyps):
    (root / "checkpoints").mkdir(parents=True)
    write(root / "src.txt", "".join(f"s{i} t{i}\n" for i in range(len(ref_lines))))
    write(root / "ref.txt", "".join(line + "\n" for line in ref_lines))
    for ckpt_id, lines in hyps.items():
        (root / "checkpoints" / ckpt_id).mkdir()
        write(root / "checkpoints" / ckpt_id / "hyp.txt", "".join(l + "\n" for l in lines))
    return root


def test_report_ter_defined_when_no_pair_aligns(tmp_path, capsys):
    ref = ["a b c", "d e f"]
    run = _run_dir(tmp_path / "run", ref, {"c1": ["", ""], "c2": ref})
    csv = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, "report", str(run), "--csv", str(csv))
    assert code == 0, err
    code, out, _ = run_cli(
        capsys, "ter", str(run / "checkpoints" / "c1" / "hyp.txt"), str(run / "ref.txt")
    )
    assert code == 0
    assert json.loads(out)["mean_ter"] == 1.0
    assert csv.read_text().splitlines()[1] == "c1,0,,1"  # checkpoint,bleu,frs,ter


def test_frs_untrainable_bitext_is_undefined(tmp_path, capsys):
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    # no pair has tokens on both sides, so IBM-1 has nothing to train on
    for hyp_text, ref_text in (("a b\nc\n", "\n\n"), ("\n\n", "a b\nc d\n")):
        write(hyp, hyp_text)
        write(ref, ref_text)
        code, out, err = run_cli(capsys, "frs", str(hyp), str(ref))
        assert code == 0, err
        assert json.loads(out) == {"mean_frs": None, "count": 0, "skipped": 2}
        code, _, err = run_cli(capsys, "align", str(hyp), str(ref))
        assert code == 2 and "empty bitext" in err
        # a bad --iters is named before the bitext is looked at
        for command in ("frs", "align"):
            code, _, err = run_cli(capsys, command, str(hyp), str(ref), "--iters", "0")
            assert code == 2 and "need at least one EM iteration" in err, err
            assert "Traceback" not in err


def test_report_zero_iterations_noted(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    code, out, err = run_cli(
        capsys, "report", str(DATA_DIR / "run3"), "--iters", "0", "--csv", str(csv)
    )
    assert code == 0
    payload = json.loads(out)
    # TER trains nothing, so only FRS is dropped
    assert payload["series"] == ["bleu", "ter-vs-ref"]
    assert payload["notes"] == ["frs-vs-ref: skipped (need at least one EM iteration)"]
    assert err == payload["notes"][0] + "\n"
    assert run_cli(capsys, "frs", str(csv), str(csv), "--iters", "0")[0] == 2


def test_report_repeated_metric_is_usage_error(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    cases = (("bleu,bleu,ter-vs-ref", "bleu"), ("ter-vs-ref, bleu,ter-vs-ref", "ter-vs-ref"))
    for metrics, name in cases:
        code, out, err = run_cli(
            capsys, "report", str(DATA_DIR / "run3"), "--metrics", metrics, "--csv", str(csv)
        )
        assert (code, out) == (1, "")
        assert err == f"error: --metrics: metric {name!r} given more than once\n"
        assert not csv.exists()


def _close(got, want):
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_close, got, want))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)
    return got == want


def _json_docs(text):
    """One JSON document, or JSON lines."""
    try:
        return json.loads(text)
    except ValueError:
        return [json.loads(line) for line in text.splitlines()]


def test_golden_cli_replay(tmp_path, capsys, monkeypatch):
    """Every command in golden_cli.json (see gen_fixtures.py) still prints,
    exits and writes what it did when the snapshot was taken."""
    monkeypatch.setenv("COLUMNS", "80")
    swaps = {"{DATA}": str(DATA_DIR), "{OUT}": str(tmp_path)}

    def fill(text):
        for key, value in swaps.items():
            text = text.replace(key, value)
        return text

    cases = json.loads((DATA_DIR / "golden_cli.json").read_text(encoding="utf-8"))
    written = set()
    for case in cases:
        argv = [fill(a) for a in case["argv"]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (case["exit"], fill(case["stderr"])), argv
        got = {"stdout": out}
        want = {"stdout": fill(case["stdout"])}
        for name, text in case["files"].items():
            got[name] = (tmp_path / name).read_bytes().decode("utf-8")
            want[name] = fill(text)
        written.update(case["files"])
        for key in want:
            if case["approx"]:
                assert _close(_json_docs(got[key]), _json_docs(want[key])), (argv, key)
            else:
                assert got[key] == want[key], (argv, key)
    assert {p.name for p in tmp_path.iterdir()} == written


def test_robust_repeated_kind_is_usage_error(tmp_path, capsys):
    ref = ["a b c", "d e f"]
    clean = _run_dir(tmp_path / "clean", ref, {"c1": ref})
    pert_x = _run_dir(tmp_path / "x" / "noise", ref, {"c1": ["a b d", "d e f"]})
    pert_y = _run_dir(tmp_path / "y" / "noise", ref, {"c1": ref})
    # an explicit kind, and two bare dirs with the same basename
    for kind, first, second in (("case", f"case={pert_x}", f"case={pert_y}"),
                                ("noise", str(pert_x), str(pert_y))):
        code, out, err = run_cli(
            capsys, "robust", "--clean", str(clean), "--perturbed", first, "--perturbed", second,
        )
        assert (code, out) == (1, "")
        assert err == f"error: --perturbed: kind {kind!r} given more than once\n"


def test_robust_empty_kind_is_usage_error(tmp_path, capsys):
    ref = ["a b c", "d e f"]
    clean = _run_dir(tmp_path / "clean", ref, {"c1": ref})
    for item in (f"={clean}", "="):
        code, out, err = run_cli(capsys, "robust", "--clean", str(clean), "--perturbed", item)
        assert (code, out) == (1, "")
        assert err == f"error: --perturbed: empty kind in {item!r}\n"


def test_undefined_headline(tmp_path, capsys):
    # every reference line is empty, so no sentence has a TER or FRS
    hyp, ref, aln = tmp_path / "hyp.txt", tmp_path / "ref.txt", tmp_path / "a.aln"
    write(hyp, "a b\nc\n")
    write(ref, "\n\n")
    write(aln, "\n\n")
    for argv in (["ter"], ["frs", "--align", str(aln)]):
        argv += [str(hyp), str(ref), "--format"]
        assert run_cli(capsys, *argv, "text") == (0, "\n", "")
        code, out, _ = run_cli(capsys, *argv, "json")
        assert code == 0 and json.loads(out)[f"mean_{argv[0]}"] is None


def test_report_notes_precede_emission_error(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "report", str(DATA_DIR / "run3"), "--metrics", "rmss-vs-ref",
        "--csv", str(tmp_path / "out.csv"),
    )
    assert (code, out) == (2, "")
    assert err == "rmss-vs-ref: skipped (missing ref embeddings)\nerror: no series to emit\n"


def test_report_unknown_metric_is_usage_error(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    # named before the run directory is read, so a missing one does not hide it
    for run in (DATA_DIR / "run3", tmp_path / "missing"):
        code, out, err = run_cli(
            capsys, "report", str(run), "--metrics", "bleu,foo", "--csv", str(csv_path)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: --metrics: unknown metric 'foo'; known: bleu, ")
        assert not csv_path.exists()


def test_csv_cells_with_commas_read_back(tmp_path, capsys):
    comma = str(DATA_DIR / "comma")
    csv_path = tmp_path / "comma.csv"
    code, _, _ = run_cli(capsys, "report", comma, "--metrics", "bleu", "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [["checkpoint", "bleu"], ["a,b", "100"]]
    code, out, _ = run_cli(capsys, "robust", "--clean", comma, "--perturbed", f"x,y={comma}")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[0] == ["checkpoint", "kind", "bleu_clean", "bleu_pert", "R", "R_raw", "C"]
    assert rows[1] == ["a,b", "x,y", "100", "100", "1", "1", "100"]


def test_lrp_summary_has_one_shape(tmp_path, capsys):
    model = ["--model", str(DATA_DIR / "fixture.wts"), "--vocab", str(DATA_DIR / "vocab.txt")]
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    write(src, "ka ke\n\n")
    summaries = []
    for text in ("ra re\n\n", "\n\n"):  # one pair scored, then none
        write(tgt, text)
        code, out, _ = run_cli(capsys, "lrp", *model, str(src), str(tgt))
        assert code == 0
        summaries.append(json.loads(out.splitlines()[-1]))
    scored, empty = summaries
    assert list(scored) == list(empty) == ["summary"]
    assert list(scored["summary"]) == list(empty["summary"])
    assert scored["summary"]["skipped_sentences"] == 1
    assert empty["summary"] == {
        "avg_source_contribution": None, "source_entropy": None, "target_entropy": None,
        "steps": 0, "target_steps": 0, "skipped_sentences": 2,
    }


def test_stdout_is_utf8_under_an_ascii_locale(tmp_path):
    ref = ["a b c d", "e f g h"]
    run = _run_dir(tmp_path / "run", ref, {"қаз": ref})
    out_path = tmp_path / "table.csv"
    argv = ["robust", "--clean", str(run), "--perturbed", str(run)]
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": path}
    runs = [
        subprocess.run(
            [sys.executable, "-c", "from mtlens.cli import entry; entry()", *argv, *extra],
            env=env, capture_output=True, timeout=60,
        )
        for extra in ([], ["--out", str(out_path)])
    ]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, b""), (0, b"")]
    assert runs[0].stdout == out_path.read_bytes()
    assert "қаз,run," in runs[0].stdout.decode("utf-8")


def test_importing_mtlens_loads_no_network_or_xml_modules():
    # xml.sax.saxutils alone pulled in urllib.request, http.client, ssl,
    # socket and email, about 7 MB of every process's resident memory
    heavy = ("ssl", "socket", "http.client", "urllib.request", "email", "xml.sax")
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import mtlens\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        "import mtlens.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    package, with_cli = map(json.loads, done.stdout.splitlines())
    assert "mtlens.report" in package and "mtlens.cli" in with_cli
    for loaded in (package, with_cli):
        assert [m for m in loaded if m in heavy or m.startswith("xml.sax.")] == []


def test_report_svg_refuses_a_checkpoint_name_xml_cannot_carry(tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(DATA_DIR / "run3", run)
    os.rename(run / "checkpoints" / "000200", run / "checkpoints" / "ck\x01pt")
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    code, out, err = run_cli(
        capsys, "report", str(run), "--metrics", "bleu", "--csv", str(csv_path),
        "--svg", str(svg_path),
    )
    assert (code, out) == (2, "")
    assert err == "error: checkpoint name 'ck\\x01pt' holds U+0001, which an SVG (XML 1.0) cannot carry\n"
    assert not csv_path.exists() and not svg_path.exists()
    # a CSV cell carries the name
    code, _, err = run_cli(capsys, "report", str(run), "--metrics", "bleu", "--csv", str(csv_path))
    assert (code, err) == (0, "")
    assert "ck\x01pt," in csv_path.read_text(encoding="utf-8")


def test_colliding_outputs_exit_before_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    emb = str(DATA_DIR / "emb3" / "ref.emb")
    cases = (
        (["report", str(DATA_DIR / "run3"), "--metrics", "bleu", "--csv", "F", "--svg", "G",
          "--out", "./F"], "error: --csv and --out both write ./F\n"),
        (["rmss", emb, emb, "--per-sentence", str(tmp_path / "F"), "--out", "F"],
         "error: --per-sentence and --out both write F\n"),
    )
    for argv, message in cases:
        assert run_cli(capsys, *argv) == (1, "", message)
        assert list(tmp_path.iterdir()) == []
    # an empty path is not given, so it collides with nothing
    code, _, _ = run_cli(capsys, "report", str(DATA_DIR / "run3"), "--metrics", "bleu",
                         "--csv", "", "--svg", "", "--out", "")
    assert code == 0


def test_robust_bare_directory_with_equals_sign(tmp_path, capsys):
    run = DATA_DIR / "run3"
    bare = tmp_path / "x" / "a=b"
    shutil.copytree(run, bare)
    code, out, err = run_cli(capsys, "robust", "--clean", str(run), "--perturbed", str(bare))
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert [row[1] for row in rows[1:]] == ["a=b"] * 3
    # KIND=DIR still splits where the kind holds no "/"
    code, out, _ = run_cli(capsys, "robust", "--clean", str(run), "--perturbed", f"k={bare}")
    assert code == 0 and out.splitlines()[1].split(",")[1] == "k"


def test_report_notes_embeddings_that_do_not_cover_the_run(tmp_path, capsys):
    short = tmp_path / "emb"
    for rel in ["ref.emb", "src.emb"] + [f"checkpoints/{c}/hyp.emb"
                                         for c in ("000100", "000200", "000300")]:
        (short / rel).parent.mkdir(parents=True, exist_ok=True)
        lines = (DATA_DIR / "emb3" / rel).read_text(encoding="utf-8").splitlines()
        write(short / rel, f"5 {lines[0].split()[1]}\n" + "".join(l + "\n" for l in lines[1:6]))
    code, out, err = run_cli(
        capsys, "report", str(DATA_DIR / "run3"), "--embeddings", str(short),
        "--metrics", "bleu,rmss-vs-ref", "--k", "2",
    )
    assert code == 0
    note = "rmss-vs-ref: skipped (ref.emb holds 5 vectors for 12 sentences)"
    assert err == note + "\n"
    assert json.loads(out)["series"] == ["bleu"]
    # one short checkpoint file is enough
    write(short / "ref.emb", (DATA_DIR / "emb3" / "ref.emb").read_text(encoding="utf-8"))
    code, out, err = run_cli(
        capsys, "report", str(DATA_DIR / "run3"), "--embeddings", str(short),
        "--metrics", "rmss-vs-ref", "--k", "2",
    )
    assert (code, err) == (0, "rmss-vs-ref: skipped (checkpoints/000100/hyp.emb holds 5 vectors"
                               " for 12 sentences)\n")


def test_lrp_summary_equals_report_relevance_cells(capsys):
    model = ["--model", str(DATA_DIR / "fixture.wts"), "--vocab", str(DATA_DIR / "vocab.txt")]
    run = load_run(DATA_DIR / "run3")
    series, notes = collect(run, RELEVANCE_METRICS, model=load_model(DATA_DIR / "fixture.wts"),
                            vocab=load_vocab(DATA_DIR / "vocab.txt"))
    assert notes == []
    src = str(DATA_DIR / "run3" / "src.txt")
    for row, ckpt in enumerate(run.checkpoints):
        hyp = DATA_DIR / "run3" / "checkpoints" / ckpt.checkpoint_id / "hyp.txt"
        code, out, _ = run_cli(capsys, "lrp", *model, src, str(hyp))
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["summary"]
        cells = {s.metric_name: s.points[row] for s in series}
        assert summary["avg_source_contribution"] == cells["avg-src-contribution"].value
        assert summary["source_entropy"] == cells["src-entropy"].value
        assert summary["target_entropy"] == cells["tgt-entropy"].value
        assert {p.skip_count for p in cells.values()} == {summary["skipped_sentences"]}
