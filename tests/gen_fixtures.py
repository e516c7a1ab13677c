"""Regenerate the committed test fixtures under tests/data/.

Run from the repository root:

    PYTHONPATH=src python3 tests/gen_fixtures.py

Everything is seeded, so reruns reproduce the same bytes. Golden
logits come from the independent reference forward pass in
naive_transformer.py. golden_lrp.json is not regenerated: it is a
frozen snapshot of the relevance pipeline as it ran one pass per step,
and it stays the oracle the one-pass pipeline must meet at atol 1e-6.

golden_cli.json records, for each command in GOLDEN_CLI, the argv,
exit code, stdout, stderr and the files it wrote (decoded as they are,
so a CR in a file shows), with {DATA} standing for this data
directory and {OUT} for an empty output directory.
test_cli.py replays it with COLUMNS=80, so help and usage text wrap
the same way. Commands marked approx print values that pass through
BLAS products; the replay compares them as parsed JSON within 1e-12.
"""

import contextlib
import dataclasses
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from mtlens.cli import main as cli_main
from mtlens.corpus import Sentence, load_corpus, write_text
from mtlens.perturb import PerturbationKind, PerturbationSpec, perturb_corpus
from mtlens.rng import SplitMix64
from mtlens.semsim import embedding_set, save_embeddings
from mtlens.transformer import build_vocab, init_model, load_model, save_model, save_vocab

from naive_transformer import naive_forward

DATA = Path(__file__).parent / "data"

EMB_DIM = 8

REF_VOCAB = ["ra", "re", "ri", "ro", "ru", "ma", "me", "mi", "mo", "mu"]
SRC_VOCAB = ["ka", "ke", "ki", "ko", "ku", "na", "ne", "ni", "no", "nu"]


def rotated_lines(vocab, count):
    lines = []
    n = len(vocab)
    for i in range(count):
        lines.append(
            " ".join(vocab[(i + off) % n] for off in (0, 1, 3, 7))
        )
    return lines


def degrade(lines, vocab, n_subs, n_swaps, seed):
    rng = SplitMix64(seed)
    out = []
    for line in lines:
        toks = line.split()
        for _ in range(n_subs):
            if rng.random() < 0.5:
                toks[rng.randrange(len(toks))] = vocab[rng.randrange(len(vocab))]
        for _ in range(n_swaps):
            if rng.random() < 0.5:
                a = rng.randrange(len(toks))
                b = rng.randrange(len(toks))
                toks[a], toks[b] = toks[b], toks[a]
        out.append(" ".join(toks))
    return out


def write_lines(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text(path, "".join(f"{line}\n" for line in lines))


def label_seed(label):
    # deterministic across processes, unlike hash()
    acc = 0
    for ch in label:
        acc = (acc * 131 + ord(ch)) & 0xFFFFFFFF
    return acc


def corpus_embeddings(lines, label):
    rows = []
    for idx, _ in enumerate(lines):
        rng = SplitMix64(label_seed(label) * 10007 + idx)
        rows.append([rng.random() + 0.05 for _ in range(EMB_DIM)])
    return embedding_set(rows)


RUN = "{DATA}/run3"
HYP = RUN + "/checkpoints/000100/hyp.txt"
REF = RUN + "/ref.txt"
SRC = RUN + "/src.txt"
# run3's sources and checkpoint ids, with every ref.txt and hyp.txt line blank
BLANK = "{DATA}/blank"
# run3's first checkpoint with every third line blank, so those pairs are untrainable
HOLES = BLANK + "/holes.txt"
# one checkpoint whose id holds a comma, so CSV cells must be quoted
COMMA = "{DATA}/comma"
# run3 with every hypothesis misspelled or re-cased, as if decoded from a perturbed source
MISSPELLED = "{DATA}/misspelled"
CASED = "{DATA}/cased"
# run3's first five sentences: a perturbed run too short to pair with run3
SHORT = "{DATA}/short"
# runs laid out wrong: no checkpoints/, a file beside the checkpoint
# directories, a checkpoint directory without hyp.txt
LAYOUTS = "{DATA}/layouts"
# embedding and weight files whose headers or arrays a loader refuses
MALFORMED = "{DATA}/malformed"
# emb3 without checkpoint 000300's hyp.emb
EMB_PARTIAL = "{DATA}/emb_partial"
# emb3 with 11 vectors in checkpoint 000200's hyp.emb, and emb3 without src.emb
EMB_SHORT_HYP = "{DATA}/emb_short_hyp"
EMB_NO_SRC = "{DATA}/emb_no_src"
# 2,100 aligned vectors of small integers, so cosines tie: at k = 2 the y-side
# merges from the x-side tiles, 998 + 998 + 104 rows
EMB_TILES = "{DATA}/emb_tiles"
# one pair of 72 source and 76 target tokens: the fixture model (dim 16,
# ffn 32) runs its 76 steps backward in two blocks, of 53 and 23
LONG = "{DATA}/long"
# run3's first two sentences, with a checkpoint whose id holds &, < and >
XML_NAMES = "{DATA}/xml_names"
# a small model for vocab.txt with blank lines in its header and between its arrays
SPACED = "{DATA}/spaced.wts"
# fixture.wts with every nonzero out_w entry at +-1.7e308, so the first step's logits overflow
OVERFLOW = "{DATA}/overflow.wts"
MODEL = ["--model", "{DATA}/fixture.wts", "--vocab", "{DATA}/vocab.txt"]
SUBCOMMANDS = ("bleu", "ter", "frs", "align", "perturb", "robust", "rmss", "lrp", "report")

# (argv, approx); commands run in this order, sharing one {OUT} directory
GOLDEN_CLI = (
    [([], False), (["--help"], False)]
    + [([cmd, "--help"], False) for cmd in SUBCOMMANDS]
    + [([cmd], False) for cmd in SUBCOMMANDS]
    + [
        (["bleu", HYP, REF], False),
        (["bleu", HYP, REF, "--lc", "--format", "text"], False),
        (["ter", HYP, REF, "--shifts", "--per-sentence"], False),
        (["ter", HYP, REF, "--format", "text", "--out", "{OUT}/ter.txt"], False),
        (["ter", "{DATA}/vocab.txt", REF], False),
        (["ter", "{DATA}/missing.txt", REF], False),
        (["align", HYP, REF, "--iters", "5", "--out", "{OUT}/hyp.aln"], False),
        (["align", HYP, SRC, "--iters", "3"], False),
        (["frs", HYP, REF, "--iters", "5", "--per-sentence"], False),
        (["frs", HYP, SRC, "--iters", "5", "--format", "text"], False),
        (["frs", HYP, REF, "--align", "{OUT}/hyp.aln"], False),
        (["frs", HYP, "{DATA}/vocab.txt"], False),
        (["frs", SRC, SRC, "--align", "{OUT}/ter.txt"], False),
        (["perturb", "--kind", "misspelling", "--prob", "0.3", "--seed", "7",
          REF, "{OUT}/misspelled.txt"], False),
        (["perturb", "--kind", "case", "--prob", "0.5", "--seed", "7",
          REF, "{OUT}/cased.txt"], False),
        (["robust", "--clean", RUN, "--perturbed", RUN, "--perturbed", "misspelling=" + RUN],
         False),
        (["robust", "--clean", RUN, "--perturbed", RUN,
          "--ref", RUN + "/checkpoints/000200/hyp.txt"], False),
        (["robust", "--clean", RUN, "--perturbed", "case=" + RUN,
          "--out", "{OUT}/robust.csv"], False),
        (["rmss", "--k", "2", "{DATA}/emb3/ref.emb",
          "{DATA}/emb3/checkpoints/000100/hyp.emb",
          "--per-sentence", "{OUT}/rmss.json"], True),
        (["rmss", "{DATA}/emb3/src.emb", "{DATA}/emb3/checkpoints/000300/hyp.emb",
          "--per-sentence", ""], True),
        (["lrp", "--model", "{DATA}/fixture.wts", "--vocab", "{DATA}/vocab.txt",
          SRC, REF], True),
        (["lrp", "--model", "{DATA}/fixture.wts", "--vocab", "{DATA}/vocab.txt",
          SRC, "{DATA}/vocab.txt"], False),
        (["report", RUN, "--iters", "5", "--csv", "{OUT}/series.csv",
          "--svg", "{OUT}/series.svg"], False),
        (["report", RUN, "--metrics", "bleu,ter-vs-src,frs-vs-src,rmss-vs-src,src-entropy",
          "--iters", "3", "--k", "2", "--lc",
          "--csv", "{OUT}/series2.csv", "--out", "{OUT}/report.json"], False),
        (["report", RUN, "--metrics", "bleu", "--csv", "", "--svg", "", "--out", ""], False),
        (["report", RUN, "--metrics", " , "], False),
        (["report", RUN, "--embeddings", "{DATA}/emb3", "--metrics", "rmss-vs-src,rmss-vs-ref",
          "--k", "2", "--csv", "{OUT}/rmss.csv"], False),
        (["report", RUN, "--metrics", "ter-vs-ref,frs-vs-ref", "--iters", "2",
          "--csv", "{OUT}/wordorder.csv"], False),
        (["report", RUN, "--model", "{DATA}/fixture.wts", "--vocab", "{DATA}/vocab.txt",
          "--metrics", "tgt-entropy,avg-src-contribution", "--csv", "{OUT}/relevance.csv"], False),
        (["report", RUN, "--metrics", "rmss-vs-ref,tgt-entropy"], False),
        (["report", BLANK, "--metrics", "bleu,ter-vs-ref,frs-vs-ref",
          "--csv", "{OUT}/blank.csv", "--svg", "{OUT}/blank.svg"], False),
        (["report", BLANK, *MODEL, "--metrics", "tgt-entropy",
          "--csv", "{OUT}/blank_relevance.csv"], False),
        (["robust", "--clean", RUN, "--perturbed", "blank=" + BLANK], False),
        (["lrp", *MODEL, BLANK + "/ref.txt", BLANK + "/ref.txt"], False),
        (["report", COMMA, "--metrics", "bleu,ter-vs-ref", "--csv", "{OUT}/comma.csv"], False),
        (["robust", "--clean", COMMA, "--perturbed", "x,y=" + COMMA], False),
        (["report", RUN, "--metrics", "bleu,foo"], False),
        (["report", RUN, "--metrics", "bleu", "--csv", "{OUT}/same.txt",
          "--svg", "{OUT}/same.txt", "--out", "{OUT}/same.txt"], False),
        (["rmss", "--k", "2", "{DATA}/emb3/ref.emb", "{DATA}/emb3/checkpoints/000100/hyp.emb",
          "--per-sentence", "{OUT}/same.json", "--out", "{OUT}/./same.json"], True),
        (["robust", "--clean", RUN, "--perturbed", "misspelling=" + MISSPELLED,
          "--perturbed", "case=" + CASED], False),
        (["bleu", CASED + "/checkpoints/000100/hyp.txt", REF], False),
        (["bleu", CASED + "/checkpoints/000100/hyp.txt", REF, "--lc"], False),
        (["robust", "--clean", RUN, "--perturbed", "case=" + CASED,
          "--perturbed", "short=" + SHORT], False),
        (["align", BLANK + "/src.txt", BLANK + "/ref.txt"], False),
        (["frs", BLANK + "/src.txt", BLANK + "/ref.txt"], False),
        (["frs", BLANK + "/checkpoints/000100/hyp.txt", BLANK + "/src.txt", "--per-sentence"],
         False),
        (["align", HOLES, BLANK + "/src.txt", "--iters", "4"], False),
        (["align", BLANK + "/src.txt", HOLES, "--iters", "4", "--out", "{OUT}/holes.aln"], False),
        (["frs", HOLES, BLANK + "/src.txt", "--iters", "4", "--per-sentence"], False),
        (["frs", BLANK + "/src.txt", HOLES, "--iters", "4", "--per-sentence"], False),
        (["align", MISSPELLED + "/checkpoints/000100/hyp.txt", MISSPELLED + "/ref.txt"], False),
        (["align", MISSPELLED + "/checkpoints/000300/hyp.txt", MISSPELLED + "/src.txt",
          "--iters", "7"], False),
        (["frs", MISSPELLED + "/checkpoints/000100/hyp.txt", MISSPELLED + "/ref.txt",
          "--per-sentence"], False),
        (["frs", MISSPELLED + "/checkpoints/000200/hyp.txt", MISSPELLED + "/src.txt",
          "--format", "text"], False),
        (["robust", "--clean", CASED, "--perturbed", "m=" + MISSPELLED,
          "--perturbed", "r=" + RUN, "--perturbed", "b=" + BLANK], False),
        (["bleu", BLANK + "/checkpoints/000100/hyp.txt", REF], False),
        (["bleu", HYP, BLANK + "/ref.txt"], False),
        # robust errors in walk order: the clean corpus against the
        # reference, then a zero clean BLEU before a later kind's unpaired ids
        (["robust", "--clean", RUN, "--perturbed", "x=" + RUN, "--ref", SHORT + "/ref.txt"],
         False),
        (["robust", "--clean", RUN, "--perturbed", "x=" + RUN, "--ref", BLANK + "/ref.txt"],
         False),
        (["robust", "--clean", RUN, "--perturbed", "a=" + RUN, "--perturbed", "b=" + COMMA],
         False),
        (["robust", "--clean", RUN, "--perturbed", "a=" + RUN, "--perturbed", "b=" + COMMA,
          "--ref", RUN + "/checkpoints/000200/hyp.txt"], False),
        # Viterbi ties after one or two EM iterations: none of run3's 48
        # hypothesis rows against ref.txt tie, 27 of ref.txt's 48 rows against
        # a misspelled checkpoint do, and comma's rows tie NULL twice
        (["align", HYP, REF, "--iters", "1"], False),
        (["frs", HYP, REF, "--iters", "1", "--per-sentence"], False),
        (["align", REF, MISSPELLED + "/checkpoints/000100/hyp.txt", "--iters", "1"], False),
        (["frs", REF, MISSPELLED + "/checkpoints/000100/hyp.txt", "--iters", "1",
          "--per-sentence"], False),
        (["align", HOLES, MISSPELLED + "/checkpoints/000100/hyp.txt", "--iters", "1"], False),
        (["align", COMMA + "/ref.txt", COMMA + "/src.txt", "--iters", "2"], False),
        (["report", LAYOUTS + "/no_checkpoints", "--metrics", "bleu"], False),
        (["report", LAYOUTS + "/stray", "--metrics", "bleu", "--csv", "{OUT}/stray.csv"], False),
        (["report", LAYOUTS + "/no_hyp", "--metrics", "bleu"], False),
        (["rmss", MALFORMED + "/zero_dim.emb", "{DATA}/emb3/ref.emb"], False),
        (["rmss", "{DATA}/emb3/ref.emb", MALFORMED + "/negative_count.emb"], False),
        (["lrp", "--model", MALFORMED + "/no_heads.wts", "--vocab", "{DATA}/vocab.txt",
          SRC, REF], False),
        (["lrp", "--model", MALFORMED + "/extra_array.wts", "--vocab", "{DATA}/vocab.txt",
          SRC, REF], False),
        (["lrp", "--model", MALFORMED + "/odd_dim.wts", "--vocab", "{DATA}/vocab.txt",
          SRC, REF], False),
        (["align", SHORT + "/ref.txt", REF], False),
        (["report", RUN, "--embeddings", EMB_PARTIAL, "--metrics", "bleu,rmss-vs-ref",
          "--k", "2", "--csv", "{OUT}/emb_partial.csv"], False),
        (["lrp", "--model", SPACED, "--vocab", "{DATA}/vocab.txt",
          COMMA + "/src.txt", COMMA + "/ref.txt"], True),
        (["report", RUN, "--embeddings", EMB_SHORT_HYP, "--metrics", "bleu,rmss-vs-ref",
          "--k", "2", "--csv", "{OUT}/emb_short_hyp.csv"], False),
        (["report", RUN, "--embeddings", EMB_NO_SRC, "--metrics", "rmss-vs-src,rmss-vs-ref",
          "--k", "2", "--csv", "{OUT}/emb_no_src.csv"], False),
        (["report", XML_NAMES, "--metrics", "bleu,ter-vs-ref",
          "--csv", "{OUT}/xml_names.csv", "--svg", "{OUT}/xml_names.svg"], False),
        (["lrp", *MODEL, LONG + "/src.txt", LONG + "/ref.txt"], True),
        (["rmss", "--k", "2", EMB_TILES + "/ref.emb", EMB_TILES + "/hyp.emb",
          "--per-sentence", "{OUT}/rmss_tiles.json"], True),
        (["lrp", "--model", OVERFLOW, "--vocab", "{DATA}/vocab.txt", SRC, REF], False),
        (["report", RUN, "--model", OVERFLOW, "--vocab", "{DATA}/vocab.txt",
          "--metrics", "src-entropy"], False),
    ]
)


def _snapshot(root):
    return {p.relative_to(root).as_posix(): p.read_bytes().decode("utf-8")
            for p in sorted(root.rglob("*")) if p.is_file()}


def golden_cli():
    os.environ["COLUMNS"] = "80"
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        swaps = {"{DATA}": str(DATA), "{OUT}": str(out_dir)}

        def fill(text):
            for key, value in swaps.items():
                text = text.replace(key, value)
            return text

        def blank(text):
            for key, value in swaps.items():
                text = text.replace(value, key)
            return text

        for argv, approx in GOLDEN_CLI:
            before = _snapshot(out_dir)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main([fill(a) for a in argv])
            after = _snapshot(out_dir)
            cases.append({
                "argv": argv,
                "approx": approx,
                "exit": code,
                "stdout": blank(stdout.getvalue()),
                "stderr": blank(stderr.getvalue()),
                "files": {name: blank(text) for name, text in after.items()
                          if before.get(name) != text},
            })
    write_text(DATA / "golden_cli.json", json.dumps(cases, indent=1) + "\n")


def main():
    DATA.mkdir(exist_ok=True)

    ref_lines = rotated_lines(REF_VOCAB, 12)
    src_lines = rotated_lines(SRC_VOCAB, 12)
    ckpts = {
        "000100": degrade(ref_lines, REF_VOCAB, n_subs=2, n_swaps=2, seed=101),
        "000200": degrade(ref_lines, REF_VOCAB, n_subs=1, n_swaps=0, seed=202),
        "000300": list(ref_lines),
    }

    run = DATA / "run3"
    write_lines(run / "src.txt", src_lines)
    write_lines(run / "ref.txt", ref_lines)
    for ckpt_id, lines in ckpts.items():
        write_lines(run / "checkpoints" / ckpt_id / "hyp.txt", lines)

    blank = DATA / "blank"
    write_lines(blank / "src.txt", src_lines)
    for rel in ["ref.txt"] + [f"checkpoints/{ckpt_id}/hyp.txt" for ckpt_id in ckpts]:
        write_lines(blank / rel, [""] * len(src_lines))
    write_lines(blank / "holes.txt", ["" if k % 3 == 1 else line
                                      for k, line in enumerate(ckpts["000100"])])

    comma = DATA / "comma"
    write_lines(comma / "src.txt", src_lines[:2])
    write_lines(comma / "ref.txt", ref_lines[:2])
    write_lines(comma / "checkpoints" / "a,b" / "hyp.txt", ref_lines[:2])

    xml_names = DATA / "xml_names"
    write_lines(xml_names / "src.txt", src_lines[:2])
    write_lines(xml_names / "ref.txt", ref_lines[:2])
    write_lines(xml_names / "checkpoints" / "0100" / "hyp.txt", ckpts["000100"][:2])
    write_lines(xml_names / "checkpoints" / "<0200&>" / "hyp.txt", ref_lines[:2])

    rng = SplitMix64(76)
    long_src = " ".join(SRC_VOCAB[rng.randrange(10)] for _ in range(72))
    long_ref = " ".join(REF_VOCAB[rng.randrange(10)] for _ in range(76))
    write_lines(DATA / "long" / "src.txt", [long_src])
    write_lines(DATA / "long" / "ref.txt", [long_ref])

    layouts = DATA / "layouts"
    for name in ("no_checkpoints", "stray", "no_hyp"):
        write_lines(layouts / name / "src.txt", src_lines[:2])
        write_lines(layouts / name / "ref.txt", ref_lines[:2])
    write_lines(layouts / "stray" / "checkpoints" / "000100" / "hyp.txt", ref_lines[:2])
    write_lines(layouts / "stray" / "checkpoints" / "notes.txt", ["not a checkpoint"])
    write_lines(layouts / "no_hyp" / "checkpoints" / "000100" / "train.log", ["step 100"])

    malformed = DATA / "malformed"
    write_lines(malformed / "zero_dim.emb", ["3 0"])
    write_lines(malformed / "negative_count.emb", ["-1 4"])
    header = ["mtlens-weights 1", "layers 1", "heads 1", "dim 4", "ffn 8", "vocab 4"]
    write_lines(malformed / "no_heads.wts", [line for line in header if line != "heads 1"])
    write_lines(malformed / "odd_dim.wts", [line.replace("dim 4", "dim 3") for line in header])
    extra = malformed / "extra_array.wts"
    save_model(init_model(layers=1, heads=1, dim=4, ffn=8, vocab_size=4, seed=1), extra)
    write_text(extra, extra.read_text(encoding="utf-8") + "array extra 2\n0 0\n")

    for name, keep, kind in (
        ("misspelled", len(src_lines), PerturbationKind.MISSPELLING),
        ("cased", len(src_lines), PerturbationKind.CASE_CHANGING),
        ("short", 5, None),
    ):
        pert = DATA / name
        write_lines(pert / "src.txt", src_lines[:keep])
        write_lines(pert / "ref.txt", ref_lines[:keep])
        for ckpt_id, lines in ckpts.items():
            hyp = tuple(Sentence.from_line(line) for line in lines[:keep])
            if kind is not None:
                spec = PerturbationSpec(kind, probability=0.5, seed=label_seed(f"{name}@{ckpt_id}"))
                hyp = perturb_corpus(hyp, spec)
            write_lines(pert / "checkpoints" / ckpt_id / "hyp.txt", [sent.raw for sent in hyp])

    emb = DATA / "emb3"
    (emb / "checkpoints").mkdir(parents=True, exist_ok=True)
    save_embeddings(corpus_embeddings(ref_lines, "ref"), emb / "ref.emb")
    save_embeddings(corpus_embeddings(src_lines, "src"), emb / "src.emb")
    for ckpt_id, lines in ckpts.items():
        d = emb / "checkpoints" / ckpt_id
        d.mkdir(parents=True, exist_ok=True)
        save_embeddings(corpus_embeddings(lines, f"hyp@{ckpt_id}"), d / "hyp.emb")

    partial = DATA / "emb_partial"
    for rel in ("ref.emb", "src.emb", "checkpoints/000100/hyp.emb", "checkpoints/000200/hyp.emb"):
        (partial / rel).parent.mkdir(parents=True, exist_ok=True)
        (partial / rel).write_bytes((emb / rel).read_bytes())
    for name, skip in (("emb_short_hyp", ()), ("emb_no_src", ("src.emb",))):
        for path in sorted(emb.rglob("*.emb")):
            rel = path.relative_to(emb).as_posix()
            if rel not in skip:
                (DATA / name / rel).parent.mkdir(parents=True, exist_ok=True)
                (DATA / name / rel).write_bytes(path.read_bytes())
    save_embeddings(corpus_embeddings(ckpts["000200"][:11], "hyp@000200"),
                    DATA / "emb_short_hyp" / "checkpoints" / "000200" / "hyp.emb")

    rng = SplitMix64(2100)
    (DATA / "emb_tiles").mkdir(exist_ok=True)
    for name in ("ref.emb", "hyp.emb"):
        rows = [[float(1 + rng.randrange(9)) for _ in range(EMB_DIM)] for _ in range(2100)]
        save_embeddings(embedding_set(rows), DATA / "emb_tiles" / name)

    src_corpus = load_corpus(run / "src.txt")
    ref_corpus = load_corpus(run / "ref.txt")
    vocab = build_vocab([src_corpus, ref_corpus])
    save_vocab(vocab, DATA / "vocab.txt")

    spaced = DATA / "spaced.wts"
    save_model(init_model(layers=1, heads=1, dim=4, ffn=4, vocab_size=len(vocab), seed=3), spaced)
    text = spaced.read_text(encoding="utf-8")
    write_text(spaced, text.replace("\nheads", "\n\nheads").replace("\narray", "\n \t\narray"))

    model = init_model(
        layers=2, heads=2, dim=16, ffn=32, vocab_size=len(vocab), seed=2024
    )
    save_model(model, DATA / "fixture.wts")
    out_w = np.sign(model.weights["out_w"]) * 1.7e308
    save_model(dataclasses.replace(model, weights={**model.weights, "out_w": out_w}),
               DATA / "overflow.wts")

    reloaded = load_model(DATA / "fixture.wts")
    golden_src = vocab.encode(src_corpus[0].tokens)
    cases = []
    for prefix in ([0], [0] + vocab.encode(ref_corpus[0].tokens[:2])):
        logits = naive_forward(reloaded, golden_src, prefix)
        cases.append(
            {
                "src_ids": golden_src,
                "tgt_prefix_ids": prefix,
                "logits": [float(v) for v in logits],
            }
        )
    write_text(DATA / "golden_logits.json", json.dumps(cases, indent=1) + "\n")

    golden_cli()
    print("fixtures written to", DATA)


if __name__ == "__main__":
    main()
