"""Regenerate the committed test fixtures under tests/data/.

Run from the repository root:

    PYTHONPATH=src python3 tests/gen_fixtures.py

Everything is seeded, so reruns reproduce the same bytes. Golden
logits come from the independent reference forward pass in
naive_transformer.py. golden_lrp.json is not regenerated: it is a
frozen snapshot of the relevance pipeline as it ran one pass per step,
and it stays the oracle the one-pass pipeline must meet at atol 1e-6.
"""

import json
import os
from pathlib import Path

import numpy as np

from mtlens.corpus import Corpus, Sentence, load_corpus, save_corpus
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


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

    emb = DATA / "emb3"
    (emb / "checkpoints").mkdir(parents=True, exist_ok=True)
    save_embeddings(corpus_embeddings(ref_lines, "ref"), emb / "ref.emb")
    save_embeddings(corpus_embeddings(src_lines, "src"), emb / "src.emb")
    for ckpt_id, lines in ckpts.items():
        d = emb / "checkpoints" / ckpt_id
        d.mkdir(parents=True, exist_ok=True)
        save_embeddings(corpus_embeddings(lines, f"hyp@{ckpt_id}"), d / "hyp.emb")

    src_corpus = load_corpus(run / "src.txt", "src")
    ref_corpus = load_corpus(run / "ref.txt", "ref")
    vocab = build_vocab([src_corpus, ref_corpus])
    save_vocab(vocab, DATA / "vocab.txt")

    model = init_model(
        layers=2, heads=2, dim=16, ffn=32, vocab_size=len(vocab), seed=2024
    )
    save_model(model, DATA / "fixture.wts")

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
    with open(DATA / "golden_logits.json", "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")

    print("fixtures written to", DATA)


if __name__ == "__main__":
    main()
