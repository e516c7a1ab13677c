"""Seeded inputs for the mtlens benchmark.

Nothing here imports mtlens. The random stream is the benchmark's own
SplitMix64 and the files come from the writers below, so a change to
mtlens.rng, init_model or save_model cannot change what the benchmark
feeds the program.

The seed picks tokens, positions and vector components. It does not
pick how much work there is: sentence lengths, noise counts per
checkpoint, block moves for TER, matrix sizes and the model are fixed
per workload. One round then costs the same for every seed, so the
spread between runs reflects the machine rather than the inputs.
"""

import hashlib
import json
import os
import shutil

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

MANIFEST = "MANIFEST.json"

# The relevance model: the ROADMAP's 6-layer d=256 model, with the
# toolkit's default ffn = 2*dim ratio and build_vocab's 512-entry vocab.
# It stands for a trained system under analysis, so it does not change
# with the workload seed and is made once per checkout.
MODEL = {"layers": 6, "heads": 4, "dim": 256, "ffn": 512, "vocab": 512}
MODEL_SEED = 0x6D746C656E73
RESERVED = ("<bos>", "<eos>", "<unk>", "<pad>")
LETTERS = "abcdefghijklmnopqrstuvwxyz"

# report: one run, IBM-1 on every checkpoint, RMSS at n = REPORT_PAIRS
REPORT_PAIRS = 72
REPORT_CHECKPOINTS = ("000100", "000200", "000300", "000400")
REPORT_NOISE = (0.30, 0.20, 0.10, 0.0)  # last checkpoint equals the reference
REPORT_EMB_DIM = 32

# relevance: target lengths from short to about 40 tokens
RELEVANCE_TGT_LENGTHS = (6, 14, 24, 40)
RELEVANCE_SRC_LENGTHS = (8, 16, 22, 36)

# scoring
TER_LENGTHS = (40, 50, 60)
SCORING_PAIRS = 400
SCORING_CHECKPOINTS = ("000100", "000200")
SCORING_NOISE = (0.25, 0.10)
RMSS_COUNT = 8192
RMSS_DIM = 128


class Stream:
    """SplitMix64, drawn in numpy blocks.

    Output i is the published SplitMix64 mix of seed + (i+1)*gamma, so
    block draws give the same bits as the scalar definition.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & MASK64)
        self._pos = 0

    def u64(self, n: int) -> np.ndarray:
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        z = self._seed + idx * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniform(self, n: int) -> np.ndarray:
        return (self.u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def below(self, bound: int, n: int) -> np.ndarray:
        return (self.uniform(n) * bound).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        return np.argsort(self.uniform(n), kind="stable")


def lexicon(stream: Stream, size: int, alphabet: str) -> list[str]:
    """size distinct lowercase words of 3-8 letters."""
    words, seen = [], set()
    while len(words) < size:
        lengths = 3 + stream.below(6, 64)
        letters = stream.below(len(alphabet), 8 * 64)
        for k, n in enumerate(lengths):
            w = "".join(alphabet[c] for c in letters[8 * k : 8 * k + n])
            if w not in seen:
                seen.add(w)
                words.append(w)
    return words[:size]


def zipf_ids(stream: Stream, vocab: int, n: int) -> np.ndarray:
    """Skewed word ids, so frequent words repeat across sentences."""
    return (stream.uniform(n) ** 2 * vocab).astype(np.int64)


def spread_lengths(count: int, lo: int, hi: int) -> list[int]:
    return [lo + (hi - lo) * i // max(count - 1, 1) for i in range(count)]


def degrade(stream: Stream, toks: list[str], rate: float, words: list[str]) -> list[str]:
    """Substitute round(rate*L) tokens and swap round(rate*L/2) neighbours.

    Length is kept, so the alignment work per checkpoint is fixed.
    """
    out = list(toks)
    n = len(out)
    subs = round(rate * n)
    for pos, w in zip(stream.permutation(n)[:subs], stream.below(len(words), subs)):
        out[pos] = words[w]
    for pos in stream.below(n - 1, round(rate * n / 2)):
        out[pos], out[pos + 1] = out[pos + 1], out[pos]
    return out


# ---------------------------------------------------------------------------
# writers


def _create(path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_corpus(path, sentences) -> None:
    with _create(path) as fh:
        fh.write("".join(" ".join(toks) + "\n" for toks in sentences))


def _decimals(values: np.ndarray) -> list[str]:
    return [repr(v) for v in values.tolist()]


def quantized(stream: Stream, shape, scale: float) -> np.ndarray:
    """Uniform in [-scale, scale), rounded to 5 decimals so files stay short."""
    raw = (stream.uniform(int(np.prod(shape))) * 2.0 - 1.0) * scale
    return (np.round(raw * 1e5) / 1e5).reshape(shape)


def write_embeddings(path, vectors: np.ndarray) -> None:
    with _create(path) as fh:
        fh.write(f"{vectors.shape[0]} {vectors.shape[1]}\n")
        for row in vectors:
            fh.write(" ".join(_decimals(row)) + "\n")


def write_pharaoh(path, links_per_sentence) -> None:
    with _create(path) as fh:
        for links in links_per_sentence:
            fh.write(" ".join(f"{i}-{j}" for i, j in links) + "\n")


def model_arrays(layers: int, dim: int, ffn: int, vocab: int) -> dict:
    """Array names and shapes of the mtlens weight-file format."""
    shapes = {"embedding": (vocab, dim), "out_w": (dim, vocab), "out_b": (vocab,)}

    def attention(prefix):
        for part in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}_{part}"] = (dim, dim)
        for part in ("bq", "bk", "bv", "bo"):
            shapes[f"{prefix}_{part}"] = (dim,)

    def block(prefix, norms):
        shapes[f"{prefix}_ffn_w1"] = (dim, ffn)
        shapes[f"{prefix}_ffn_b1"] = (ffn,)
        shapes[f"{prefix}_ffn_w2"] = (ffn, dim)
        shapes[f"{prefix}_ffn_b2"] = (dim,)
        for k in range(1, norms + 1):
            shapes[f"{prefix}_ln{k}_g"] = (dim,)
            shapes[f"{prefix}_ln{k}_b"] = (dim,)

    for i in range(layers):
        attention(f"enc{i}_attn")
        block(f"enc{i}", 2)
        attention(f"dec{i}_self")
        attention(f"dec{i}_cross")
        block(f"dec{i}", 3)
    return shapes


def write_model(path, stream: Stream) -> None:
    """Gains 1, biases 0, matrices uniform in +-1/sqrt(dim)."""
    cfg = MODEL
    shapes = model_arrays(cfg["layers"], cfg["dim"], cfg["ffn"], cfg["vocab"])
    scale = 1.0 / np.sqrt(cfg["dim"])
    with _create(path) as fh:
        fh.write("mtlens-weights 1\n")
        for key in ("layers", "heads", "dim", "ffn", "vocab"):
            fh.write(f"{key} {cfg[key]}\n")
        for name in sorted(shapes):
            shape = shapes[name]
            fh.write(f"array {name} {' '.join(str(d) for d in shape)}\n")
            if name.endswith("_g"):
                arr = np.ones(shape)
            elif len(shape) == 1:
                arr = np.zeros(shape)
            else:
                arr = quantized(stream, shape, scale)
            for row in arr.reshape(1, -1) if arr.ndim == 1 else arr:
                fh.write(" ".join(_decimals(row)) + "\n")


# ---------------------------------------------------------------------------
# workloads


def model_words() -> list[str]:
    """The model's vocabulary after the reserved ids."""
    return lexicon(Stream(MODEL_SEED), MODEL["vocab"] - len(RESERVED), LETTERS)


def _model_files(root):
    write_corpus(os.path.join(root, "vocab.txt"), [[w] for w in RESERVED + tuple(model_words())])
    write_model(os.path.join(root, "model.wts"), Stream(MODEL_SEED ^ 1))


def _report_files(root, stream):
    tgt_words = lexicon(stream, 2000, LETTERS)
    src_words = lexicon(stream, 2000, "aeioukmnprstvz")
    ref_len = spread_lengths(REPORT_PAIRS, 20, 60)
    order = stream.permutation(REPORT_PAIRS)
    rank = {w: i for i, w in enumerate(tgt_words)}
    refs, srcs = [], []
    for k in order:
        n = ref_len[k]
        ref = [tgt_words[i] for i in zipf_ids(stream, len(tgt_words), n)]
        # the source translates word by word, with one local swap per 8 words
        src = [src_words[rank[w]] for w in ref]
        for pos in stream.below(n - 1, n // 8):
            src[pos], src[pos + 1] = src[pos + 1], src[pos]
        refs.append(ref)
        srcs.append(src)
    write_corpus(os.path.join(root, "run", "ref.txt"), refs)
    write_corpus(os.path.join(root, "run", "src.txt"), srcs)
    ref_vec = quantized(stream, (REPORT_PAIRS, REPORT_EMB_DIM), 1.0)
    write_embeddings(os.path.join(root, "emb", "ref.emb"), ref_vec)
    write_embeddings(
        os.path.join(root, "emb", "src.emb"),
        ref_vec + quantized(stream, ref_vec.shape, 0.5),
    )
    for ckpt, rate in zip(REPORT_CHECKPOINTS, REPORT_NOISE):
        hyps = [degrade(stream, ref, rate, tgt_words) for ref in refs]
        write_corpus(os.path.join(root, "run", "checkpoints", ckpt, "hyp.txt"), hyps)
        write_embeddings(
            os.path.join(root, "emb", "checkpoints", ckpt, "hyp.emb"),
            ref_vec + quantized(stream, ref_vec.shape, 0.2 + 2.0 * rate),
        )


def _relevance_files(root, stream):
    words = model_words()
    for name, lengths in (("src.txt", RELEVANCE_SRC_LENGTHS), ("tgt.txt", RELEVANCE_TGT_LENGTHS)):
        write_corpus(
            os.path.join(root, name),
            [[words[i] for i in stream.below(len(words), n)] for n in lengths],
        )


def ter_pair(stream: Stream, words: list[str], n: int):
    """A reference of n distinct words and a hypothesis that needs shifts.

    The hypothesis moves two blocks and substitutes two words at
    positions fixed by n, so the shift search does the same work for
    every seed.
    """
    picked = stream.permutation(len(words))[: n + 2]
    ref = [words[i] for i in picked[:n]]
    a = n // 5
    b = n // 2
    hyp = ref[:a] + ref[a + 4 : b] + ref[a : a + 4] + ref[b:]
    c = 3 * n // 4
    hyp = hyp[:c] + hyp[c + 3 :] + hyp[c : c + 3]
    hyp[n // 3] = words[picked[n]]
    hyp[n - 2] = words[picked[n + 1]]
    return hyp, ref


def planted_links(stream: Stream, n: int, monotone: bool):
    """Alignment links (hyp i, ref j) for a length-n pair.

    Monotone pairs link i to i. The others swap two adjacent blocks at
    seeded cut points, so FRS must come out below 1.
    """
    if monotone:
        return [(i, i) for i in range(n)]
    cut1, cut2 = sorted(1 + stream.below(n - 2, 2))
    if cut1 == cut2:
        cut2 += 1
    order = list(range(cut1, cut2)) + list(range(cut1)) + list(range(cut2, n))
    return [(i, j) for i, j in enumerate(order)]


def _scoring_files(root, stream):
    tgt_words = lexicon(stream, 3000, LETTERS)
    src_words = lexicon(stream, 3000, "aeioukmnprstvz")
    hyps, refs = zip(*(ter_pair(stream, tgt_words, n) for n in TER_LENGTHS))
    write_corpus(os.path.join(root, "ter_hyp.txt"), hyps)
    write_corpus(os.path.join(root, "ter_ref.txt"), refs)

    lengths = [spread_lengths(SCORING_PAIRS, 20, 60)[k] for k in stream.permutation(SCORING_PAIRS)]
    refs = [[tgt_words[i] for i in zipf_ids(stream, len(tgt_words), n)] for n in lengths]
    srcs = [[src_words[i] for i in zipf_ids(stream, len(src_words), n)] for n in lengths]
    write_corpus(os.path.join(root, "run", "ref.txt"), refs)
    write_corpus(os.path.join(root, "run", "src.txt"), srcs)
    for ckpt, rate in zip(SCORING_CHECKPOINTS, SCORING_NOISE):
        hyps = [degrade(stream, ref, rate, tgt_words) for ref in refs]
        write_corpus(os.path.join(root, "run", "checkpoints", ckpt, "hyp.txt"), hyps)
    write_pharaoh(
        os.path.join(root, "planted.aln"),
        [planted_links(stream, n, k % 3 == 0) for k, n in enumerate(lengths)],
    )

    x = quantized(stream, (RMSS_COUNT, RMSS_DIM), 1.0)
    write_embeddings(os.path.join(root, "x.emb"), x)
    write_embeddings(os.path.join(root, "y.emb"), x + quantized(stream, x.shape, 0.8))


# ---------------------------------------------------------------------------
# cache


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _files(root):
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name != MANIFEST:
                yield os.path.relpath(os.path.join(dirpath, name), root)


def _verified(root) -> bool:
    """True when root holds exactly the files its manifest lists, unchanged."""
    try:
        with open(os.path.join(root, MANIFEST), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return False
    if sorted(_files(root)) != sorted(manifest):
        return False
    return all(_digest(os.path.join(root, rel)) == d for rel, d in manifest.items())


def _build(root, make) -> None:
    """Make a directory of inputs and seal it with a manifest, written last."""
    shutil.rmtree(root, ignore_errors=True)
    make(root)
    manifest = {rel: _digest(os.path.join(root, rel)) for rel in sorted(_files(root))}
    with open(os.path.join(root, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


_MAKERS = {
    "report": _report_files,
    "relevance": _relevance_files,
    "scoring": _scoring_files,
}

KEEP_SEEDS = 3


def ensure_model(work_dir: str) -> str:
    """Directory holding model.wts and vocab.txt, made or checked against digests."""
    root = os.path.join(work_dir, "model")
    if not _verified(root):
        _build(root, _model_files)
    return root


def ensure_inputs(work_dir: str, workload: str, seed: int) -> str:
    """Directory of the workload's inputs, made or checked against digests."""
    root = os.path.join(work_dir, "inputs", f"{workload}-{seed}")
    if not _verified(root):
        _build(root, lambda r: _MAKERS[workload](r, Stream(seed)))
    os.utime(root)
    _prune(os.path.join(work_dir, "inputs"), f"{workload}-")
    return root


def _prune(inputs_dir: str, prefix: str) -> None:
    """Keep the KEEP_SEEDS most recently used input sets of a workload."""
    dirs = [os.path.join(inputs_dir, d) for d in os.listdir(inputs_dir) if d.startswith(prefix)]
    dirs.sort(key=os.path.getmtime, reverse=True)
    for d in dirs[KEEP_SEEDS:]:
        shutil.rmtree(d, ignore_errors=True)
