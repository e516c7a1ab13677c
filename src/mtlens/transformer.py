"""Desk-scale transformer encoder-decoder: weights, vocab, forward pass.

Post-norm, ReLU feed-forward, sinusoidal positions, shared embedding
table, untied output projection. The sublayer tables ENCODER_LAYER and
DECODER_LAYER list each layer's (sublayer, norm) pairs, each run as
sublayer -> residual add -> LayerNorm ("self" is causal, "cross"
attends to the encoder output); they name the weight arrays, and one
routine, _layer, runs them. The forward pass runs the decoder over a
whole non-empty target prefix at once, causally masked: it returns
the last row's next-token logits and the per-sublayer caches, whose
"logits" hold every row's. Relevance propagation runs it teacher-forced
over the whole target, once per sentence pair unless a step fails, and
reads each step's logits and activations from that cache. The cache
keeps each activation once, and leaves out what relevance rebuilds bit
for bit with the forward's own expression: a layer norm's input (the
residual sum in + out), an attention context (probs @ v, heads merged)
and a ReLU output (max(z1, 0)).

Weight and vocab files are UTF-8 text read through corpus.read_lines,
so load errors name the file and line. Weight files are
self-describing: line 1 reads "mtlens-weights 1", the format version,
then a header with the configuration, then named arrays
with explicit shapes; an unknown header key, or a key or array name
given twice, is refused. A 1-D array is one row and an N-D array
shape[0] rows of prod(shape[1:]) values, parsed by corpus.read_array
as embedding rows are. Vocab files hold one token per line, the line
number being the id; lines 1-4 must read <bos>, <eos>, <unk> and
<pad>, the tokens of the reserved ids 0..3 (BOS, EOS, UNK, PAD), since
a vocab without them would give its first words those ids. A token
listed twice is refused, since encode could never give its second id.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import read_array, read_lines, write_text
from .errors import DataError, NumericError
from .rng import SplitMix64

BOS_ID = 0
EOS_ID = 1
UNK_ID = 2
PAD_ID = 3
RESERVED = ("<bos>", "<eos>", "<unk>", "<pad>")

LN_EPS = 1e-5


# ---------------------------------------------------------------------------
# vocabulary


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]

    def __post_init__(self):
        tokens = tuple(self.tokens)
        if len(tokens) < len(RESERVED):
            raise DataError("vocab needs at least the 4 reserved entries")
        for i, (tok, reserved) in enumerate(zip(tokens, RESERVED)):
            if tok != reserved:
                raise DataError(f"line {i + 1}: token {tok!r} where {reserved!r} is reserved")
        index = {}
        for i, tok in enumerate(tokens):
            if tok in index:
                raise DataError(f"line {i + 1}: token {tok!r} repeats line {index[tok] + 1}")
            index[tok] = i
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def encode(self, tokens) -> list[int]:
        return [self.id_of(t) for t in tokens]


def build_vocab(corpora, limit: int = 512) -> Vocab:
    """Reserved symbols plus the corpora's sorted unique tokens."""
    seen = set()
    for corpus in corpora:
        for sent in corpus:
            seen.update(sent.tokens)
    words = sorted(seen)[: max(0, limit - len(RESERVED))]
    return Vocab(RESERVED + tuple(words))


def load_vocab(path) -> Vocab:
    tokens = [line for _, line in read_lines(path)]
    try:
        return Vocab(tokens)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_vocab(vocab: Vocab, path) -> None:
    write_text(path, "".join(f"{tok}\n" for tok in vocab.tokens))


# ---------------------------------------------------------------------------
# model


ENCODER_LAYER = (("attn", "ln1"), ("ffn", "ln2"))
DECODER_LAYER = (("self", "ln1"), ("cross", "ln2"), ("ffn", "ln3"))


def _expected_shapes(layers, dim, ffn, vocab_size):
    """Yield (name, shape) for every weight array, in a fixed order."""
    yield "embedding", (vocab_size, dim)
    yield "out_w", (dim, vocab_size)
    yield "out_b", (vocab_size,)
    for side, sublayers in (("enc", ENCODER_LAYER), ("dec", DECODER_LAYER)):
        for i in range(layers):
            for name, norm in sublayers:
                sub = f"{side}{i}_{name}"
                if name == "ffn":
                    yield f"{sub}_w1", (dim, ffn)
                    yield f"{sub}_b1", (ffn,)
                    yield f"{sub}_w2", (ffn, dim)
                    yield f"{sub}_b2", (dim,)
                else:
                    for part in ("wq", "wk", "wv", "wo"):
                        yield f"{sub}_{part}", (dim, dim)
                    for part in ("bq", "bk", "bv", "bo"):
                        yield f"{sub}_{part}", (dim,)
                yield f"{side}{i}_{norm}_g", (dim,)
                yield f"{side}{i}_{norm}_b", (dim,)


@dataclass
class TransformerModel:
    layers: int
    heads: int
    dim: int
    ffn: int
    vocab_size: int
    weights: dict

    def __post_init__(self):
        if min(self.layers, self.heads, self.dim, self.ffn, self.vocab_size) < 1:
            raise DataError("layers, heads, dim, ffn and vocab must be positive")
        if self.dim % self.heads != 0:
            raise DataError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.dim % 2 != 0:
            raise DataError("dim must be even for sinusoidal positions")
        # stop at the first missing array, so the work is bounded by the
        # arrays present, not by the layer count a header claims
        expected = set()
        for name, shape in _expected_shapes(self.layers, self.dim, self.ffn, self.vocab_size):
            if name not in self.weights:
                raise DataError(f"missing weight array {name!r}")
            got = self.weights[name].shape
            if got != shape:
                raise DataError(f"weight {name!r} has shape {got}, expected {shape}")
            if not np.all(np.isfinite(self.weights[name])):
                raise DataError(f"weight {name!r} contains non-finite values")
            expected.add(name)
        extra = set(self.weights) - expected
        if extra:
            raise DataError(f"unexpected weight arrays: {sorted(extra)}")


def init_model(
    layers: int = 2,
    heads: int = 2,
    dim: int = 16,
    ffn: int = 32,
    vocab_size: int = 32,
    seed: int = 0,
) -> TransformerModel:
    """Seeded deterministic initialization for fixtures and tests."""
    rng = SplitMix64(seed)
    scale = 1.0 / math.sqrt(dim)

    def uniform(shape):
        flat = np.array(
            [(rng.random() * 2.0 - 1.0) * scale for _ in range(int(np.prod(shape)))]
        )
        return flat.reshape(shape)

    weights = {}
    for name, shape in _expected_shapes(layers, dim, ffn, vocab_size):
        if name.endswith("_g"):
            weights[name] = np.ones(shape)
        elif len(shape) == 1:  # biases
            weights[name] = np.zeros(shape)
        else:
            weights[name] = uniform(shape)
    return TransformerModel(
        layers=layers, heads=heads, dim=dim, ffn=ffn, vocab_size=vocab_size, weights=weights
    )


def save_model(model: TransformerModel, path) -> None:
    lines = ["mtlens-weights 1", f"layers {model.layers}", f"heads {model.heads}",
             f"dim {model.dim}", f"ffn {model.ffn}", f"vocab {model.vocab_size}"]
    for name in sorted(model.weights):
        arr = model.weights[name]
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"array {name} {dims}")
        rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
        lines.extend(" ".join(f"{v:.17g}" for v in row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def load_model(path) -> TransformerModel:
    config = {}
    weights = {}
    lines = read_lines(path)
    if next(lines, (1, ""))[1].split() != ["mtlens-weights", "1"]:
        raise DataError(f"{path}: line 1: not a version 1 weight file (want 'mtlens-weights 1')")
    for lineno, line in lines:
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "array" and len(parts) > 2:
                if parts[1] in weights:
                    raise DataError(f"{path}: line {lineno}: repeated array {parts[1]!r}")
                shape = tuple(int(d) for d in parts[2:])
                nrows = 1 if len(shape) == 1 else shape[0]
                arr = read_array(path, lines, nrows, math.prod(shape[1:] or shape))
                weights[parts[1]] = arr.reshape(shape)
            elif len(parts) == 2:
                value = int(parts[1])
                if parts[0] not in ("layers", "heads", "dim", "ffn", "vocab"):
                    raise DataError(f"{path}: line {lineno}: unknown header key {parts[0]!r}")
                if parts[0] in config:
                    raise DataError(f"{path}: line {lineno}: repeated header key {parts[0]!r}")
                config[parts[0]] = value
            else:
                raise DataError(f"{path}: line {lineno}: unparseable line {line!r}")
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    try:
        return TransformerModel(
            layers=config["layers"],
            heads=config["heads"],
            dim=config["dim"],
            ffn=config["ffn"],
            vocab_size=config["vocab"],
            weights=weights,
        )
    except KeyError as exc:
        raise DataError(f"{path}: missing config key {exc}") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# forward pass


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(dim // 2)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    pe = np.zeros((length, dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def _layer_norm(x, gain, bias):
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    std = np.sqrt(var + LN_EPS)
    out = gain * (x - mean) / std + bias
    return out, {"mean": mean, "std": std, "gain": gain, "out": out}


def _softmax(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _heads(x, heads):
    *lead, t, d = x.shape
    return x.reshape(*lead, t, heads, d // heads).swapaxes(-3, -2)  # (..., H, T, dh)


def _unheads(x):
    *lead, h, t, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, t, h * dh)


def _attention(model, prefix, q_in, kv_in, causal):
    w = model.weights
    q = q_in @ w[f"{prefix}_wq"] + w[f"{prefix}_bq"]
    k = kv_in @ w[f"{prefix}_wk"] + w[f"{prefix}_bk"]
    v = kv_in @ w[f"{prefix}_wv"] + w[f"{prefix}_bv"]
    qh, kh, vh = (_heads(a, model.heads) for a in (q, k, v))
    dh = model.dim // model.heads
    scores = qh @ kh.transpose(0, 2, 1) / math.sqrt(dh)  # (H, Tq, Tk)
    if causal:
        tq = q_in.shape[0]
        mask = np.triu(np.ones((tq, tq), dtype=bool), k=1)
        scores = np.where(mask[None, :, :], -1e30, scores)
    probs = _softmax(scores)
    ctx = _unheads(probs @ vh)  # (Tq, d) from (H, Tq, dh)
    out = ctx @ w[f"{prefix}_wo"] + w[f"{prefix}_bo"]
    return out, {"kv_in": kv_in, "v": v, "probs": probs, "out": out}


def _ffn(model, prefix, x):
    w = model.weights
    z1 = x @ w[f"{prefix}_w1"] + w[f"{prefix}_b1"]
    out = np.maximum(z1, 0.0) @ w[f"{prefix}_w2"] + w[f"{prefix}_b2"]
    return out, {"z1": z1, "out": out}


def _layer(model, prefix, sublayers, x, memory=None):
    """Run one layer of a sublayer table; memory is what "cross" attends to.

    Returns the output and one cache per sublayer, in table order. Each
    holds the sublayer's input "in", its output "out" and its layer
    norm's cache "ln" (per-row "mean" and "std", the "gain" weight and
    the normalized "out"). An attention cache adds the key/value input
    "kv_in", the values "v" and the probabilities "probs"; a
    feed-forward cache adds the pre-activation "z1".
    """
    w = model.weights
    caches = []
    for name, norm in sublayers:
        sub = f"{prefix}_{name}"
        if name == "ffn":
            out, cache = _ffn(model, sub, x)
        else:
            kv_in = memory if name == "cross" else x
            out, cache = _attention(model, sub, x, kv_in, causal=name == "self")
        cache["in"] = x
        x, cache["ln"] = _layer_norm(x + out, w[f"{prefix}_{norm}_g"], w[f"{prefix}_{norm}_b"])
        caches.append(cache)
    return x, caches


def forward(model: TransformerModel, src_ids, tgt_prefix_ids):
    """One pass over a source and a target prefix.

    Returns the last decoder row's logits over the vocab (the next
    step's) and the activation cache, whose "logits" holds the logits
    of every decoder row.
    """
    src_ids = list(src_ids)
    tgt_prefix_ids = list(tgt_prefix_ids)
    if not src_ids:
        raise DataError("source must contain at least one token id")
    if not tgt_prefix_ids:
        raise DataError("target prefix must contain at least the BOS id")
    for ids in (src_ids, tgt_prefix_ids):
        for t in ids:
            if not 0 <= t < model.vocab_size:
                raise DataError(f"token id {t} out of range [0,{model.vocab_size})")

    # every stage below is checked for non-finite values, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        emb = model.weights["embedding"]
        enc_out = emb[src_ids] + sinusoidal_positions(len(src_ids), model.dim)
        enc_layers = []
        for i in range(model.layers):
            enc_out, cache = _layer(model, f"enc{i}", ENCODER_LAYER, enc_out)
            enc_layers.append(cache)
        if not np.all(np.isfinite(enc_out)):
            raise NumericError("non-finite activation in encoder")

        dec_out = emb[tgt_prefix_ids] + sinusoidal_positions(len(tgt_prefix_ids), model.dim)
        dec_layers = []
        for i in range(model.layers):
            dec_out, cache = _layer(model, f"dec{i}", DECODER_LAYER, dec_out, enc_out)
            dec_layers.append(cache)
        if not np.all(np.isfinite(dec_out)):
            raise NumericError("non-finite activation in decoder")

        logits = dec_out @ model.weights["out_w"] + model.weights["out_b"]
        if not np.all(np.isfinite(logits)):
            raise NumericError("non-finite logits in forward pass")

    cache = {
        "enc_layers": enc_layers,
        "enc_out": enc_out,
        "dec_layers": dec_layers,
        "dec_out": dec_out,
        "logits": logits,
    }
    return logits[-1], cache
