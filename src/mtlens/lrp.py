"""Layer-wise relevance propagation through the encoder-decoder.

Each sentence pair is teacher-forced once: one forward pass over the
source and [BOS] + the target minus its last token. With the causal
mask, decoder row t-1 of that pass is what a pass over step t's prefix
alone would compute, so step t's top-1 logit is the argmax of row t-1
of dec_out @ out_w + out_b. Relevance is seeded as 1.0 on that logit
and redistributed backward to the input embeddings by one routine,
_layer_relevance, which walks each layer's sublayer table (see
transformer.py) from the last pair to the first. Propagation rules:

* linear maps use the epsilon rule, R_i = sum_j x_i w_ij /
  (z_j + eps*sign(z_j)) * R_j with eps = 1e-6 (the bias's share of a
  unit's output is simply not passed on);
* attention is linearized around the cached attention probabilities:
  relevance flows through the value path weighted by those
  probabilities, the query/key paths receive none;
* residual additions split relevance componentwise in proportion to
  each addend over the stabilized sum;
* layer norm is a frozen affine map (cached mean/std as constants),
  so each unit keeps only the share of its own linear term;
* ReLU passes relevance through unchanged.

Once the activations are cached every rule is linear in the relevance,
so a block of steps runs backward together, one step per index of a
leading batch axis; BLOCK_ELEMENTS caps the block so the batched
arrays stay small. Decoder rows at or past a step stay exact zeros in
that step's relevance: its seed is 0 there, every rule maps a zero row
to a zero row, and the masked attention probabilities are exactly 0,
so no later row passes anything to an earlier one. So a block carries
only the decoder rows before its last step backward: each decoder
layer gets its caches cut to those rows (views, no copies), while
cross-attention keeps the whole encoder memory. The results differ
from one pass per step only by floating-point rounding.

The forward cache keeps each activation once, so the backward rebuilds
the three values it does not keep with the expressions the forward
evaluated, bit for bit: a layer norm's input as the sublayer's
in + out, an attention context as probs @ v with its heads merged,
and the ReLU output as max(z1, 0). A context is rebuilt for one layer
at a time over all its rows, and cut after: a product over fewer rows
can round differently. Each rule consumes the relevance it is handed
(the layer-norm factor, the input's residual share and the epsilon
rule's division scale it in place, and a feed-forward writes its w1
product into its spent residual share), and the backward never writes
into a cache array or a weight. With ffn = 2 x dim, a block's working
set peaks in a decoder self-attention at six relevance arrays of dim
columns: the layer's relevance, the sum over the encoder output and
the cross-attention's share of it, the spent residual share, the
value relevance and its product.

Conservation is not enforced per layer. After the backward pass each
input token's contribution is aggregated over its embedding neurons
(position encoding included) with negative neuron relevances clipped
to zero, and the whole set is renormalized to sum to 1, i.e.
conservation holds across processed tokens: the source contributions
plus the contributions of target prefix positions before the current
step always total 1, and positions at or past the step have none by
construction. The BOS marker feeding the decoder is excluded from
that set. At step 1 the target side is empty, so the source carries
all relevance.

A NumericError names the first step whose prefix pass is non-finite,
whose logits are non-finite or whose relevance is degenerate. Raw
signed per-token sums are kept on each record for diagnostics.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import Sentence
from .errors import DataError, NumericError
from .transformer import BOS_ID, DECODER_LAYER, ENCODER_LAYER, TransformerModel, Vocab
from .transformer import _heads, _unheads, forward

EPS = 1e-6
# elements of one relevance array per backward batch: a block of steps
# holds about (max(source, target length) x max(dim, ffn)) per step
BLOCK_ELEMENTS = 1 << 17


def _stab(z):
    return z + EPS * np.where(z >= 0.0, 1.0, -1.0)


def linear_relevance(x, w, z, rel_out, out=None):
    """Epsilon-rule backward through z = x @ w (+ bias); consumes rel_out.

    x: (..., in), w: (in, out), z and rel_out: (..., out); rel_out may
    have leading batch axes beyond z's. rel_out is divided in place, so
    the caller must not read it again. out, when given, is a C-contiguous
    array of the result's shape that the product is written into.
    """
    rel_out /= _stab(z)
    scaled = rel_out.reshape(-1, rel_out.shape[-1])
    if out is not None:
        out = out.reshape(len(scaled), -1)
    # one 2-D product: numpy runs a broadcast product with a transposed
    # operand an order of magnitude slower than this
    back = np.matmul(scaled, w.T, out=out)
    back = back.reshape(rel_out.shape[:-1] + w.shape[:1])
    back *= x
    return back


def _residual_split(a, b, rel_sum):
    """Shares of a and of b in relevance rel_sum over a + b; consumes rel_sum.

    a's share is rel_sum, scaled in place; b's is a new array.
    """
    total = _stab(a + b)
    rel_b = b / total * rel_sum
    rel_sum *= a / total
    return rel_sum, rel_b


def _layer_norm_relevance(cache, rel_out):
    # frozen affine map: the linear term acts on the centered input
    # (the cached mean is a constant input shift), so each unit keeps
    # the share of its output not owed to the layer-norm bias; the
    # input is the residual sum, rebuilt as _layer formed it
    ln = cache["ln"]
    x = cache["in"] + cache["out"]
    linear_part = ln["gain"] * (x - ln["mean"]) / ln["std"]
    rel_out *= linear_part / _stab(ln["out"])
    return rel_out


def _attention_relevance(model, prefix, cache, rel_out):
    """Backward through one attention block; value path only.

    Returns relevance over kv_in (the query side receives none).
    """
    w = model.weights
    rel_ctx = linear_relevance(cache["ctx"], w[f"{prefix}_wo"], cache["out"], rel_out)
    probs = cache["probs"]  # (H, Tq, Tk)
    # c[t] = sum_s A[t,s] v[s]: epsilon rule over the s-sum, per dim
    weighted = _heads(rel_ctx, model.heads)  # (H, Tq, dh), a view of rel_ctx
    weighted /= _stab(_heads(cache["ctx"], model.heads))
    rel_v_h = probs.transpose(0, 2, 1) @ weighted  # (H, Tk, dh)
    del rel_ctx, weighted
    rel_v_h *= _heads(cache["v"], model.heads)
    rel_v = _unheads(rel_v_h)
    del rel_v_h
    return linear_relevance(cache["kv_in"], w[f"{prefix}_wv"], cache["v"], rel_v)


def _ffn_relevance(model, prefix, cache, rel_out):
    w = model.weights
    relu = np.maximum(cache["z1"], 0.0)  # as _ffn computed it
    rel_relu = linear_relevance(relu, w[f"{prefix}_w2"], cache["out"], rel_out)
    del relu  # freed before the w1 product, the backward's largest
    # ReLU: pass-through (inactive units already carry zero relevance);
    # rel_out is spent, so the w1 product is written into it
    return linear_relevance(cache["in"], w[f"{prefix}_w1"], cache["z1"], rel_relu, out=rel_out)


def _layer_relevance(model, prefix, sublayers, caches, rel):
    """Backward through one layer of a sublayer table, last sublayer first.

    Returns the relevance over the layer input and over the memory that
    "cross" attends to (None for a table without "cross"). Consumes rel.
    """
    rel_memory = None
    for (name, _), cache in zip(reversed(sublayers), reversed(caches)):
        sub = f"{prefix}_{name}"
        rel, rel_sub = _residual_split(cache["in"], cache["out"], _layer_norm_relevance(cache, rel))
        if name == "ffn":
            rel += _ffn_relevance(model, sub, cache, rel_sub)
        elif name == "cross":
            # the query path gets nothing: rel is the residual share alone
            rel_memory = _attention_relevance(model, sub, cache, rel_sub)
        else:
            rel += _attention_relevance(model, sub, cache, rel_sub)
    return rel, rel_memory


def _with_context(caches, heads):
    """One layer's sublayer caches, each attention's with its context "ctx".

    The context is rebuilt as _attention computed it, over all the
    layer's rows: a product over fewer rows (a block's cut, below) can
    round differently, so cuts are taken of the rebuilt context.
    """
    return [
        {**cache, "ctx": _unheads(cache["probs"] @ _heads(cache["v"], heads))}
        if "probs" in cache else cache
        for cache in caches
    ]


def _live_rows(caches, n):
    """One decoder layer's sublayer caches cut to their first n rows (views).

    Cross-attention keeps the encoder memory it attends to (kv_in, v)
    whole; the layer-norm gain is per unit, not per row.
    """
    cut = []
    for (name, _), cache in zip(DECODER_LAYER, caches):
        rows = {key: value[:n] for key, value in cache.items() if key not in ("ln", "probs")}
        ln = cache["ln"]
        rows["ln"] = {key: value if key == "gain" else value[:n] for key, value in ln.items()}
        if name == "self":
            rows["probs"] = cache["probs"][:, :n, :n]
        elif name == "cross":
            rows.update(kv_in=cache["kv_in"], v=cache["v"], probs=cache["probs"][:, :n])
        cut.append(rows)
    return cut


@dataclass(frozen=True)
class RelevanceRecord:
    step: int  # 1-based decoding step
    source_rel: np.ndarray  # normalized contribution per source token
    target_rel: np.ndarray  # normalized contribution per prefix token (step-1 entries)
    raw_source_rel: np.ndarray  # signed pre-clip sums, diagnostics only
    raw_target_rel: np.ndarray
    predicted_id: int

    @property
    def r_source(self) -> float:
        return float(self.source_rel.sum())

    @property
    def r_target(self) -> float:
        return float(self.target_rel.sum())


def lrp_backward(
    model: TransformerModel, cache, first_step: int, targets
) -> list[RelevanceRecord]:
    """Relevance records for consecutive steps of one teacher-forced pass.

    cache is forward's cache of the pass; step first_step + i seeds 1.0
    on logit targets[i] of decoder row first_step + i - 1. The steps run
    as one batch on a leading axis. The first degenerate step raises a
    NumericError naming it.
    """
    for target in targets:
        if not 0 <= target < model.vocab_size:
            raise DataError(f"logit index {target} out of range")
    dec_out = cache["dec_out"]
    last_step = first_step + len(targets) - 1
    if first_step < 1 or last_step > dec_out.shape[0]:
        raise DataError(f"steps {first_step}..{last_step} out of range")
    rows = np.arange(first_step - 1, last_step)

    batch = np.arange(len(rows))
    z = cache["logits"][rows, targets]
    # rows at or past last_step carry no relevance in any step of the block
    rel_dec = np.zeros((len(rows), last_step, dec_out.shape[1]))
    rel_dec[batch, rows] = (
        dec_out[rows] * model.weights["out_w"][:, targets].T / _stab(z)[:, None]
    )
    rel = np.zeros((len(rows),) + cache["enc_out"].shape)  # over the encoder output
    for i in reversed(range(model.layers)):
        caches = _live_rows(_with_context(cache["dec_layers"][i], model.heads), last_step)
        rel_dec, rel_enc = _layer_relevance(model, f"dec{i}", DECODER_LAYER, caches, rel_dec)
        rel += rel_enc
        del rel_enc

    for i in reversed(range(model.layers)):
        caches = _with_context(cache["enc_layers"][i], model.heads)
        rel, _ = _layer_relevance(model, f"enc{i}", ENCODER_LAYER, caches, rel)

    records = []
    for b, row in enumerate(rows):
        step = int(row) + 1
        rel_src_embed = rel[b]
        rel_prefix = rel_dec[b, 1:step]  # y_1 .. y_{t-1}: BOS and rows at or past t are out
        raw_source = rel_src_embed.sum(axis=1)
        raw_target = rel_prefix.sum(axis=1)
        # clip negative neuron relevances while aggregating each token; a
        # contribution is zero only when every one of its neurons is non-positive
        clipped_source = np.clip(rel_src_embed, 0.0, None).sum(axis=1)
        clipped_target = np.clip(rel_prefix, 0.0, None).sum(axis=1)
        clipped = np.concatenate([clipped_source, clipped_target])
        total = clipped.sum()
        if total <= 0.0:
            raise NumericError(f"step {step}: degenerate relevance: all token contributions <= 0")
        normalized = clipped / total
        n_src = raw_source.shape[0]
        records.append(
            RelevanceRecord(
                step=step,
                source_rel=normalized[:n_src],
                target_rel=normalized[n_src:],
                raw_source_rel=raw_source,
                raw_target_rel=raw_target,
                predicted_id=int(targets[b]),
            )
        )
    return records


def _clean_pass(model, src_ids, prefix):
    """Forward over the longest prefix of prefix whose steps all pass.

    Returns that pass's cache (None when step 1 fails) and the
    NumericError of the first failing step (None when every step passes).
    """
    try:
        return forward(model, src_ids, prefix)[1], None
    except NumericError as exc:
        failure = NumericError(f"step {len(prefix)}: {exc}")
    # a non-finite decoder row spills NaN into the rows before it (0 * inf
    # through the masked attention weights), so the full pass cannot say
    # which step failed first; the prefix passes of the steps can
    cache = None
    for t in range(1, len(prefix)):
        try:
            cache = forward(model, src_ids, prefix[:t])[1]
        except NumericError as exc:
            return cache, NumericError(f"step {t}: {exc}")
    return cache, failure


def contributions(
    model: TransformerModel, src: Sentence, tgt: Sentence, vocab: Vocab
) -> list[RelevanceRecord]:
    """Teacher-forced relevance records, one per target position."""
    if len(src.tokens) == 0:
        raise DataError("empty source sentence")
    if len(tgt.tokens) == 0:
        raise DataError("empty target sentence")
    src_ids = vocab.encode(src.tokens)
    tgt_ids = vocab.encode(tgt.tokens)
    cache, failure = _clean_pass(model, src_ids, [BOS_ID] + tgt_ids[:-1])
    records = []
    if cache is not None:
        top1 = cache["logits"].argmax(axis=1)
        per_step = max(len(src_ids), len(tgt_ids)) * max(model.dim, model.ffn)
        block = max(1, BLOCK_ELEMENTS // per_step)
        for start in range(0, len(top1), block):
            targets = top1[start : start + block]
            records.extend(lrp_backward(model, cache, start + 1, targets))
    if failure is not None:
        raise failure
    return records


@dataclass(frozen=True)
class ContributionStats:
    avg_source_contribution: float | None
    source_entropy: float | None
    target_entropy: float | None
    steps: int
    target_steps: int  # steps that entered the target-entropy mean


def entropy(p) -> float:
    """Natural-log entropy of a distribution; 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def contribution_stats(records) -> ContributionStats:
    """Aggregate step records (flattened over a corpus).

    Entropies are computed on each step's relevance vector after
    renormalizing it to sum 1; steps whose side has zero total mass
    are excluded from that side's mean. With no records at all, the
    three means are undefined (None).
    """
    records = list(records)
    if not records:
        return ContributionStats(None, None, None, 0, 0)
    src_contrib = []
    src_entropies = []
    tgt_entropies = []
    for rec in records:
        r_src = rec.r_source
        src_contrib.append(r_src)
        if r_src > 0.0:
            src_entropies.append(entropy(rec.source_rel / r_src))
        r_tgt = rec.r_target
        if rec.target_rel.size > 0 and r_tgt > 0.0:
            tgt_entropies.append(entropy(rec.target_rel / r_tgt))
    return ContributionStats(
        avg_source_contribution=float(np.mean(src_contrib)),
        source_entropy=float(np.mean(src_entropies)) if src_entropies else 0.0,
        target_entropy=float(np.mean(tgt_entropies)) if tgt_entropies else 0.0,
        steps=len(records),
        target_steps=len(tgt_entropies),
    )
