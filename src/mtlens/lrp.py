"""Layer-wise relevance propagation through the encoder-decoder.

Relevance is seeded as 1.0 on the top-1 logit of a decoding step and
redistributed backward to the input embeddings by one routine,
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

Raw signed per-token sums are kept on each record for diagnostics.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import Sentence
from .errors import DataError, NumericError
from .transformer import BOS_ID, DECODER_LAYER, ENCODER_LAYER, TransformerModel, Vocab
from .transformer import _heads, _unheads, forward

EPS = 1e-6


def _stab(z):
    return z + EPS * np.where(z >= 0.0, 1.0, -1.0)


def linear_relevance(x, w, z, rel_out):
    """Epsilon-rule backward through z = x @ w (+ bias).

    x: (..., in), w: (in, out), z and rel_out: (..., out).
    """
    return x * ((rel_out / _stab(z)) @ np.transpose(w))


def _residual_split(a, b, rel_sum):
    total = _stab(a + b)
    return a / total * rel_sum, b / total * rel_sum


def _layer_norm_relevance(ln_cache, rel_out):
    # frozen affine map: the linear term acts on the centered input
    # (the cached mean is a constant input shift), so each unit keeps
    # the share of its output not owed to the layer-norm bias
    x = ln_cache["x"]
    linear_part = ln_cache["gain"] * (x - ln_cache["mean"]) / ln_cache["std"]
    return linear_part / _stab(ln_cache["out"]) * rel_out


def _attention_relevance(model, prefix, cache, rel_out):
    """Backward through one attention block; value path only.

    Returns relevance over kv_in (the query side receives none).
    """
    w = model.weights
    rel_ctx = linear_relevance(cache["ctx"], w[f"{prefix}_wo"], cache["out"], rel_out)
    ctx_h = _heads(cache["ctx"], model.heads)
    rel_ctx_h = _heads(rel_ctx, model.heads)
    v_h = _heads(cache["v"], model.heads)
    probs = cache["probs"]  # (H, Tq, Tk)
    # c[t] = sum_s A[t,s] v[s]: epsilon rule over the s-sum, per dim
    weighted = rel_ctx_h / _stab(ctx_h)  # (H, Tq, dh)
    rel_v_h = v_h * (probs.transpose(0, 2, 1) @ weighted)  # (H, Tk, dh)
    rel_v = _unheads(rel_v_h)
    return linear_relevance(cache["kv_in"], w[f"{prefix}_wv"], cache["v"], rel_v)


def _ffn_relevance(model, prefix, cache, rel_out):
    w = model.weights
    rel_relu = linear_relevance(cache["relu"], w[f"{prefix}_w2"], cache["out"], rel_out)
    # ReLU: pass-through (inactive units already carry zero relevance)
    return linear_relevance(cache["in"], w[f"{prefix}_w1"], cache["z1"], rel_relu)


def _layer_relevance(model, prefix, sublayers, caches, rel):
    """Backward through one layer of a sublayer table, last sublayer first.

    Returns the relevance over the layer input and over the memory that
    "cross" attends to (None for a table without "cross").
    """
    rel_memory = None
    for (name, _), cache in zip(reversed(sublayers), reversed(caches)):
        sub = f"{prefix}_{name}"
        rel_sum = _layer_norm_relevance(cache["ln"], rel)
        rel_direct, rel_sub = _residual_split(cache["in"], cache["out"], rel_sum)
        if name == "ffn":
            rel = rel_direct + _ffn_relevance(model, sub, cache, rel_sub)
        elif name == "cross":
            rel_memory = _attention_relevance(model, sub, cache, rel_sub)
            rel = rel_direct  # the query path gets nothing
        else:
            rel = rel_direct + _attention_relevance(model, sub, cache, rel_sub)
    return rel, rel_memory


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


def lrp_backward(model: TransformerModel, cache, target: int) -> RelevanceRecord:
    """Propagate relevance of the given logit back to the input tokens."""
    logits = cache["logits"]
    if not 0 <= target < model.vocab_size:
        raise DataError(f"logit index {target} out of range")

    dec_out = cache["dec_out"]
    t_dec = dec_out.shape[0]
    last = dec_out[-1]
    z = logits[target]
    rel_last = last * model.weights["out_w"][:, target] / _stab(np.array(z))

    rel_dec = np.zeros_like(dec_out)
    rel_dec[-1] = rel_last
    rel_enc_total = np.zeros_like(cache["enc_out"])
    for i in reversed(range(model.layers)):
        rel_dec, rel_enc = _layer_relevance(
            model, f"dec{i}", DECODER_LAYER, cache["dec_layers"][i], rel_dec
        )
        rel_enc_total += rel_enc

    rel = rel_enc_total
    for i in reversed(range(model.layers)):
        rel, _ = _layer_relevance(model, f"enc{i}", ENCODER_LAYER, cache["enc_layers"][i], rel)
    rel_src_embed = rel

    raw_source = rel_src_embed.sum(axis=1)
    raw_target_all = rel_dec.sum(axis=1)  # includes BOS at position 0
    raw_target = raw_target_all[1:]  # real prefix tokens y_1 .. y_{t-1}

    # clip negative neuron relevances while aggregating each token; a
    # contribution is zero only when every one of its neurons is non-positive
    clipped_source = np.clip(rel_src_embed, 0.0, None).sum(axis=1)
    clipped_target = np.clip(rel_dec[1:], 0.0, None).sum(axis=1)
    clipped = np.concatenate([clipped_source, clipped_target])
    total = clipped.sum()
    if total <= 0.0:
        raise NumericError("degenerate relevance: all token contributions <= 0")
    normalized = clipped / total
    n_src = raw_source.shape[0]
    return RelevanceRecord(
        step=t_dec,
        source_rel=normalized[:n_src],
        target_rel=normalized[n_src:],
        raw_source_rel=raw_source,
        raw_target_rel=raw_target,
        predicted_id=int(target),
    )


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
    records = []
    for t in range(1, len(tgt_ids) + 1):
        prefix = [BOS_ID] + tgt_ids[: t - 1]
        try:
            logits, cache = forward(model, src_ids, prefix)
            top1 = int(np.argmax(logits))
            records.append(lrp_backward(model, cache, top1))
        except NumericError as exc:
            raise NumericError(f"step {t}: {exc}") from exc
    return records


@dataclass(frozen=True)
class ContributionStats:
    avg_source_contribution: float
    source_entropy: float
    target_entropy: float
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
    are excluded from that side's mean.
    """
    records = list(records)
    if not records:
        raise DataError("no relevance records to aggregate")
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
