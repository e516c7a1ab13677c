"""Reference relevance propagation, one forward and one backward pass per step.

This is the LRP `mtlens.lrp` shipped before it moved to one
teacher-forced pass per sentence pair with the backward pass batched
over blocks of steps. At step t it reruns the forward pass on the
prefix [BOS] + tgt[:t - 1] and propagates 1.0 from the top-1 logit of
the prefix's last row back through that pass alone. The propagation
rules are copied here with their shapes of one step, so a change to the
production rules cannot hide in the oracle. The forward pass is the
production one: `tests/naive_transformer.py` is its own oracle. Its
cache keeps neither the layer norm's input, nor the attention context,
nor the ReLU output, so the rules here rebuild them as the forward
computed them, in + out, probs @ v with the heads merged, and
max(z1, 0), as the production rules do; they allocate every result
afresh and never write into their arguments, where the production
backward consumes the relevance it is handed.

all_rows_backward is the batched backward `mtlens.lrp` shipped before
it cut each block's decoder pass to the rows before the block's last
step: it carries all T decoder rows through every decoder layer. It
runs the production rules (the per-step oracle above pins those), so
comparing it with `mtlens.lrp.lrp_backward` tests the cut alone.
"""

import numpy as np

from mtlens import lrp
from mtlens.errors import DataError, NumericError
from mtlens.lrp import RelevanceRecord
from mtlens.transformer import BOS_ID, DECODER_LAYER, ENCODER_LAYER, forward

EPS = 1e-6


def _heads(x, heads):
    t, d = x.shape
    return x.reshape(t, heads, d // heads).transpose(1, 0, 2)  # (H, T, dh)


def _unheads(x):
    h, t, dh = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * dh)


def _stab(z):
    return z + EPS * np.where(z >= 0.0, 1.0, -1.0)


def linear_relevance(x, w, z, rel_out):
    return x * ((rel_out / _stab(z)) @ np.transpose(w))


def _residual_split(a, b, rel_sum):
    total = _stab(a + b)
    return a / total * rel_sum, b / total * rel_sum


def _layer_norm_relevance(cache, rel_out):
    ln = cache["ln"]
    x = cache["in"] + cache["out"]  # the residual sum the layer norm read
    linear_part = ln["gain"] * (x - ln["mean"]) / ln["std"]
    return linear_part / _stab(ln["out"]) * rel_out


def _attention_relevance(model, prefix, cache, rel_out):
    w = model.weights
    v_h = _heads(cache["v"], model.heads)
    probs = cache["probs"]  # (H, Tq, Tk)
    ctx = _unheads(probs @ v_h)  # the context the forward computed
    rel_ctx = linear_relevance(ctx, w[f"{prefix}_wo"], cache["out"], rel_out)
    ctx_h = _heads(ctx, model.heads)
    rel_ctx_h = _heads(rel_ctx, model.heads)
    weighted = rel_ctx_h / _stab(ctx_h)  # (H, Tq, dh)
    rel_v_h = v_h * (probs.transpose(0, 2, 1) @ weighted)  # (H, Tk, dh)
    rel_v = _unheads(rel_v_h)
    return linear_relevance(cache["kv_in"], w[f"{prefix}_wv"], cache["v"], rel_v)


def _ffn_relevance(model, prefix, cache, rel_out):
    w = model.weights
    relu = np.maximum(cache["z1"], 0.0)
    rel_relu = linear_relevance(relu, w[f"{prefix}_w2"], cache["out"], rel_out)
    return linear_relevance(cache["in"], w[f"{prefix}_w1"], cache["z1"], rel_relu)


def _layer_relevance(model, prefix, sublayers, caches, rel):
    rel_memory = None
    for (name, _), cache in zip(reversed(sublayers), reversed(caches)):
        sub = f"{prefix}_{name}"
        rel_sum = _layer_norm_relevance(cache, rel)
        rel_direct, rel_sub = _residual_split(cache["in"], cache["out"], rel_sum)
        if name == "ffn":
            rel = rel_direct + _ffn_relevance(model, sub, cache, rel_sub)
        elif name == "cross":
            rel_memory = _attention_relevance(model, sub, cache, rel_sub)
            rel = rel_direct  # the query path gets nothing
        else:
            rel = rel_direct + _attention_relevance(model, sub, cache, rel_sub)
    return rel, rel_memory


def lrp_backward(model, cache, target: int) -> RelevanceRecord:
    """Propagate relevance of the given logit back to the input tokens."""
    logits = cache["logits"][-1]
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


def contributions(model, src, tgt, vocab) -> list[RelevanceRecord]:
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


def all_rows_backward(model, cache, first_step: int, targets) -> list[RelevanceRecord]:
    """Records for consecutive steps, every decoder row carried backward."""
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
    rel_dec = np.zeros((len(rows),) + dec_out.shape)
    rel_dec[batch, rows] = (
        dec_out[rows] * model.weights["out_w"][:, targets].T / _stab(z)[:, None]
    )
    rel_enc_total = np.zeros((len(rows),) + cache["enc_out"].shape)
    t_dec, t_src = dec_out.shape[0], cache["enc_out"].shape[0]
    for i in reversed(range(model.layers)):
        caches = lrp._backward_caches(cache["dec_layers"][i], DECODER_LAYER, model.heads, t_dec)
        rel_dec, rel_enc = lrp._layer_relevance(model, f"dec{i}", DECODER_LAYER, caches, rel_dec)
        rel_enc_total += rel_enc

    rel = rel_enc_total
    for i in reversed(range(model.layers)):
        caches = lrp._backward_caches(cache["enc_layers"][i], ENCODER_LAYER, model.heads, t_src)
        rel, _ = lrp._layer_relevance(model, f"enc{i}", ENCODER_LAYER, caches, rel)

    records = []
    for b, row in enumerate(rows):
        step = int(row) + 1
        rel_src_embed = rel[b]
        rel_prefix = rel_dec[b, 1:step]
        raw_source = rel_src_embed.sum(axis=1)
        raw_target = rel_prefix.sum(axis=1)
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
