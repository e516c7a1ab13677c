import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrp_oracle
from mtlens import lrp
from mtlens.errors import DataError, NumericError
from mtlens.lrp import (
    contribution_stats,
    contributions,
    entropy,
    linear_relevance,
    lrp_backward,
)
from mtlens.rng import SplitMix64
from mtlens.transformer import (
    BOS_ID,
    DECODER_LAYER,
    ENCODER_LAYER,
    RESERVED,
    Vocab,
    forward,
    init_model,
    load_model,
    load_vocab,
)

from conftest import DATA_DIR, make_sentence

WORDS = tuple(f"w{i}" for i in range(20))
VOCAB = Vocab(RESERVED + WORDS)


def toy_model(seed=0, layers=2, heads=2, dim=16, ffn=32):
    return init_model(
        layers=layers, heads=heads, dim=dim, ffn=ffn, vocab_size=len(VOCAB), seed=seed
    )


def test_epsilon_rule_single_linear():
    # z = 1*2 + 2*1 = 4; both inputs contribute 2, so relevance splits 0.5/0.5
    x = np.array([1.0, 2.0])
    w = np.array([[2.0], [1.0]])
    z = x @ w
    rel = linear_relevance(x, w, z, np.array([1.0]))
    assert rel[0] == pytest.approx(0.5, abs=1e-6)
    assert rel[1] == pytest.approx(0.5, abs=1e-6)
    assert rel.sum() == pytest.approx(1.0, abs=1e-6)


def test_step_one_source_carries_everything():
    m = toy_model(seed=4)
    src = make_sentence("w1 w2 w3")
    tgt = make_sentence("w4")
    records = contributions(m, src, tgt, VOCAB)
    assert len(records) == 1
    rec = records[0]
    assert rec.step == 1
    assert rec.target_rel.size == 0
    assert rec.r_source == pytest.approx(1.0, abs=1e-6)


def test_record_count_matches_target_length():
    m = toy_model(seed=11)
    src = make_sentence("w1 w2")
    tgt = make_sentence("w3 w4 w5")
    records = contributions(m, src, tgt, VOCAB)
    assert [r.step for r in records] == [1, 2, 3]


def test_causality_target_entries():
    m = toy_model(seed=2)
    src = make_sentence("w1 w2 w3 w4")
    tgt = make_sentence("w5 w6 w7 w8")
    for rec in contributions(m, src, tgt, VOCAB):
        assert rec.target_rel.shape == (rec.step - 1,)
        assert rec.source_rel.shape == (4,)


def test_conservation_random_models():
    rng = SplitMix64(909)
    for trial in range(25):
        heads = 1 + rng.randrange(2)
        m = toy_model(
            seed=trial,
            layers=1 + rng.randrange(2),
            heads=heads,
            dim=8 if heads == 1 else 16,
            ffn=16,
        )
        src = make_sentence(" ".join(WORDS[rng.randrange(20)] for _ in range(1 + rng.randrange(5))))
        tgt = make_sentence(" ".join(WORDS[rng.randrange(20)] for _ in range(1 + rng.randrange(5))))
        for rec in contributions(m, src, tgt, VOCAB):
            assert abs(rec.r_source + rec.r_target - 1.0) <= 1e-6
            assert np.all(rec.source_rel >= 0.0)
            assert np.all(rec.target_rel >= 0.0)
            assert 0.0 <= rec.r_source <= 1.0 + 1e-12


# -- raw conservation, before the BOS row is dropped and the rest clipped ------


def raw_row_totals(model, src_ids, tgt_ids):
    """Per step of one teacher-forced pass: its seed and its input rows' totals.

    Walks lrp_backward's layer loop over one block of every step, keeping
    the BOS row that records leave out. Returns the seed total
    (z - out_b[t]) / stab(z) per step, and per step the relevance totals
    of the source rows and of every decoder input row, BOS first.
    """
    _, cache = forward(model, src_ids, [BOS_ID] + tgt_ids[:-1])
    steps = np.arange(len(tgt_ids))
    targets = cache["logits"].argmax(axis=1)
    z = cache["logits"][steps, targets]
    rel_dec = np.zeros((len(steps),) + cache["dec_out"].shape)
    rel_dec[steps, steps] = (
        cache["dec_out"] * model.weights["out_w"][:, targets].T / lrp._stab(z)[:, None]
    )
    rel_src = np.zeros((len(steps),) + cache["enc_out"].shape)
    for i in reversed(range(model.layers)):
        caches = lrp._backward_caches(cache["dec_layers"][i], DECODER_LAYER, model.heads, len(steps))
        rel_dec, rel_memory = lrp._layer_relevance(model, f"dec{i}", DECODER_LAYER, caches, rel_dec)
        rel_src += rel_memory
    for i in reversed(range(model.layers)):
        layer = cache["enc_layers"][i]
        caches = lrp._backward_caches(layer, ENCODER_LAYER, model.heads, len(src_ids))
        rel_src, _ = lrp._layer_relevance(model, f"enc{i}", ENCODER_LAYER, caches, rel_src)
    seed = (z - model.weights["out_b"][targets]) / lrp._stab(z)
    return seed, rel_src.sum(axis=2), rel_dec.sum(axis=2)


TINY_EPS = 1e-12


def test_raw_relevance_is_conserved_up_to_the_stabiliser():
    # With zero biases (init_model) every rule passes on all it receives
    # but what the stabiliser eps*sign(z) absorbs, so source plus decoder
    # rows, BOS included, hold the seed; the absorption is first order in
    # eps, so the gap at the default EPS is EPS / TINY_EPS times the gap at
    # TINY_EPS. Tolerances scale with the relevance mass that flows, since
    # the rows' totals cancel (BOS alone can carry 1e4 times the seed).
    rng = SplitMix64(5)
    for trial in range(40):
        model = toy_model(seed=trial, layers=1 + rng.randrange(3), heads=1 + rng.randrange(2))
        assert not any(np.any(w) for name, w in model.weights.items() if "_b" in name)
        src = make_sentence(" ".join(WORDS[rng.randrange(20)] for _ in range(1 + rng.randrange(9))))
        tgt = make_sentence(" ".join(WORDS[rng.randrange(20)] for _ in range(1 + rng.randrange(9))))
        ids = VOCAB.encode(src.tokens), VOCAB.encode(tgt.tokens)
        with mock.patch.object(lrp, "EPS", TINY_EPS):
            seed, source, decoder = raw_row_totals(model, *ids)
        mass = 1.0 + np.abs(source).sum(axis=1) + np.abs(decoder).sum(axis=1)
        tiny_gap = np.abs(source.sum(axis=1) + decoder.sum(axis=1) - seed)
        assert np.all(tiny_gap <= 1e-8 * mass), trial

        seed, source, decoder = raw_row_totals(model, *ids)
        gap = np.abs(source.sum(axis=1) + decoder.sum(axis=1) - seed)
        assert np.all(gap <= 1.1 * lrp.EPS / TINY_EPS * tiny_gap + 1e-8 * mass), trial
        # the walk is the production backward: the records' raw sums are its rows
        for b, rec in enumerate(contributions(model, src, tgt, VOCAB)):
            assert np.array_equal(rec.raw_source_rel, source[b]), trial
            assert np.array_equal(rec.raw_target_rel, decoder[b, 1 : b + 1]), trial


def test_determinism_bitwise():
    m = toy_model(seed=13)
    src = make_sentence("w1 w2 w9")
    tgt = make_sentence("w3 w4")
    rec_a = contributions(m, src, tgt, VOCAB)
    rec_b = contributions(m, src, tgt, VOCAB)
    for a, b in zip(rec_a, rec_b):
        assert np.array_equal(a.source_rel, b.source_rel)
        assert np.array_equal(a.target_rel, b.target_rel)
        assert np.array_equal(a.raw_source_rel, b.raw_source_rel)


def test_lrp_backward_bad_target_index():
    m = toy_model(seed=1)
    _, cache = forward(m, [4, 5], [0])
    with pytest.raises(DataError, match="logit index"):
        lrp_backward(m, cache, 1, [len(VOCAB)])
    with pytest.raises(DataError, match="steps 2..2 out of range"):
        lrp_backward(m, cache, 2, [0])


def test_oov_tokens_map_to_unk():
    m = toy_model(seed=6)
    src = make_sentence("unknown tokens here")
    tgt = make_sentence("w1")
    records = contributions(m, src, tgt, VOCAB)
    assert records[0].source_rel.shape == (3,)


def test_empty_sentences_rejected():
    m = toy_model(seed=0)
    with pytest.raises(DataError):
        contributions(m, make_sentence(""), make_sentence("w1"), VOCAB)
    with pytest.raises(DataError):
        contributions(m, make_sentence("w1"), make_sentence(""), VOCAB)


def test_degenerate_relevance_names_its_step():
    layer_relevance = lrp._layer_relevance

    def zero_relevance(*args):
        rel, rel_memory = layer_relevance(*args)
        return rel * 0.0, None if rel_memory is None else rel_memory * 0.0

    src, tgt = make_sentence("w1 w2"), make_sentence("w3 w4")
    with mock.patch.object(lrp, "_layer_relevance", zero_relevance):
        with pytest.raises(NumericError, match="^step 1: degenerate relevance"):
            contributions(toy_model(seed=3), src, tgt, VOCAB)


def test_entropy_uniform_and_point_mass():
    assert entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(math.log(4))
    assert entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_bounds_every_step():
    rng = SplitMix64(515)
    for trial in range(10):
        m = toy_model(seed=100 + trial)
        n_src = 1 + rng.randrange(5)
        src = make_sentence(" ".join(WORDS[rng.randrange(20)] for _ in range(n_src)))
        tgt = make_sentence(" ".join(WORDS[rng.randrange(20)] for _ in range(3)))
        for rec in contributions(m, src, tgt, VOCAB):
            if rec.r_source > 0:
                h = entropy(rec.source_rel / rec.r_source)
                assert -1e-12 <= h <= math.log(n_src) + 1e-12
            if rec.target_rel.size and rec.r_target > 0:
                h = entropy(rec.target_rel / rec.r_target)
                assert -1e-12 <= h <= math.log(rec.target_rel.size) + 1e-12


def test_stats_avg_source_contribution():
    m = toy_model(seed=8)
    recs = []
    for pair in (("w1 w2", "w3 w4"), ("w5", "w6 w7 w8")):
        recs.extend(
            contributions(m, make_sentence(pair[0]), make_sentence(pair[1]), VOCAB)
        )
    stats = contribution_stats(recs)
    expected = sum(r.r_source for r in recs) / len(recs)
    assert stats.avg_source_contribution == pytest.approx(expected)
    assert stats.steps == len(recs)
    assert stats.source_entropy >= 0.0
    assert stats.target_entropy >= 0.0


def test_stats_single_source_token_entropy_zero():
    m = toy_model(seed=3)
    recs = contributions(m, make_sentence("w1"), make_sentence("w2 w3"), VOCAB)
    stats = contribution_stats(recs)
    assert stats.source_entropy == pytest.approx(0.0, abs=1e-12)


def test_stats_of_no_records_are_undefined():
    stats = contribution_stats([])
    assert (stats.avg_source_contribution, stats.source_entropy, stats.target_entropy) == (
        None, None, None
    )
    assert (stats.steps, stats.target_steps) == (0, 0)


def test_stats_hand_mean():
    class FakeRec:
        def __init__(self, src, tgt):
            self.source_rel = np.array(src)
            self.target_rel = np.array(tgt)

        @property
        def r_source(self):
            return float(self.source_rel.sum())

        @property
        def r_target(self):
            return float(self.target_rel.sum())

    stats = contribution_stats(
        [FakeRec([1.0], []), FakeRec([0.25, 0.25], [0.5])]
    )
    assert stats.avg_source_contribution == pytest.approx(0.75)


def test_golden_relevance_trace_regression():
    model = load_model(DATA_DIR / "fixture.wts")
    vocab = load_vocab(DATA_DIR / "vocab.txt")
    with open(DATA_DIR / "golden_lrp.json", "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    records = contributions(
        model, make_sentence(golden["src"]), make_sentence(golden["tgt"]), vocab
    )
    got = [r.r_source for r in records]
    assert len(got) == len(golden["r_source_per_step"])
    for g, w in zip(got, golden["r_source_per_step"]):
        assert g == pytest.approx(w, abs=1e-6)
    step1 = records[0].source_rel
    for g, w in zip(step1, golden["source_rel_step1"]):
        assert g == pytest.approx(w, abs=1e-6)


# -- the one-pass records against the per-step oracle -------------------------

FIELDS = ("source_rel", "target_rel", "raw_source_rel", "raw_target_rel")
# budgets giving blocks of one step, a few steps, and the production size
BUDGETS = (1, 200, 1000, lrp.BLOCK_ELEMENTS)


def assert_matches_oracle(model, src, tgt, vocab, budget):
    with mock.patch.object(lrp, "BLOCK_ELEMENTS", budget):
        got = contributions(model, src, tgt, vocab)
    want = lrp_oracle.contributions(model, src, tgt, vocab)
    assert [(r.step, r.predicted_id) for r in got] == [(r.step, r.predicted_id) for r in want]
    for a, b in zip(got, want):
        for name in FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape, name
            assert np.all(np.abs(x - y) <= 1e-8), name


# a few words and two out-of-vocabulary ones, so sentences repeat tokens
sentences = st.lists(
    st.sampled_from(WORDS[:6] + ("oov1", "oov2")), min_size=1, max_size=12
).map(lambda toks: make_sentence(" ".join(toks)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    layers=st.integers(1, 2),
    heads=st.integers(1, 2),
    seed=st.integers(0, 1 << 16),
    src=sentences,
    tgt=sentences,
    budget=st.sampled_from(BUDGETS),
)
def test_one_pass_matches_per_step_oracle(layers, heads, seed, src, tgt, budget):
    model = toy_model(seed=seed, layers=layers, heads=heads)
    assert_matches_oracle(model, src, tgt, VOCAB, budget)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 1 << 16),
    src=sentences,
    tgt=sentences,
    side=st.sampled_from(["enc_layers", "dec_layers"]),
    layer=st.integers(0, 1),
    sublayer=st.integers(0, 2),
    batch=st.integers(1, 3),
    residual_sum=st.sampled_from([0.0, lrp.EPS / 3, -lrp.EPS / 3]),
)
def test_norm_and_residual_is_the_two_rules_it_merged(
    seed, src, tgt, side, layer, sublayer, batch, residual_sum
):
    # bit for bit: the oracle keeps the layer-norm rule and the residual
    # split as two functions that each rebuild the residual sum in + out
    model = toy_model(seed=seed)
    tgt_ids = VOCAB.encode(tgt.tokens)
    _, cache = forward(model, VOCAB.encode(src.tokens), [BOS_ID] + tgt_ids[:-1])
    layer_caches = cache[side][layer]
    sub = dict(layer_caches[sublayer % len(layer_caches)])
    # one residual sum within EPS of zero, where the stabiliser's sign decides
    sub["out"] = sub["out"].copy()
    sub["out"][-1, -1] = residual_sum - sub["in"][-1, -1]
    rng = np.random.default_rng(seed)
    rel = rng.standard_normal((batch,) + sub["in"].shape)
    rel[0, 0] = -0.0
    want_in, want_sub = lrp_oracle._residual_split(
        sub["in"], sub["out"], lrp_oracle._layer_norm_relevance(sub, rel)
    )
    got_in = rel.copy()
    got_sub = lrp._norm_and_residual(sub, got_in)
    assert got_in.tobytes() == want_in.tobytes()
    assert got_sub.tobytes() == want_sub.tobytes()


@pytest.mark.parametrize("budget", BUDGETS)
def test_fixture_pair_matches_per_step_oracle(budget):
    model = load_model(DATA_DIR / "fixture.wts")
    vocab = load_vocab(DATA_DIR / "vocab.txt")
    with open(DATA_DIR / "golden_lrp.json", "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    src, tgt = make_sentence(golden["src"]), make_sentence(golden["tgt"])
    assert_matches_oracle(model, src, tgt, vocab, budget)
    got, want = all_rows_records(model, src, tgt, vocab, budget)
    # 4 x 4 tokens, 32 ffn units: budgets 1 and 200 give one-step blocks
    assert_matches_all_rows(got, want, exact=budget >= 1000)


def test_long_fixture_pair_runs_in_two_blocks():
    # the golden `lrp` command on tests/data/long, at the production budget
    model = load_model(DATA_DIR / "fixture.wts")
    vocab = load_vocab(DATA_DIR / "vocab.txt")
    src, tgt = (make_sentence((DATA_DIR / "long" / name).read_text(encoding="utf-8").strip())
                for name in ("src.txt", "ref.txt"))
    with mock.patch.object(lrp, "lrp_backward", wraps=lrp.lrp_backward) as backward:
        records = contributions(model, src, tgt, vocab)
    assert len(records) == len(tgt.tokens) == 76
    assert [len(call.args[3]) for call in backward.call_args_list] == [53, 23]


# -- live decoder rows against the all-rows batched backward -----------------


def all_rows_records(model, src, tgt, vocab, budget):
    """Records of the live-row backward and of the all-rows oracle, same blocks."""
    with mock.patch.object(lrp, "BLOCK_ELEMENTS", budget):
        got = contributions(model, src, tgt, vocab)
        with mock.patch.object(lrp, "lrp_backward", lrp_oracle.all_rows_backward):
            want = contributions(model, src, tgt, vocab)
    return got, want


# Two shapes move a last bit, both where a product of one row becomes a
# vector product (BLAS gemv, not gemm): a block holding step 1 alone, whose
# decoder maps then see one row, and a one-token source, whose cross-attention
# sums over the block's rows rather than all T. Everything else is bit-equal.
LAST_BITS = 1e-11


def assert_matches_all_rows(got, want, exact):
    assert [(r.step, r.predicted_id) for r in got] == [(r.step, r.predicted_id) for r in want]
    for a, b in zip(got, want):
        for name in FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape, name
            if exact:
                assert np.array_equal(x, y), name
            else:
                assert np.all(np.abs(x - y) <= LAST_BITS), name


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    layers=st.integers(1, 2),
    heads=st.integers(1, 2),
    seed=st.integers(0, 1 << 16),
    src=sentences,
    tgt=sentences,
    budget=st.sampled_from(BUDGETS),
)
def test_live_rows_match_all_rows_oracle(layers, heads, seed, src, tgt, budget):
    model = toy_model(seed=seed, layers=layers, heads=heads)
    got, want = all_rows_records(model, src, tgt, VOCAB, budget)
    # at the production budget every toy pair is one block of all its steps
    exact = budget == lrp.BLOCK_ELEMENTS and len(src.tokens) > 1
    assert_matches_all_rows(got, want, exact)


def test_decoder_backward_carries_live_rows_only():
    # dim 16, ffn 32 and a 7-token target: 7 * 32 elements per step, so a
    # budget of 1000 gives blocks of 4 steps: steps 1-4, then steps 5-7
    model = toy_model(seed=21, layers=2, heads=2)
    src, tgt = make_sentence("w1 w2"), make_sentence("w3 w4 w5 w6 w7 w8 w9")
    calls = []
    real = lrp._layer_relevance

    def spy(model, prefix, sublayers, caches, rel):
        if prefix.startswith("dec"):
            self_attn, cross, ffn = caches
            rows = rel.shape[1]
            assert self_attn["probs"].shape[1:] == (rows, rows)
            assert cross["probs"].shape[1:] == (rows, 2)
            assert cross["kv_in"].shape[0] == cross["v"].shape[0] == 2  # the whole memory
            for cache in caches:
                assert cache["in"].shape[0] == cache["out"].shape[0] == rows
                assert cache["ln"]["out"].shape[0] == cache["ln"]["mean"].shape[0] == rows
            assert ffn["z1"].shape[0] == rows
            calls.append((rel.shape[0], rows))
        return real(model, prefix, sublayers, caches, rel)

    with mock.patch.object(lrp, "BLOCK_ELEMENTS", 1000), mock.patch.object(
        lrp, "_layer_relevance", spy
    ):
        records = contributions(model, src, tgt, VOCAB)
    assert len(records) == 7
    # each block's decoder rows are its last step: (block size, last step) per layer
    assert calls == [(4, 4)] * 2 + [(3, 7)] * 2
    target_len, block = 7, 4
    row_steps = sum(
        (min(start + block, target_len) - start) * min(start + block, target_len)
        for start in range(0, target_len, block)
    )
    assert sum(b * rows for b, rows in calls) == model.layers * row_steps == 2 * 37


# -- what the forward keeps for the backward ----------------------------------

# The backward reads each sublayer's input, output and layer norm (whose
# input it rebuilds as in + out), an attention's value path (whose context
# it rebuilds as probs @ v) and a feed-forward's pre-activation (whose ReLU
# it rebuilds); nothing else is kept.
ATTENTION_KEYS = {"in", "out", "ln", "kv_in", "v", "probs"}
CACHE_KEYS = {"attn": ATTENTION_KEYS, "self": ATTENTION_KEYS, "cross": ATTENTION_KEYS,
              "ffn": {"in", "out", "ln", "z1"}}
LN_KEYS = {"mean", "std", "gain", "out"}


class ReadLog(dict):
    """A cache dict that notes each key read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_sublayer_caches_hold_exactly_what_the_backward_reads():
    model = toy_model(seed=8)
    src, tgt = VOCAB.encode(["w1", "w2", "w3"]), VOCAB.encode(["w4", "w5", "w6", "w7"])
    _, cache = forward(model, src, [BOS_ID] + tgt[:-1])
    for side, table in (("enc_layers", ENCODER_LAYER), ("dec_layers", DECODER_LAYER)):
        for layer in cache[side]:
            for (name, _), sub in zip(table, layer):
                assert set(sub) == CACHE_KEYS[name], name
                assert set(sub["ln"]) == LN_KEYS, name
    logged = []
    real = lrp._layer_relevance

    def spy(model, prefix, sublayers, caches, rel):
        caches = [ReadLog({**sub, "ln": ReadLog(sub["ln"])}) for sub in caches]
        logged.extend(zip([name for name, _ in sublayers], caches))
        return real(model, prefix, sublayers, caches, rel)

    with mock.patch.object(lrp, "_layer_relevance", spy):
        lrp_backward(model, cache, 1, cache["logits"].argmax(axis=1))
    assert len(logged) == model.layers * (len(ENCODER_LAYER) + len(DECODER_LAYER))
    for name, sub in logged:
        # the rules read the kept arrays and the attention context rebuilt for them
        rebuilt = set() if name == "ffn" else {"ctx"}
        assert set(sub) == sub.read == CACHE_KEYS[name] | rebuilt, name
        assert dict.__getitem__(sub, "ln").read == LN_KEYS, name


def freeze(node):
    """Mark every array in a cache or weight dict read-only, and the arrays it views."""
    while isinstance(node, np.ndarray):
        node.flags.writeable = False
        node = node.base
    if isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            freeze(child)


def test_backward_writes_into_neither_the_cache_nor_the_weights():
    model = toy_model(seed=12)
    src, tgt = VOCAB.encode(WORDS[:5]), VOCAB.encode(WORDS[5:12])
    _, cache = forward(model, src, [BOS_ID] + tgt[:-1])
    targets = cache["logits"].argmax(axis=1)
    # every step in one block, then blocks of three, whose decoder caches are cut
    blocks = [(1, targets)] + [(s + 1, targets[s : s + 3]) for s in range(0, len(targets), 3)]
    want = [lrp_backward(model, cache, first, steps) for first, steps in blocks]
    freeze(cache)
    freeze(model.weights)
    for (first, steps), records in zip(blocks, want):
        assert_matches_all_rows(lrp_backward(model, cache, first, steps), records, exact=True)


def kept_bytes(cache, weights):
    """Bytes of the distinct array buffers in a forward cache, weights aside."""
    buffers = {}

    def walk(node):
        if isinstance(node, np.ndarray):
            base = node if node.base is None else node.base
            buffers[id(base)] = base.nbytes
        elif isinstance(node, (dict, list)):
            for child in node.values() if isinstance(node, dict) else node:
                walk(child)

    walk(cache)
    for w in weights.values():  # the layer-norm gains
        buffers.pop(id(w if w.base is None else w.base), None)
    return sum(buffers.values())


def test_contributions_memory_is_the_cache_plus_one_block():
    # d=64 and a 20-token pair, so arrays outweigh Python objects; all 20
    # steps are one block, whose widest arrays hold steps x 20 rows x ffn
    model = toy_model(seed=5, dim=64, ffn=128)
    src = make_sentence(" ".join(WORDS[(7 * i) % 20] for i in range(20)))
    tgt = make_sentence(" ".join(WORDS[(3 * i + 1) % 20] for i in range(20)))
    src_ids, tgt_ids = VOCAB.encode(src.tokens), VOCAB.encode(tgt.tokens)
    cache = forward(model, src_ids, [BOS_ID] + tgt_ids[:-1])[1]
    kept = kept_bytes(cache, model.weights)
    del cache
    per_step = 20 * max(model.dim, model.ffn)
    steps = min(len(tgt_ids), lrp.BLOCK_ELEMENTS // per_step)
    block = 8 * steps * per_step
    assert steps == 20
    tracemalloc.start()
    try:
        contributions(model, src, tgt, VOCAB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # At most three blocks are live at once, in a decoder self-attention,
    # as six arrays of half a block (d = ffn / 2 wide): the caller's
    # relevance, the sum over the encoder output, the cross-attention's
    # share of it, the residual share the rule was handed (spent by then),
    # the value relevance and the product back. With row-sized temporaries
    # this peaks 3.25 blocks past the cache. With every rule allocating its
    # result afresh and the context cached, the peak was 5.7 blocks, in a
    # decoder feed-forward; caching the layer-norm input and the ReLU output
    # too (0.44 block here) and allocating every sum afresh, 7.7 blocks.
    assert peak < kept + 3.5 * block
