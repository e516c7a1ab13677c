import json

import numpy as np
import pytest

from mtlens.errors import DataError
from mtlens.rng import SplitMix64
from mtlens.transformer import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED,
    UNK_ID,
    Vocab,
    build_vocab,
    forward,
    init_model,
    load_model,
    load_vocab,
    save_model,
    save_vocab,
)

from conftest import DATA_DIR, make_corpus
from naive_transformer import naive_forward


def test_reserved_ids():
    assert (BOS_ID, EOS_ID, UNK_ID, PAD_ID) == (0, 1, 2, 3)


def test_vocab_encode_unk_fallback():
    v = Vocab(RESERVED + ("hello", "world"))
    assert v.encode(["hello", "nope", "world"]) == [4, UNK_ID, 5]


def test_vocab_refuses_a_repeated_token():
    # the second id could never be encoded; ids count from line 1
    with pytest.raises(DataError, match=r"^line 7: token 'hello' repeats line 5$"):
        Vocab(RESERVED + ("hello", "world", "hello"))


def test_vocab_needs_the_reserved_entries():
    with pytest.raises(DataError, match="reserved entries"):
        Vocab(RESERVED[:3])
    # else "the" would encode as BOS and an unknown word as line 3's "x"
    with pytest.raises(DataError, match=r"^line 1: token 'the' where '<bos>' is reserved$"):
        Vocab(("the", "a", "x", "y", "cat"))


def test_build_vocab_sorted_and_reserved():
    c = make_corpus(["b a", "c a"])
    v = build_vocab([c])
    assert v.tokens[:4] == RESERVED
    assert v.tokens[4:] == ("a", "b", "c")


def test_vocab_roundtrip(tmp_path):
    v = build_vocab([make_corpus(["x y z"])])
    p = tmp_path / "v.txt"
    save_vocab(v, p)
    assert load_vocab(p).tokens == v.tokens


def test_vocab_limit():
    c = make_corpus([" ".join(f"w{i}" for i in range(600))])
    v = build_vocab([c], limit=100)
    assert len(v) == 100


def test_model_roundtrip_exact(tmp_path):
    m = init_model(layers=2, heads=2, dim=16, ffn=32, vocab_size=16, seed=5)
    p = tmp_path / "m.wts"
    save_model(m, p)
    m2 = load_model(p)
    assert (m2.layers, m2.heads, m2.dim, m2.ffn, m2.vocab_size) == (2, 2, 16, 32, 16)
    for name, arr in m.weights.items():
        assert np.array_equal(arr, m2.weights[name]), name


def test_seeded_init_reproduces_fixture_weights():
    # pins the seeded draw order: tests/data/fixture.wts came from this call
    vocab_size = len(load_vocab(DATA_DIR / "vocab.txt"))
    m = init_model(layers=2, heads=2, dim=16, ffn=32, vocab_size=vocab_size, seed=2024)
    fixture = load_model(DATA_DIR / "fixture.wts")
    assert sorted(m.weights) == sorted(fixture.weights)
    for name, arr in fixture.weights.items():
        assert np.array_equal(m.weights[name], arr), name


def test_model_shape_validation():
    m = init_model(vocab_size=8, seed=0)
    bad = dict(m.weights)
    bad["embedding"] = bad["embedding"][:, :-1]
    with pytest.raises(DataError, match="embedding"):
        type(m)(
            layers=m.layers, heads=m.heads, dim=m.dim, ffn=m.ffn,
            vocab_size=m.vocab_size, weights=bad,
        )


def test_dim_head_divisibility():
    with pytest.raises(DataError):
        init_model(heads=3, dim=16, vocab_size=8, seed=0)


def test_forward_shape_and_finiteness():
    m = init_model(layers=1, heads=1, dim=4, ffn=8, vocab_size=4, seed=1)
    logits, cache = forward(m, [1], [0])
    assert logits.shape == (4,)
    assert np.all(np.isfinite(logits))
    assert len(cache["dec_layers"]) == 1


def test_forward_deterministic():
    m = init_model(vocab_size=12, seed=9)
    a, _ = forward(m, [4, 5], [0, 6])
    b, _ = forward(m, [4, 5], [0, 6])
    assert np.array_equal(a, b)


def test_forward_id_out_of_range():
    m = init_model(vocab_size=8, seed=0)
    with pytest.raises(DataError):
        forward(m, [8], [0])
    with pytest.raises(DataError):
        forward(m, [1], [-1])


def test_forward_empty_inputs_rejected():
    m = init_model(vocab_size=8, seed=0)
    with pytest.raises(DataError):
        forward(m, [], [0])
    with pytest.raises(DataError):
        forward(m, [1], [])


def test_forward_matches_naive_reference():
    rng = SplitMix64(606)
    for seed in range(6):
        heads = 1 + rng.randrange(2)
        m = init_model(
            layers=1 + rng.randrange(2),
            heads=heads,
            dim=8 if heads == 1 else 16,
            ffn=16,
            vocab_size=20,
            seed=seed,
        )
        src = [4 + rng.randrange(16) for _ in range(1 + rng.randrange(4))]
        tgt = [0] + [4 + rng.randrange(16) for _ in range(rng.randrange(3))]
        got, _ = forward(m, src, tgt)
        want = naive_forward(m, src, tgt)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_golden_logits_fixture():
    model = load_model(DATA_DIR / "fixture.wts")
    with open(DATA_DIR / "golden_logits.json", "r", encoding="utf-8") as fh:
        cases = json.load(fh)
    assert cases
    for case in cases:
        logits, _ = forward(model, case["src_ids"], case["tgt_prefix_ids"])
        want = np.array(case["logits"])
        assert np.max(np.abs(logits - want)) <= 1e-9


def test_weight_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.wts"
    p.write_text("not a weight file\n")
    with pytest.raises(DataError):
        load_model(p)
