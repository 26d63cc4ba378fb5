import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedm.errors import CompressionError, PatternError
from sparsedm.sparsity import (
    CompressedLinear,
    MaskedLinear,
    NMPattern,
    SparseMask,
    apply_mask,
    compress_2_4,
    decompress,
    is_transposable,
    make_transposable,
    masked_linear_forward,
    project_mask,
    spmm,
    spmm_macs,
)
from sparsedm.tensor import Tape, Tensor, backward, mse_loss, sum_all

from conftest import assert_close_rel, fd_grad


def test_pattern_parse_and_str():
    p = NMPattern.parse("2:4")
    assert (p.n, p.m) == (2, 4)
    assert str(p) == "2:4"


def test_pattern_sparsity_values():
    assert NMPattern(2, 4).sparsity == 0.5
    assert NMPattern(1, 32).sparsity == 0.96875
    assert NMPattern(31, 32).sparsity == 1 - 31 / 32


@pytest.mark.parametrize("n,m", [(0, 4), (5, 4), (-1, 2), (2, 0)])
def test_pattern_rejects_bad_counts(n, m):
    with pytest.raises(PatternError):
        NMPattern(n, m)


@pytest.mark.parametrize("text", ["2:4:8", "a:4", "2/4", ""])
def test_pattern_parse_rejects_garbage(text):
    with pytest.raises(PatternError):
        NMPattern.parse(text)


def test_project_known_group():
    w = Tensor(np.array([[0.1, -0.5, 0.3, 0.05]], np.float32))
    m = project_mask(w, NMPattern(2, 4))
    assert np.array_equal(m.bits[0], [0, 1, 1, 0])


def test_project_tie_break_keeps_lowest_indices():
    w = Tensor(np.ones((1, 4), np.float32))
    m = project_mask(w, NMPattern(2, 4))
    assert np.array_equal(m.bits[0], [1, 1, 0, 0])


def test_project_rejects_indivisible_width():
    with pytest.raises(PatternError):
        project_mask(Tensor(np.ones((2, 6), np.float32)), NMPattern(2, 4))


def test_apply_mask_trivial():
    w = Tensor(np.arange(8, dtype=np.float32).reshape(2, 4))
    ones = SparseMask.ones((2, 4))
    assert np.array_equal(apply_mask(w, ones).data, w.data)
    zeros = SparseMask(np.zeros((2, 4), np.uint8))
    assert np.array_equal(apply_mask(w, zeros).data, np.zeros((2, 4), np.float32))


def test_masked_weight_zero_count(rng):
    w = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    m = project_mask(w, NMPattern(2, 4))
    wt = apply_mask(w, m)
    assert (wt.data == 0).sum() >= (m.bits == 0).sum()


def _brute_best_sum(group, n):
    return max(
        sum(abs(group[i]) for i in keep)
        for keep in itertools.combinations(range(len(group)), n)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
def test_projection_optimal_small_m(m, seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(1, m + 1))
    w = Tensor(r.standard_normal((3, 2 * m)).astype(np.float32))
    mask = project_mask(w, NMPattern(n, m))
    assert mask.satisfies(NMPattern(n, m))
    groups = w.data.reshape(3, 2, m)
    kept = (np.abs(w.data) * mask.bits).reshape(3, 2, m).sum(axis=2)
    for r_i in range(3):
        for g_i in range(2):
            best = _brute_best_sum(groups[r_i, g_i].astype(np.float64), n)
            assert kept[r_i, g_i] >= best - 1e-5


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([16, 32]), st.integers(0, 2 ** 31 - 1))
def test_projection_optimal_large_m_sort_oracle(m, seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(1, m + 1))
    w = Tensor(r.standard_normal((2, m)).astype(np.float32))
    mask = project_mask(w, NMPattern(n, m))
    kept = (np.abs(w.data.astype(np.float64)) * mask.bits).sum()
    best = np.sort(np.abs(w.data.astype(np.float64)), axis=1)[:, m - n:].sum()
    assert abs(kept - best) <= 1e-6


def test_masked_linear_all_ones_equals_plain(rng):
    layer = MaskedLinear.dense("l", 8, 3, rng)
    x0 = rng.standard_normal((5, 8)).astype(np.float32)
    tape = Tape()
    out = masked_linear_forward(Tensor(x0), layer, tape)
    ref = (x0.astype(np.float64) @ layer.weight.data.astype(np.float64).T
           + layer.bias.data.astype(np.float64)).astype(np.float32)
    assert np.array_equal(out.data, ref)
    grads = backward(tape, sum_all(out, tape))
    # plain-linear gradients: dW = 1^T-weighted input sums, db = batch count
    assert np.allclose(grads["l.weight"].data, np.tile(x0.sum(0), (3, 1)), atol=1e-4)
    assert np.array_equal(grads["l.bias"].data, np.full(3, 5, np.float32))


def test_masked_linear_zeroed_output_row_is_bias(rng):
    layer = MaskedLinear.dense("l", 4, 2, rng)
    layer.mask.bits[1, :] = 0
    out = masked_linear_forward(Tensor(rng.standard_normal((3, 4)).astype(np.float32)), layer)
    assert np.allclose(out.data[:, 1], layer.bias.data[1])


def test_ste_weight_grad_matches_fd_at_effective_weight(rng):
    # the gradient wrt W must equal the plain-linear gradient at W_eff, which
    # makes it generally nonzero at pruned positions
    layer = MaskedLinear.dense("l", 8, 3, rng)
    layer.mask = project_mask(layer.weight, NMPattern(2, 4))
    layer.pattern = NMPattern(2, 4)
    x0 = rng.standard_normal((6, 8)).astype(np.float32)
    t0 = rng.standard_normal((6, 3)).astype(np.float32)

    tape = Tape()
    out = masked_linear_forward(Tensor(x0), layer, tape)
    grads = backward(tape, mse_loss(out, Tensor(t0), tape))
    g = grads["l.weight"].data

    w_eff = layer.effective_weight().astype(np.float64)

    def f(v):
        # unmasked forward evaluated at the perturbed W_eff
        h = x0.astype(np.float64) @ v.T + layer.bias.data.astype(np.float64)
        return float(((h - t0.astype(np.float64)) ** 2).mean())

    ref = fd_grad(f, w_eff)
    assert_close_rel(g, ref, rel=1e-3)
    pruned = layer.mask.bits == 0
    assert pruned.any()
    assert np.abs(g[pruned]).max() > 0


def test_compress_known_row():
    w = Tensor(np.array([[0.0, 5.0, 0.0, 7.0]], np.float32))
    c = compress_2_4(w)
    assert np.array_equal(c.values, np.array([5.0, 7.0], np.float32))
    assert np.array_equal(c.ingroup_indices(), np.array([[1, 3]], np.uint8))
    assert c.indices.tobytes() == bytes([0b1101])


def test_compress_zero_values_uses_mask_positions():
    w = Tensor(np.zeros((1, 4), np.float32))
    mask = SparseMask(np.array([[1, 0, 0, 1]], np.uint8))
    c = compress_2_4(w, mask)
    assert np.array_equal(c.values, np.zeros(2, np.float32))
    assert np.array_equal(c.ingroup_indices(), np.array([[0, 3]], np.uint8))


def test_compress_roundtrip_random(rng):
    for _ in range(5):
        w = Tensor(rng.standard_normal((64, 64)).astype(np.float32))
        mask = project_mask(w, NMPattern(2, 4))
        wt = apply_mask(w, mask)
        back = decompress(compress_2_4(wt, mask))
        assert np.array_equal(back.data, wt.data)


def test_compress_rejects_overfull_group():
    w = Tensor(np.array([[1.0, 2.0, 3.0, 0.0]], np.float32))
    with pytest.raises(CompressionError):
        compress_2_4(w)


def test_compress_rejects_value_outside_mask():
    w = Tensor(np.array([[1.0, 2.0, 3.0, 0.0]], np.float32))
    mask = SparseMask(np.array([[1, 1, 0, 0]], np.uint8))
    with pytest.raises(CompressionError):
        compress_2_4(w, mask)


def test_compress_rejects_indivisible_cols():
    with pytest.raises(PatternError):
        compress_2_4(Tensor(np.zeros((2, 6), np.float32)))


def test_spmm_identity_like_selects_inputs():
    # each output row copies one kept input coordinate
    w = np.zeros((2, 4), np.float32)
    w[0, 1] = 1.0
    w[1, 3] = 1.0
    mask = SparseMask(np.array([[1, 1, 0, 0], [0, 0, 1, 1]], np.uint8))
    c = compress_2_4(Tensor(w), mask)
    x = Tensor(np.arange(8, dtype=np.float32).reshape(2, 4))
    out = spmm(c, x)
    assert np.array_equal(out.data, x.data[:, [1, 3]])


def test_spmm_matches_dense_masked_matmul(rng):
    w = Tensor(rng.standard_normal((128, 128)).astype(np.float32))
    mask = project_mask(w, NMPattern(2, 4))
    wt = apply_mask(w, mask)
    x = rng.standard_normal((16, 128)).astype(np.float32)
    dense = (x.astype(np.float64) @ wt.data.astype(np.float64).T).astype(np.float32)
    got = spmm(compress_2_4(wt, mask), Tensor(x)).data
    scale = np.abs(dense).max()
    assert np.abs(got - dense).max() / scale <= 1e-5


def test_spmm_macs_half_of_dense():
    c = compress_2_4(Tensor(np.zeros((8, 16), np.float32)),
                     project_mask(Tensor(np.ones((8, 16), np.float32)), NMPattern(2, 4)))
    assert spmm_macs(c, batch=4) == 4 * 8 * 16 // 2


def test_transposable_rejects_triple_column_group():
    # rows are all 2:4 but column 0 carries 3 ones
    bits = np.array(
        [[1, 1, 0, 0],
         [1, 1, 0, 0],
         [1, 0, 1, 0],
         [0, 0, 1, 1]], np.uint8)
    assert all(bits.sum(axis=1) == 2)
    assert not is_transposable(SparseMask(bits), NMPattern(2, 4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_is_transposable_matches_brute_count(seed):
    r = np.random.default_rng(seed)
    bits = (r.random((4, 8)) < 0.5).astype(np.uint8)
    got = is_transposable(SparseMask(bits), NMPattern(2, 4))
    rows_ok = all(
        bits[i, g * 4:(g + 1) * 4].sum() == 2
        for i in range(4) for g in range(2)
    )
    cols_ok = all(
        bits[g * 4:(g + 1) * 4, j].sum() == 2
        for j in range(8) for g in range(1)
    )
    assert got == (rows_ok and cols_ok)


def _block_oracle(block):
    """Best retained |w| sum over all 4x4 supports with 2 per row and 2 per column."""
    best = -1.0
    a = np.abs(block.astype(np.float64))
    for rows in itertools.product(itertools.combinations(range(4), 2), repeat=4):
        cols = np.zeros(4, int)
        for pair in rows:
            cols[list(pair)] += 1
        if not np.array_equal(cols, [2, 2, 2, 2]):
            continue
        s = sum(a[i, j] for i, pair in enumerate(rows) for j in pair)
        best = max(best, s)
    return best


def test_make_transposable_hits_block_oracle(rng):
    w = Tensor(rng.standard_normal((8, 8)).astype(np.float32))
    mask = make_transposable(w, NMPattern(2, 4))
    assert is_transposable(mask, NMPattern(2, 4))
    a = np.abs(w.data.astype(np.float64)) * mask.bits
    for bi in range(2):
        for bj in range(2):
            block = w.data[bi * 4:(bi + 1) * 4, bj * 4:(bj + 1) * 4]
            kept = a[bi * 4:(bi + 1) * 4, bj * 4:(bj + 1) * 4].sum()
            assert abs(kept - _block_oracle(block)) <= 1e-6


def test_make_transposable_covers_dominant_subblocks():
    w = np.full((4, 4), 0.01, np.float32)
    w[:2, :2] = 5.0
    w[2:, 2:] = 5.0
    mask = make_transposable(Tensor(w), NMPattern(2, 4))
    assert mask.bits[:2, :2].all() and mask.bits[2:, 2:].all()


def test_make_transposable_always_valid(rng):
    for _ in range(100):
        shape = (4 * int(rng.integers(1, 4)), 4 * int(rng.integers(1, 4)))
        w = Tensor(rng.standard_normal(shape).astype(np.float32))
        mask = make_transposable(w, NMPattern(2, 4))
        assert is_transposable(mask, NMPattern(2, 4))
        assert mask.satisfies(NMPattern(2, 4))


def test_make_transposable_rejects_non_24():
    with pytest.raises(PatternError):
        make_transposable(Tensor(np.zeros((4, 8), np.float32)), NMPattern(1, 4))


def test_is_transposable_rejects_indivisible():
    with pytest.raises(PatternError):
        is_transposable(SparseMask(np.ones((3, 4), np.uint8)), NMPattern(2, 4))


def test_compressed_linear_forward_matches_masked(rng):
    layer = MaskedLinear.dense("l", 16, 8, rng)
    layer.mask = project_mask(layer.weight, NMPattern(2, 4))
    comp = CompressedLinear.from_masked(layer)
    assert (comp.in_features, comp.out_features) == (16, 8)
    x = Tensor(rng.standard_normal((5, 16)).astype(np.float32))
    got = masked_linear_forward(x, comp).data
    assert np.abs(got - masked_linear_forward(x, layer).data).max() <= 1e-5
    with pytest.raises(ValueError, match="frozen"):
        masked_linear_forward(x, comp, Tape())
