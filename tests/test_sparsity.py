import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedm.errors import PatternError
from sparsedm.evalbench import DEFAULT_SWEEP_PATTERNS
from sparsedm.sparsity import (
    MaskedLinear,
    NMPattern,
    compress_2_4,
    is_transposable,
    make_transposable,
    masked_linear_forward,
    project_mask,
    spmm,
    satisfies,
)
from sparsedm.tensor import Tensor, backward, mse_grad

from conftest import assert_close_rel, fd_grad


def test_pattern_parse_and_str():
    p = NMPattern.parse("2:4")
    assert (p.n, p.m) == (2, 4)
    assert str(p) == "2:4"


def test_pattern_sparsity_values():
    assert NMPattern(2, 4).sparsity == 0.5
    assert NMPattern(1, 32).sparsity == 0.96875
    assert NMPattern(31, 32).sparsity == 1 - 31 / 32


# a bool is an int to isinstance, and NMPattern(True, 4) would save as "True:4", which no load parses
@pytest.mark.parametrize("n,m", [(0, 4), (5, 4), (-1, 2), (2, 0), (True, 4), (1, True)])
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
    assert np.array_equal(m[0], [0, 1, 1, 0])


def test_project_tie_break_keeps_lowest_indices():
    w = Tensor(np.ones((1, 4), np.float32))
    m = project_mask(w, NMPattern(2, 4))
    assert np.array_equal(m[0], [1, 1, 0, 0])


def test_masked_weight_zero_count(rng):
    w = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    m = project_mask(w, NMPattern(2, 4))
    wt = w.data * m
    assert (wt == 0).sum() >= (m == 0).sum()


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
    assert satisfies(mask, NMPattern(n, m))
    groups = w.data.reshape(3, 2, m)
    kept = (np.abs(w.data) * mask).reshape(3, 2, m).sum(axis=2)
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
    kept = (np.abs(w.data.astype(np.float64)) * mask).sum()
    best = np.sort(np.abs(w.data.astype(np.float64)), axis=1)[:, m - n:].sum()
    assert abs(kept - best) <= 1e-6


def _argsort_mask(w: np.ndarray, pattern: NMPattern) -> np.ndarray:
    """Reference projection: per group, a stable argsort of the negated magnitudes, first n kept."""
    mags = np.abs(w).reshape(-1, pattern.m)
    order = np.argsort(-mags, axis=1, kind="stable")
    bits = np.zeros(mags.shape, np.uint8)
    np.put_along_axis(bits, order[:, : pattern.n], 1, axis=1)
    return bits.reshape(w.shape)


PROJECTION_PATTERNS = sorted({*DEFAULT_SWEEP_PATTERNS, NMPattern(4, 8)}, key=lambda p: (p.m, p.n))
# fc3's shape, a small one, fc2's and a larger one
PROJECTION_SHAPES = [(2, 128), (4, 32), (128, 128), (256, 256)]
# each kind overwrites a share of the standard normal entries: ties, zeros of either sign, infinities, NaN
ENTRY_KINDS = {
    "rounded": lambda w, sign: np.round(w),
    "zero": lambda w, sign: np.zeros_like(w),
    "signed-zero": lambda w, sign: sign * np.float32(0.0),
    "inf": lambda w, sign: sign * np.float32(np.inf),
    "nan": lambda w, sign: np.full_like(w, np.nan),
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PROJECTION_PATTERNS), st.sampled_from(PROJECTION_SHAPES),
       st.lists(st.sampled_from(sorted(ENTRY_KINDS)), max_size=3), st.floats(0.05, 1.0), st.integers(0, 2 ** 31 - 1))
def test_projection_equals_stable_argsort(pattern, shape, kinds, share, seed):
    r = np.random.default_rng(seed)
    w = r.standard_normal(shape).astype(np.float32)
    for kind in kinds:
        at = r.random(shape) < share
        sign = np.where(r.random(shape) < 0.5, np.float32(-1.0), np.float32(1.0))
        w[at] = ENTRY_KINDS[kind](w, sign)[at]
    mask = project_mask(Tensor(w), pattern)
    assert mask.dtype == np.uint8 and mask.flags.c_contiguous and mask.shape == shape
    assert np.array_equal(mask, _argsort_mask(w, pattern))
    assert satisfies(mask, pattern)


@pytest.mark.parametrize("m", [128, 129, 256])  # the widest int8 score, then int16
def test_projection_wide_groups_equal_stable_argsort(m):
    r = np.random.default_rng(m)
    w = np.round(r.standard_normal((3, 2 * m)), 1).astype(np.float32)
    w[0, :m] = 0.0  # one all-tied group: its first column beats all m - 1 others
    for n in (1, m // 2, m - 1, m):
        mask = project_mask(Tensor(w), NMPattern(n, m))
        assert np.array_equal(mask, _argsort_mask(w, NMPattern(n, m)))


@pytest.mark.parametrize("rows", [2, 128])
@pytest.mark.parametrize("pattern,kept", [("1:4", [0, 1, 0, 0]), ("2:4", [0, 1, 0, 1]), ("3:4", [1, 1, 0, 1])])
def test_projection_ranks_nan_below_zero_lower_index_first(rows, pattern, kept):
    w = np.tile(np.float32([np.nan, 1.0, np.nan, 0.0]), (rows, 32))
    mask = project_mask(Tensor(w), NMPattern.parse(pattern))
    assert (mask.reshape(-1, 4) == kept).all()


def test_masked_linear_all_ones_equals_plain(rng):
    layer = MaskedLinear.dense("l", 8, 3, rng)
    x0 = rng.standard_normal((5, 8)).astype(np.float32)
    cache = []
    out = masked_linear_forward(x0, layer, cache)
    ref = (x0.astype(np.float64) @ layer.weight.data.astype(np.float64).T
           + layer.bias.data.astype(np.float64)).astype(np.float32)
    assert np.array_equal(out, ref)
    [(gw, gb)] = backward(cache, mse_grad(out, np.zeros((5, 3), np.float32), 1.0))
    # plain-linear gradients of mean(out**2): with dy = (2/N) out, dW = dy^T x and db = batch sums of dy
    dy = (2 / out.size) * out.astype(np.float64)
    assert np.allclose(gw.astype(np.float32), dy.T @ x0.astype(np.float64), atol=1e-4)
    assert np.array_equal(gb.astype(np.float32), dy.sum(axis=0).astype(np.float32))


def test_masked_linear_zeroed_output_row_is_bias(rng):
    layer = MaskedLinear.dense("l", 4, 2, rng)
    layer.mask[1, :] = 0
    out = masked_linear_forward(rng.standard_normal((3, 4)).astype(np.float32), layer)
    assert np.allclose(out[:, 1], layer.bias.data[1])


def test_ste_weight_grad_matches_fd_at_effective_weight(rng):
    # the gradient wrt W must equal the plain-linear gradient at W_eff, which
    # makes it generally nonzero at pruned positions
    layer = MaskedLinear.dense("l", 8, 3, rng)
    layer.mask = project_mask(layer.weight, NMPattern(2, 4))
    layer.pattern = NMPattern(2, 4)
    x0 = rng.standard_normal((6, 8)).astype(np.float32)
    t0 = rng.standard_normal((6, 3)).astype(np.float32)

    cache = []
    out = masked_linear_forward(x0, layer, cache)
    [(gw, _gb)] = backward(cache, mse_grad(out, t0, 1.0))
    g = gw.astype(np.float32)

    w_eff = layer.effective_weight().astype(np.float64)

    def f(v):
        # unmasked forward evaluated at the perturbed W_eff
        h = x0.astype(np.float64) @ v.T + layer.bias.data.astype(np.float64)
        return float(((h - t0.astype(np.float64)) ** 2).mean())

    ref = fd_grad(f, w_eff)
    assert_close_rel(g, ref, rel=1e-3)
    pruned = layer.mask == 0
    assert pruned.any()
    assert np.abs(g[pruned]).max() > 0


def test_compress_known_row():
    w = np.array([[0.0, 5.0, 0.0, 7.0]], np.float32)
    csr = compress_2_4(w, np.array([[0, 1, 0, 1]], np.uint8)).csr
    assert csr.data.dtype == np.float64 and np.array_equal(csr.data, [5.0, 7.0])
    assert np.array_equal(csr.indices, [1, 3])
    assert np.array_equal(csr.indptr, [0, 2])


def test_compress_zero_values_uses_mask_positions():
    w = np.zeros((1, 4), np.float32)
    mask = np.array([[1, 0, 0, 1]], np.uint8)
    csr = compress_2_4(w, mask).csr
    assert csr.nnz == 2 and np.array_equal(csr.data, np.zeros(2))
    assert np.array_equal(csr.indices, [0, 3])
    assert np.array_equal(csr.indptr, [0, 2])


def test_compress_roundtrip_random(rng):
    for _ in range(5):
        w = Tensor(rng.standard_normal((64, 64)).astype(np.float32))
        mask = project_mask(w, NMPattern(2, 4))
        wt = w.data * mask
        back = compress_2_4(wt, mask).csr.toarray()
        assert np.array_equal(back, wt)


def test_spmm_identity_like_selects_inputs():
    # each output row copies one kept input coordinate
    w = np.zeros((2, 4), np.float32)
    w[0, 1] = 1.0
    w[1, 3] = 1.0
    mask = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], np.uint8)
    c = compress_2_4(w, mask)
    x = np.arange(8, dtype=np.float32).reshape(2, 4)
    out = spmm(c, x)
    assert np.array_equal(out, x[:, [1, 3]])


# the model's compressed layers at training, sampling and single-point batches
@pytest.mark.parametrize("batch,n_in,n_out", [(16, 128, 128), (2000, 128, 128), (2000, 128, 2), (1, 128, 128)],
                         ids=["16-128x128", "2000-128x128", "2000-128x2", "1-128x128"])
def test_spmm_matches_dense_masked_matmul(rng, batch, n_in, n_out):
    w = Tensor(rng.standard_normal((n_out, n_in)).astype(np.float32))
    mask = project_mask(w, NMPattern(2, 4))
    wt = w.data * mask
    x = rng.standard_normal((batch, n_in)).astype(np.float32)
    dense = (x.astype(np.float64) @ wt.astype(np.float64).T).astype(np.float32)
    got = spmm(compress_2_4(wt, mask), x)
    scale = np.abs(dense).max()
    assert np.abs(got - dense).max() / scale <= 1e-5


def test_transposable_rejects_triple_column_group():
    # rows are all 2:4 but column 0 carries 3 ones
    bits = np.array(
        [[1, 1, 0, 0],
         [1, 1, 0, 0],
         [1, 0, 1, 0],
         [0, 0, 1, 1]], np.uint8)
    assert all(bits.sum(axis=1) == 2)
    assert not is_transposable(bits, NMPattern(2, 4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_is_transposable_matches_brute_count(seed):
    r = np.random.default_rng(seed)
    bits = (r.random((4, 8)) < 0.5).astype(np.uint8)
    got = is_transposable(bits, NMPattern(2, 4))
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
    mask = make_transposable(w)
    assert is_transposable(mask, NMPattern(2, 4))
    a = np.abs(w.data.astype(np.float64)) * mask
    for bi in range(2):
        for bj in range(2):
            block = w.data[bi * 4:(bi + 1) * 4, bj * 4:(bj + 1) * 4]
            kept = a[bi * 4:(bi + 1) * 4, bj * 4:(bj + 1) * 4].sum()
            assert abs(kept - _block_oracle(block)) <= 1e-6


def test_make_transposable_covers_dominant_subblocks():
    w = np.full((4, 4), 0.01, np.float32)
    w[:2, :2] = 5.0
    w[2:, 2:] = 5.0
    mask = make_transposable(Tensor(w))
    assert mask[:2, :2].all() and mask[2:, 2:].all()


def test_make_transposable_always_valid(rng):
    for _ in range(100):
        shape = (4 * int(rng.integers(1, 4)), 4 * int(rng.integers(1, 4)))
        w = Tensor(rng.standard_normal(shape).astype(np.float32))
        mask = make_transposable(w)
        assert is_transposable(mask, NMPattern(2, 4))
        assert satisfies(mask, NMPattern(2, 4))


def test_is_transposable_rejects_indivisible():
    # the 3x4 mask's rows keep 2 of 4, but 4 does not divide its 3 rows; 4 does not divide 6 columns
    for bits in (np.tile([1, 1, 0, 0], (3, 1)), np.tile([1, 1, 0], (4, 2))):
        assert is_transposable(bits.astype(np.uint8), NMPattern(2, 4)) is False


def test_compressed_linear_forward_matches_masked(rng):
    layer = MaskedLinear.dense("l", 16, 8, rng)
    layer.mask = project_mask(layer.weight, NMPattern(2, 4))
    comp = compress_2_4(layer.effective_weight(), layer.mask)
    assert (comp.cols, comp.rows) == (16, 8)
    x = rng.standard_normal((5, 16)).astype(np.float32)
    got = spmm(comp, x) + layer.bias.data
    assert np.abs(got - masked_linear_forward(x, layer)).max() <= 1e-5
