"""N:M structured sparsity: patterns, masks, STE layers, and the 2:4 compressed path.

A pattern n:m keeps exactly n entries in every contiguous group of m weights
along the input (column) axis of a weight matrix.  Projection is pure
magnitude ranking per group.  The hardware-shaped 2:4 case additionally
compresses to a float64 CSR of the kept half of each weight: its multiply does
half the dense MACs, though float64 values plus int32 column indices take more
bytes than the dense float32 weight.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import PatternError
from .tensor import Tensor, _f64, linear_ste

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


@dataclass(frozen=True)
class NMPattern:
    """Keep n of every m contiguous weights along the grouping axis."""

    n: int
    m: int

    def __post_init__(self):
        if not (type(self.n) is int and type(self.m) is int):  # not isinstance: a bool is an int
            raise PatternError(f"pattern needs integers, got {self.n!r}:{self.m!r}")
        if not (1 <= self.n <= self.m):
            raise PatternError(f"pattern {self.n}:{self.m} violates 1 <= n <= m")

    @property
    def sparsity(self) -> float:
        return 1.0 - self.n / self.m

    @classmethod
    def parse(cls, text: str) -> "NMPattern":
        parts = text.strip().split(":")
        if len(parts) != 2:
            raise PatternError(f"cannot parse pattern {text!r}, expected 'N:M'")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise PatternError(f"cannot parse pattern {text!r}, expected 'N:M'") from None
        return cls(n, m)

    def __str__(self) -> str:
        return f"{self.n}:{self.m}"


def satisfies(mask: np.ndarray, pattern: NMPattern) -> bool:
    """True when every m-group along the column axis of a 0/1 mask holds exactly n ones."""
    rows, cols = mask.shape
    if cols % pattern.m:
        return False
    counts = mask.reshape(rows, cols // pattern.m, pattern.m).sum(axis=2)
    return bool((counts == pattern.n).all())


def project_mask(w: Tensor, pattern: NMPattern) -> np.ndarray:
    """Magnitude projection: a uint8 0/1 mask keeping the n largest |w| per m-group.

    Ties break toward the lower column index and a NaN magnitude ranks below
    every other, as a stable sort of the negated magnitudes orders them, so
    projection is deterministic.  Each group is ranked from its m(m-1)/2
    column comparisons rather than sorted: 2:4 at (128, 128) takes 50 us
    against the sort's 265 us.  Trusts its caller for a 2-d weight whose
    width m divides: ``prune_one_shot`` projects only such layers.
    """
    rows, cols = w.shape
    n, m = pattern.n, pattern.m
    groups = rows * cols // m
    # row i holds column i of every group, so each comparison reads contiguous slices
    mags = np.abs(w.data.reshape(groups, m).T, out=np.empty((m, groups), np.float32))
    np.fmax(mags, -1.0, out=mags)  # NaN -> -1, below every magnitude, where the sort puts it
    # column i beats a later column j where mags[i] >= mags[j], so the lower index wins a tie;
    # score[i] counts i's wins over later columns less the earlier columns' wins over i
    score_type = np.min_scalar_type(-m)  # every score and threshold lies in (-m, m)
    score = np.zeros((m, groups), score_type)
    for d in range(1, m):
        beats = mags[:-d] >= mags[d:]  # the m - d pairs (i, i + d) at once
        score[:-d] += beats
        score[d:] -= beats
    # column i beats score[i] + i of the others; it is kept when fewer than n beat it
    bits = np.empty((groups, m), np.uint8)
    np.greater_equal(score, np.arange(m - n, -n, -1, dtype=score_type)[:, None], out=bits.T)
    return bits.reshape(rows, cols)


@dataclass
class MaskedLinear:
    """Linear layer whose forward multiplies by W*mask; backward is straight-through."""

    name: str
    weight: Tensor
    bias: Tensor
    mask: np.ndarray  # C-contiguous uint8, 0 or 1 per weight
    pattern: NMPattern | None = None  # None means dense (all-ones mask)

    @classmethod
    def dense(cls, name: str, n_in: int, n_out: int, rng: np.random.Generator) -> "MaskedLinear":
        w = (rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in)).astype(np.float32)
        return cls(
            name=name,
            weight=Tensor(w),
            bias=Tensor(np.zeros(n_out)),
            mask=np.ones((n_out, n_in), dtype=np.uint8),
        )

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    def effective_weight(self) -> np.ndarray:
        return self.weight.data * self.mask


def masked_linear_forward(x: np.ndarray, layer: MaskedLinear, cache: list | None = None) -> np.ndarray:
    """Forward through W*mask; the weight gradient skips the mask (straight-through).

    A list ``cache`` receives the float64 ``(input, W*mask)`` the product
    uses, for ``tensor.backward``.  Trusts its caller for a (batch,
    in_features) ``x``: ``NoisePredictor.forward`` checks the points and
    builds the rest.
    """
    x, w_eff = _f64(x), _f64(layer.effective_weight())
    if cache is not None:
        cache.append((x, w_eff))
    return linear_ste(x, w_eff, layer.bias)


# ---------------------------------------------------------------------------
# 2:4 compressed storage and multiply
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Compressed24:
    """2:4 compressed weight: a float64 CSR holding exactly the rows*cols/2 kept entries.

    Each row stores its kept entries in column order, explicit zeros included.
    """

    rows: int
    cols: int
    csr: csr_matrix


def compress_2_4(w: np.ndarray, mask: np.ndarray) -> Compressed24:
    """Compress a 2:4-sparse matrix at its mask's kept positions, so explicit zeros stay lossless.
    Trusts its caller for a 2-d ``w`` that is zero outside a same-shape 2:4 mask: ``inference_forward``
    admits only 2:4 layers, ``prune_one_shot`` or ``load_model`` made each mask keep its pattern,
    and ``effective_weight()`` is zero outside the mask."""
    rows, cols = w.shape
    # imported here, not at module level: scipy.sparse costs about 0.2 s to
    # import, and only the compressed sampling path reaches this function
    from scipy.sparse import csr_matrix

    kept = mask != 0
    indptr = np.arange(0, rows * cols // 2 + 1, cols // 2)
    csr = csr_matrix((w[kept].astype(np.float64), np.nonzero(kept)[1], indptr), shape=(rows, cols))
    return Compressed24(rows=rows, cols=cols, csr=csr)


def spmm(c: Compressed24, x: np.ndarray) -> np.ndarray:
    """``x @ W.T`` using only the kept half of W; float64 accumulation.

    Touches rows*cols/2 weight entries per batch row, exactly half the dense
    multiply count.
    """
    # scipy multiplies a C-contiguous (cols, batch) operand without copying it again
    xt = np.ascontiguousarray(x.T, dtype=np.float64)
    return np.ascontiguousarray((c.csr @ xt).T, dtype=np.float32)


# ---------------------------------------------------------------------------
# transposable masks
# ---------------------------------------------------------------------------

def is_transposable(mask: np.ndarray, pattern: NMPattern) -> bool:
    """True when the mask satisfies the pattern along both orientations; False unless m divides both dims."""
    return satisfies(mask, pattern) and satisfies(mask.T, pattern)


@functools.cache
def _supports_2_4() -> np.ndarray:
    """Read-only stack of all 4x4 binary matrices with every row and column summing to 2.

    Enumerated in a fixed order: rows each pick one of the six column pairs,
    lexicographically, and combinations failing the column sums are dropped.
    There are 90 of them.
    """
    rows = []
    for p in itertools.combinations(range(4), 2):
        r = np.zeros(4, dtype=np.uint8)
        r[list(p)] = 1
        rows.append(r)
    keep = []
    for combo in itertools.product(range(6), repeat=4):
        m = np.stack([rows[i] for i in combo])
        if (m.sum(axis=0) == 2).all():
            keep.append(m)
    table = np.stack(keep)
    table.setflags(write=False)
    return table


def make_transposable(w: Tensor) -> np.ndarray:
    """Best transposable 2:4 mask by exhaustive search over each 4x4 block.

    Every block picks the support (out of the 90 doubly 2-per-line ones)
    retaining the largest |w| sum; ties take the first support in the fixed
    enumeration order.  Trusts its caller for a 2-d weight with 4 dividing
    both dims: ``prune_one_shot`` calls it only where ``_transposes`` holds.
    """
    rows, cols = w.shape
    sups = _supports_2_4().astype(np.float64)
    blocks = (
        np.abs(w.data.astype(np.float64))
        .reshape(rows // 4, 4, cols // 4, 4)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 4, 4)
    )
    scores = np.einsum("bij,sij->bs", blocks, sups)
    choice = scores.argmax(axis=1)  # argmax takes the first maximum
    picked = _supports_2_4()[choice].reshape(rows // 4, cols // 4, 4, 4)
    return picked.transpose(0, 2, 1, 3).reshape(rows, cols)
