"""N:M structured sparsity: patterns, masks, STE layers, and the 2:4 compressed path.

A pattern n:m keeps exactly n entries in every contiguous group of m weights
along the input (column) axis of a weight matrix.  Projection is pure
magnitude ranking per group.  The hardware-shaped 2:4 case additionally gets
a compressed storage format (half the values plus packed 2-bit in-group
indices) and a matching multiply kernel that touches only kept weights.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CompressionError, DimensionError, PatternError
from .tensor import Tape, Tensor, linear_ste


@dataclass(frozen=True)
class NMPattern:
    """Keep n of every m contiguous weights along the grouping axis."""

    n: int
    m: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.m, int)):
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


class SparseMask:
    """0/1 mask over a 2-d weight matrix, grouped along the column axis."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.ascontiguousarray(bits, dtype=np.uint8)
        if arr.ndim != 2:
            raise DimensionError(f"mask must be 2-d, got shape {arr.shape}")
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        self.bits = arr

    @property
    def shape(self) -> tuple[int, int]:
        return self.bits.shape

    @classmethod
    def ones(cls, shape) -> "SparseMask":
        return cls(np.ones(shape, dtype=np.uint8))

    def satisfies(self, pattern: NMPattern) -> bool:
        """True when every m-group along the column axis holds exactly n ones."""
        rows, cols = self.bits.shape
        if cols % pattern.m:
            return False
        counts = self.bits.reshape(rows, cols // pattern.m, pattern.m).sum(axis=2)
        return bool((counts == pattern.n).all())

    def copy(self) -> "SparseMask":
        return SparseMask(self.bits.copy())

    def __repr__(self) -> str:
        return f"SparseMask{self.shape}"


def project_mask(w: Tensor, pattern: NMPattern) -> SparseMask:
    """Magnitude projection: per m-group keep the n largest |w|.

    Ties break toward the lower column index (stable sort on the negated
    magnitudes), so projection is deterministic.
    """
    if w.data.ndim != 2:
        raise DimensionError(f"project_mask needs a 2-d weight, got {w.shape}")
    rows, cols = w.shape
    if cols % pattern.m:
        raise PatternError(f"input width {cols} not divisible by group size {pattern.m}")
    mags = np.abs(w.data).reshape(rows * (cols // pattern.m), pattern.m)
    # stable argsort keeps the lower column index first on equal magnitudes
    order = np.argsort(-mags, axis=1, kind="stable")
    keep = order[:, : pattern.n]
    bits = np.zeros_like(mags, dtype=np.uint8)
    np.put_along_axis(bits, keep, 1, axis=1)
    return SparseMask(bits.reshape(rows, cols))


def apply_mask(w: Tensor, mask: SparseMask) -> Tensor:
    if w.shape != mask.shape:
        raise DimensionError(f"weight {w.shape} and mask {mask.shape} differ")
    return Tensor(w.data * mask.bits)


@dataclass
class MaskedLinear:
    """Linear layer whose forward multiplies by W*mask; backward is straight-through."""

    name: str
    weight: Tensor
    bias: Tensor
    mask: SparseMask
    pattern: NMPattern | None = None  # None means dense (all-ones mask)

    @classmethod
    def dense(cls, name: str, n_in: int, n_out: int, rng: np.random.Generator) -> "MaskedLinear":
        w = (rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in)).astype(np.float32)
        return cls(
            name=name,
            weight=Tensor(w),
            bias=Tensor.zeros((n_out,)),
            mask=SparseMask.ones((n_out, n_in)),
        )

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    def effective_weight(self) -> np.ndarray:
        return self.weight.data * self.mask.bits

    def copy(self) -> "MaskedLinear":
        return MaskedLinear(self.name, self.weight.copy(), self.bias.copy(), self.mask.copy(), self.pattern)


def masked_linear_forward(x: Tensor, layer: MaskedLinear | CompressedLinear, tape: Tape | None = None) -> Tensor:
    """Forward through W*mask; the weight gradient skips the mask (straight-through).

    A frozen ``CompressedLinear`` runs through ``spmm`` instead and takes no tape.
    """
    if x.data.ndim != 2 or x.shape[1] != layer.in_features:
        raise DimensionError(
            f"layer {layer.name} expects input width {layer.in_features}, got {x.shape}"
        )
    if isinstance(layer, CompressedLinear):
        if tape is not None:
            raise ValueError(f"compressed layer {layer.name} is frozen and cannot record on a tape")
        return Tensor(spmm(layer.weight, x).data + layer.bias.data)
    if tape is None:
        return linear_ste(x, layer.weight, layer.bias, layer.effective_weight(), None)
    wt = tape.param(f"{layer.name}.weight", layer.weight)
    bt = tape.param(f"{layer.name}.bias", layer.bias)
    return linear_ste(x, wt, bt, layer.effective_weight(), tape)


# ---------------------------------------------------------------------------
# 2:4 compressed storage and multiply
# ---------------------------------------------------------------------------

@dataclass
class Compressed24:
    """2:4 compressed weight: kept values plus packed 2-bit in-group indices.

    ``values`` holds the two kept entries of each group of four, row-major by
    (row, group, slot), so its length is rows*cols/2.  ``indices`` packs one
    2-bit in-group position per kept value, four entries per byte, first
    entry in the least significant bits, zero-padded to whole bytes.  The two
    positions inside a group are strictly increasing.
    """

    rows: int
    cols: int
    values: np.ndarray
    indices: np.ndarray

    def ingroup_indices(self) -> np.ndarray:
        """Unpack to an (rows, cols//2) array of in-group positions 0..3."""
        total = self.rows * (self.cols // 2)
        b = self.indices.astype(np.uint8)
        parts = np.stack([b & 3, (b >> 2) & 3, (b >> 4) & 3, (b >> 6) & 3], axis=1)
        return parts.reshape(-1)[:total].reshape(self.rows, self.cols // 2)

    def kept_columns(self) -> np.ndarray:
        """Absolute column index of every kept value, shape (rows, cols//2)."""
        ig = self.ingroup_indices().reshape(self.rows, self.cols // 4, 2)
        base = (np.arange(self.cols // 4, dtype=np.int64) * 4)[None, :, None]
        return (ig.astype(np.int64) + base).reshape(self.rows, self.cols // 2)


def _pack_crumbs(u: np.ndarray) -> np.ndarray:
    """Pack 2-bit values (flat uint8 array) four per byte, first in the low bits."""
    u = u.astype(np.uint8).reshape(-1)
    pad = (-len(u)) % 4
    if pad:
        u = np.concatenate([u, np.zeros(pad, dtype=np.uint8)])
    q = u.reshape(-1, 4)
    return (q[:, 0] | (q[:, 1] << 2) | (q[:, 2] << 4) | (q[:, 3] << 6)).astype(np.uint8)


def compress_2_4(w: Tensor, mask: SparseMask | None = None) -> Compressed24:
    """Compress a 2:4-sparse matrix; pass the mask to keep explicit zeros lossless.

    Without a mask the kept positions come from the nonzeros of each group
    (padded with the lowest free positions when a group has fewer than two).
    A group carrying more than two nonzeros is a contract violation.
    """
    if w.data.ndim != 2:
        raise DimensionError(f"compress_2_4 needs a 2-d weight, got {w.shape}")
    rows, cols = w.shape
    if cols % 4:
        raise PatternError(f"input width {cols} not divisible by 4")
    groups = w.data.reshape(rows, cols // 4, 4)
    if mask is not None:
        if mask.shape != w.shape:
            raise DimensionError(f"weight {w.shape} and mask {mask.shape} differ")
        bits = mask.bits.reshape(rows, cols // 4, 4)
        counts = bits.sum(axis=2)
        if not (counts == 2).all():
            r, g = np.argwhere(counts != 2)[0]
            raise CompressionError(f"mask group ({r},{g}) keeps {counts[r, g]} entries, need 2")
        if (groups * (1 - bits)).any():
            r, g = np.argwhere((groups * (1 - bits)).any(axis=2))[0]
            raise CompressionError(f"nonzero weight outside mask in group ({r},{g})")
        occupied = bits.astype(bool)
    else:
        occupied = groups != 0
        counts = occupied.sum(axis=2)
        if (counts > 2).any():
            r, g = np.argwhere(counts > 2)[0]
            raise CompressionError(f"group ({r},{g}) has {counts[r, g]} nonzeros, 2:4 allows 2")
    # rank nonzero (or masked-in) positions first, each side ordered by column
    pos = np.arange(4, dtype=np.int64)
    rank = np.where(occupied, pos, pos + 4)
    keep = np.sort(np.argsort(rank, axis=2, kind="stable")[:, :, :2], axis=2)
    values = np.take_along_axis(groups, keep, axis=2).reshape(-1).astype(np.float32)
    indices = _pack_crumbs(keep.reshape(-1))
    return Compressed24(rows=rows, cols=cols, values=values, indices=indices)


def decompress(c: Compressed24) -> Tensor:
    out = np.zeros((c.rows, c.cols // 4, 4), dtype=np.float32)
    keep = c.ingroup_indices().reshape(c.rows, c.cols // 4, 2).astype(np.int64)
    vals = c.values.reshape(c.rows, c.cols // 4, 2)
    np.put_along_axis(out, keep, vals, axis=2)
    return Tensor(out.reshape(c.rows, c.cols))


def spmm(c: Compressed24, x: Tensor) -> Tensor:
    """``x @ W.T`` using only the kept half of W; float64 accumulation.

    Touches rows*cols/2 weight entries per batch row, exactly half the dense
    multiply count.  Batch rows are processed in bounded chunks; per-output
    accumulation order does not depend on the chunking.
    """
    if x.data.ndim != 2:
        raise DimensionError(f"spmm needs a 2-d input, got {x.shape}")
    if x.shape[1] != c.cols:
        raise DimensionError(f"input width {x.shape[1]} mismatches compressed cols {c.cols}")
    b = x.shape[0]
    k = c.cols // 2
    cols_idx = c.kept_columns()
    vals = c.values.reshape(c.rows, k).astype(np.float64)
    x64 = x.data.astype(np.float64)
    out = np.empty((b, c.rows), dtype=np.float64)
    chunk = max(1, (1 << 22) // max(1, c.rows * k))
    for s in range(0, b, chunk):
        gathered = x64[s : s + chunk][:, cols_idx]  # (chunk, rows, k)
        out[s : s + chunk] = np.einsum("brk,rk->br", gathered, vals)
    return Tensor(out.astype(np.float32))


def spmm_macs(c: Compressed24, batch: int) -> int:
    """Multiply-accumulate count of one spmm call: half the dense count."""
    return batch * c.rows * (c.cols // 2)


@dataclass(frozen=True)
class CompressedLinear:
    """Frozen 2:4 layer: compressed weight plus bias, run through ``spmm``."""

    name: str
    weight: Compressed24
    bias: Tensor

    @classmethod
    def from_masked(cls, layer: MaskedLinear) -> "CompressedLinear":
        return cls(layer.name, compress_2_4(Tensor(layer.effective_weight()), layer.mask), layer.bias)

    @property
    def in_features(self) -> int:
        return self.weight.cols

    @property
    def out_features(self) -> int:
        return self.weight.rows


# ---------------------------------------------------------------------------
# transposable masks
# ---------------------------------------------------------------------------

def is_transposable(mask: SparseMask, pattern: NMPattern) -> bool:
    """True when the mask satisfies the pattern along both orientations."""
    rows, cols = mask.shape
    if rows % pattern.m or cols % pattern.m:
        raise PatternError(
            f"mask {rows}x{cols} needs both dims divisible by {pattern.m} for the transposed check"
        )
    return mask.satisfies(pattern) and SparseMask(mask.bits.T).satisfies(pattern)


_SUPPORTS_2_4: np.ndarray | None = None


def _supports_2_4() -> np.ndarray:
    """All 4x4 binary matrices with every row and column summing to 2.

    Enumerated in a fixed order: rows each pick one of the six column pairs,
    lexicographically, and combinations failing the column sums are dropped.
    There are 90 of them.
    """
    global _SUPPORTS_2_4
    if _SUPPORTS_2_4 is None:
        pairs = list(itertools.combinations(range(4), 2))
        rows = []
        for p in pairs:
            r = np.zeros(4, dtype=np.uint8)
            r[list(p)] = 1
            rows.append(r)
        keep = []
        for combo in itertools.product(range(6), repeat=4):
            m = np.stack([rows[i] for i in combo])
            if (m.sum(axis=0) == 2).all():
                keep.append(m)
        _SUPPORTS_2_4 = np.stack(keep)
    return _SUPPORTS_2_4


def make_transposable(w: Tensor, pattern: NMPattern) -> SparseMask:
    """Best transposable 2:4 mask by exhaustive search over each 4x4 block.

    Every block picks the support (out of the 90 doubly 2-per-line ones)
    retaining the largest |w| sum; ties take the first support in the fixed
    enumeration order.
    """
    if (pattern.n, pattern.m) != (2, 4):
        raise PatternError(f"transposable search supports 2:4 only, got {pattern}")
    if w.data.ndim != 2:
        raise DimensionError(f"make_transposable needs a 2-d weight, got {w.shape}")
    rows, cols = w.shape
    if rows % 4 or cols % 4:
        raise PatternError(f"weight {rows}x{cols} needs both dims divisible by 4")
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
    bits = picked.transpose(0, 2, 1, 3).reshape(rows, cols)
    return SparseMask(bits)
