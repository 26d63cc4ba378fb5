"""The float32 parameter type, the noise predictor's ops, and the one backward pass it needs.

A layer's weight and bias are ``Tensor``s; every activation, batch, sample
and loss is a plain float32 ndarray.  The only differentiated graph is a
linear/SiLU stack under an MSE loss, so ``backward`` is written out for that
stack rather than recorded per op.  Matrix products and reductions
accumulate in float64 and store float32, which keeps finite-difference
checks stable at desk scale.  All loops run in a fixed order, so replaying
the same step is bit-identical.  These ops check no shape: their callers pass
operands that chain, non-empty, as checked where the data enters.

SiLU has two forms.  Without a cache (every tape-free forward: sampling,
eval, the teacher bank and the distillation teacher) it is the quotient
``x / (1 + exp(-x))``, one exp and one divide per element.  With a cache
(training) it stays ``x * _sigmoid64(x)``, two exps per element:
``backward`` reads that float64 sigmoid, which the quotient never forms,
and the one-exp select forms that would form it were slower.  Both round
once to float32, and ``scripts/silu_bits.py`` checks that they store the
same bytes for every float32 input.
"""
from __future__ import annotations

import numpy as np


def _f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64, copy=False)


def _sigmoid64(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; per element this is 1/(1+exp(-x)) for x >= 0
    # and exp(x)/(1+exp(x)) below zero.  The numerator exp(min(x, 0)) is
    # exactly 1 for x >= 0 and exactly exp(-|x|) below zero, with no select.
    x = _f64(x)
    den = np.empty_like(x)
    np.abs(x, out=den)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    num = np.empty_like(x)
    np.minimum(x, 0.0, out=num)
    np.exp(num, out=num)
    return np.divide(num, den, out=num)


class Tensor:
    """A layer parameter: a row-major float32 array, cast on construction."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float32)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


def linear_ste(x: np.ndarray, w_eff: np.ndarray, b: Tensor) -> np.ndarray:
    """Affine map ``y = x @ w_eff.T + b`` with a straight-through weight gradient.

    ``w_eff`` is the weight actually multiplied (typically the masked copy of
    a layer's weight).  ``backward`` computes the gradient with respect to
    ``w_eff``, and the dense weight takes it unchanged, so positions the mask
    zeroes out still receive gradient signal.  Precondition: x is (batch, k),
    ``w_eff`` is (n, k) and b has n entries, as ``masked_linear_forward`` and
    ``load_model`` check.
    """
    out = _f64(x) @ _f64(w_eff).T
    out += b.data
    return out.astype(np.float32)


# elements per SiLU block: each float64 temporary of a block (256 KiB) stays in
# cache, where whole-batch temporaries would each cost fresh pages per call
SILU_BLOCK = 1 << 15


def silu(x: np.ndarray, cache: list | None = None) -> np.ndarray:
    """``x * sigmoid(x)``, rounded once to float32; a list ``cache`` receives float64 ``(x, sigmoid)``.

    Precondition: without a cache, ``x`` is a float32 activation, as every
    caller passes; that is the domain on which ``scripts/silu_bits.py``
    checks the quotient form against the cached one, byte for byte.
    """
    if cache is None:
        flat = x.reshape(-1)
        out = np.empty(flat.shape, np.float32)
        # exp(-x) overflows to inf below about -709, where x / inf is the -0.0 the product form gives
        with np.errstate(over="ignore"):
            for s in range(0, flat.size, SILU_BLOCK):
                x64 = _f64(flat[s : s + SILU_BLOCK])
                den = np.negative(x64)
                np.exp(den, out=den)
                den += 1.0
                # the float64 quotient rounds to float32 as it is stored
                out[s : s + SILU_BLOCK] = np.divide(x64, den, out=den)
        return out.reshape(x.shape)
    flat = _f64(x.reshape(-1))  # backward reads the float64 input
    out = np.empty(flat.shape, np.float32)
    sig = np.empty(flat.shape)
    for s in range(0, flat.size, SILU_BLOCK):
        x64 = flat[s : s + SILU_BLOCK]
        prod = _sigmoid64(x64)
        sig[s : s + SILU_BLOCK] = prod
        # the float64 product rounds to float32 as it is stored
        prod *= x64
        out[s : s + SILU_BLOCK] = prod
    cache.append((flat.reshape(x.shape), sig.reshape(x.shape)))
    return out.reshape(x.shape)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> np.float32:
    diff = _f64(pred) - _f64(target)
    return np.float32((diff * diff).mean())


def mse_grad(pred: np.ndarray, target: np.ndarray, weight: float) -> np.ndarray:
    """Float64 gradient of ``weight * mse_loss(pred, target)`` with respect to ``pred``."""
    return weight * ((2.0 / pred.size) * (_f64(pred) - _f64(target)))


def backward(cache: list[tuple], g: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Float64 ``(dW, db)`` per layer, in layer order, from the gradient ``g`` at the output.

    ``cache`` is what ``NoisePredictor.forward`` records, all float64, so no
    cast here copies: ``(input, w_eff)`` per linear layer, alternating with
    ``(input, sigmoid)`` per SiLU between them.  The first layer's input takes
    no gradient.  ``dW`` is taken at ``w_eff`` and belongs to the dense weight
    unchanged (straight-through).
    Each result starts from zero, so a -0.0 never reaches an update; the sign
    of an intermediate zero cannot change a nonzero sum.
    """
    grads = []
    for i in range(len(cache) - 1, -1, -2):
        x, w_eff = cache[i]
        grads.append((0.0 + g.T @ _f64(x), 0.0 + g.sum(axis=0)))
        if i:
            pre, sig = cache[i - 1]
            g = (g @ _f64(w_eff)) * (sig * (1.0 + _f64(pre) * (1.0 - sig)))
    return grads[::-1]
