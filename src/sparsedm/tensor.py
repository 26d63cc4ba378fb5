"""Float32 tensors plus a minimal tape-based reverse-mode autodiff engine.

The tape records a flat list of operations per forward pass.  Parameters
register on the tape under a string id, and ``backward`` walks the list in
reverse exactly once, returning one gradient per registered parameter.
Matrix products and reductions accumulate in float64 and store float32,
which keeps finite-difference checks stable at desk scale.  All loops run
in a fixed order, so replaying the same graph is bit-identical.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import DimensionError

ParamId = str


def _f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64, copy=False)


def _sigmoid64(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; per element this is 1/(1+exp(-x)) for x >= 0
    # and exp(x)/(1+exp(x)) below zero
    x = _f64(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class Tensor:
    """Row-major float32 array; the numeric carrier between all modules."""

    __slots__ = ("data", "node")

    def __init__(self, data, node=None):
        arr = np.asarray(data, dtype=np.float32)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would also promote 0-d scalars to 1-d, so only
            # touch arrays that actually need the copy
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.shape != ():
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    @classmethod
    def zeros(cls, shape) -> "Tensor":
        return cls(np.zeros(shape, dtype=np.float32))

    def __repr__(self) -> str:
        return f"Tensor{self.shape}"


_tape_serial = itertools.count()


class Tape:
    """Operation record for one forward pass.

    Nodes append in execution order.  A parameter id registers once; asking
    for the same id with the same backing tensor returns the existing leaf,
    so a model can run through the tape twice (two loss branches) and its
    gradients accumulate into a single slot per parameter.
    """

    def __init__(self):
        self.id = next(_tape_serial)
        self.nodes: list[tuple] = []  # (op, input_ids, aux, out_shape)
        self.param_nodes: dict[ParamId, int] = {}
        self.param_values: dict[ParamId, Tensor] = {}

    def param(self, pid: ParamId, value: Tensor) -> Tensor:
        if pid in self.param_nodes:
            if self.param_values[pid] is not value:
                raise ValueError(f"parameter {pid!r} already bound to a different tensor")
            return Tensor(value.data, node=(self.id, self.param_nodes[pid]))
        idx = self._push("leaf", (), None, value.shape)
        self.param_nodes[pid] = idx
        self.param_values[pid] = value
        return Tensor(value.data, node=(self.id, idx))

    def _push(self, op, input_ids, aux, shape) -> int:
        self.nodes.append((op, input_ids, aux, shape))
        return len(self.nodes) - 1

    def _input_id(self, t: Tensor) -> int:
        # Tensors made outside this tape act as constants: no gradient flows.
        if t.node is not None and t.node[0] == self.id:
            return t.node[1]
        return -1

    def _emit(self, op, inputs, aux, out: np.ndarray) -> Tensor:
        ids = tuple(self._input_id(t) for t in inputs)
        idx = self._push(op, ids, aux, out.shape)
        return Tensor(out, node=(self.id, idx))


def linear_ste(x: Tensor, w: Tensor, b: Tensor, w_eff: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Affine map ``y = x @ w_eff.T + b`` with a straight-through weight gradient.

    ``w_eff`` is the weight actually multiplied (typically the masked copy of
    ``w``).  The backward pass computes the gradient with respect to ``w_eff``
    and hands it to the dense parameter ``w`` unchanged, so positions the mask
    zeroes out still receive gradient signal.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError(
            f"linear expects 2-d input, 2-d weight, 1-d bias, got {x.shape}, {w.shape}, {b.shape}"
        )
    if w_eff.shape != w.shape:
        raise DimensionError(f"effective weight {w_eff.shape} differs from weight {w.shape}")
    if x.shape[1] != w.shape[1] or b.shape[0] != w.shape[0]:
        raise DimensionError(f"linear shapes do not chain: {x.shape}, {w.shape}, {b.shape}")
    out = (_f64(x.data) @ _f64(w_eff).T + _f64(b.data)).astype(np.float32)
    if tape is None:
        return Tensor(out)
    return tape._emit("linear_ste", (x, w, b), (x.data, w_eff), out)


def silu(x: Tensor, tape: Tape | None = None) -> Tensor:
    sig = _sigmoid64(x.data)
    out = (_f64(x.data) * sig).astype(np.float32)
    if tape is None:
        return Tensor(out)
    return tape._emit("silu", (x,), (x.data, sig), out)


def mse_loss(pred: Tensor, target: Tensor, tape: Tape | None = None) -> Tensor:
    if pred.shape != target.shape:
        raise DimensionError(f"mse shapes {pred.shape} and {target.shape} differ")
    if pred.size == 0:
        raise DimensionError("mse over an empty tensor")
    diff = _f64(pred.data) - _f64(target.data)
    out = np.float32((diff * diff).mean())
    if tape is None:
        return Tensor(out)
    return tape._emit("mse", (pred, target), (pred.data, target.data), np.asarray(out))


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add shapes {a.shape} and {b.shape} differ")
    out = a.data + b.data
    if tape is None:
        return Tensor(out)
    return tape._emit("add", (a, b), None, out)


def scale(x: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    out = (x.data * np.float32(c)).astype(np.float32)
    if tape is None:
        return Tensor(out)
    return tape._emit("scale", (x,), (float(c),), out)


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    out = np.asarray(np.float32(_f64(x.data).sum()))
    if tape is None:
        return Tensor(out)
    return tape._emit("sum", (x,), None, out)


def backward(tape: Tape, loss: Tensor) -> dict[ParamId, Tensor]:
    """Reverse sweep from a scalar loss; returns one float32 gradient per parameter.

    Gradients accumulate in float64 in a single fixed-order pass.  Parameters
    the loss never touched come back as zero tensors of matching shape.
    """
    if loss.node is None or loss.node[0] != tape.id:
        raise ValueError("loss was not produced on this tape")
    if loss.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")

    grads: list[np.ndarray | None] = [None] * len(tape.nodes)
    grads[loss.node[1]] = np.ones((), dtype=np.float64)

    def acc(i: int, val: np.ndarray) -> None:
        if i < 0:
            return
        if grads[i] is None:
            grads[i] = np.zeros(tape.nodes[i][3], dtype=np.float64)
        grads[i] += val

    for idx in range(loss.node[1], -1, -1):
        g = grads[idx]
        if g is None:
            continue
        op, ids, aux, _shape = tape.nodes[idx]
        if op == "leaf":
            continue
        if op == "linear_ste":
            x, w_eff = aux
            acc(ids[0], g @ _f64(w_eff))
            acc(ids[1], g.T @ _f64(x))
            acc(ids[2], g.sum(axis=0))
        elif op == "silu":
            x, sig = aux
            acc(ids[0], g * (sig * (1.0 + _f64(x) * (1.0 - sig))))
        elif op == "mse":
            p, t = aux
            d = (2.0 / p.size) * (_f64(p) - _f64(t))
            acc(ids[0], g * d)
            acc(ids[1], -(g * d))
        elif op == "add":
            acc(ids[0], g)
            acc(ids[1], g)
        elif op == "scale":
            (c,) = aux
            acc(ids[0], c * g)
        elif op == "sum":
            if ids[0] >= 0:
                acc(ids[0], np.full(tape.nodes[ids[0]][3], float(g), dtype=np.float64))
        else:  # pragma: no cover
            raise AssertionError(f"unknown op {op!r}")

    out: dict[ParamId, Tensor] = {}
    for pid, idx in tape.param_nodes.items():
        g = grads[idx]
        if g is None:
            g = np.zeros(tape.nodes[idx][3], dtype=np.float64)
        out[pid] = Tensor(g.astype(np.float32))
    return out
