"""Toy 2-d denoising diffusion: schedules, datasets, and a masked-MLP noise predictor.

The forward process follows the standard variance-preserving discretization:
``x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps`` with a linear beta schedule.
Sampling runs the ancestral reverse chain with sigma_t = sqrt(beta_t) and no
noise on the final step.  The predictor is a small SiLU MLP over the point
concatenated with a sinusoidal time embedding; every linear layer is a
MaskedLinear so sparse masks apply uniformly.
"""
from __future__ import annotations

import contextlib
import copy
import functools
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArchitectureError, CompressedPathError, ConfigError, DimensionError, TrainingError
from .sparsity import Compressed24, MaskedLinear, NMPattern, compress_2_4, masked_linear_forward, spmm
from .tensor import _f64, linear_ste, mse_loss, silu

DATA_DIM = 2


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step beta with the derived alpha and cumulative alpha-bar arrays."""

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    @property
    def T(self) -> int:
        return len(self.beta)


def make_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    if not isinstance(T, int) or T < 1:
        raise ConfigError(f"schedule length must be a positive integer, got {T!r}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}")
    beta = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    return NoiseSchedule(beta=beta, alpha=alpha, alpha_bar=alpha_bar)


def q_sample(x0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Noising step: ``sqrt(abar_t) x0 + sqrt(1 - abar_t) eps``; t scalar or per-row, trusted to lie
    in [0, T): ``diffusion_loss`` and the trainer's distillation branch draw it with ``rng.integers(0, T)``."""
    ab = sched.alpha_bar[t]
    if ab.ndim:
        ab = ab[:, None]
    out = np.sqrt(ab) * x0.astype(np.float64) + np.sqrt(1.0 - ab) * eps.astype(np.float64)
    return out.astype(np.float32)


def posterior_mean(x_t: np.ndarray, eps_hat: np.ndarray, t: int, sched: NoiseSchedule) -> np.ndarray:
    """Reverse-step mean ``(x_t - beta_t/sqrt(1-abar_t) eps_hat) / sqrt(alpha_t)`` at one timestep t,
    trusted to lie in [0, T): the reverse chain walks ``range(T)``."""
    beta, alpha, ab = sched.beta[t], sched.alpha[t], sched.alpha_bar[t]
    out = (x_t.astype(np.float64) - beta / np.sqrt(1.0 - ab) * eps_hat.astype(np.float64)) / np.sqrt(alpha)
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# noise predictor
# ---------------------------------------------------------------------------

TEMB_DIM = 64


def time_embedding(t, T: int, dim: int = TEMB_DIM) -> np.ndarray:
    """Sinusoidal embedding of t/T over geometrically spaced frequencies."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    ang = (t / T)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(np.float32)


@functools.lru_cache(maxsize=8)
def _temb_table(T: int, dim: int) -> np.ndarray:
    """Read-only (T, dim) table whose row t is ``time_embedding(t, T, dim)``."""
    table = time_embedding(np.arange(T), T, dim)
    table.setflags(write=False)
    return table


def _check_input(x: np.ndarray, t, n_steps: int) -> np.ndarray:
    """The model's input boundary: ``x`` is (batch, DATA_DIM), t a scalar or one per row, each in
    [0, n_steps); returns t as int64."""
    if x.ndim != 2 or x.shape[1] != DATA_DIM:
        raise DimensionError(f"the model expects points of shape (batch, {DATA_DIM}), got {x.shape}")
    t = np.asarray(t, dtype=np.int64)
    if t.ndim and t.shape != x.shape[:1]:
        raise DimensionError(f"the model expects a scalar timestep or {x.shape[0]} of them, got shape {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= n_steps):
        raise IndexError(f"timestep out of range [0, {n_steps})")
    return t


@dataclass
class NoisePredictor:
    """SiLU MLP predicting the noise from (x_t, time embedding)."""

    layers: list[MaskedLinear]
    temb_dim: int = TEMB_DIM

    def __post_init__(self):
        # time_embedding is 2 * (dim // 2) wide, so an odd or negative width never fits fc1
        if type(self.temb_dim) is not int or self.temb_dim < 0 or self.temb_dim % 2:
            raise ArchitectureError(f"time-embedding width must be an even integer >= 0, got {self.temb_dim!r}")

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        hidden: tuple[int, ...] = (128, 128),
        temb_dim: int = TEMB_DIM,
    ) -> "NoisePredictor":
        if not hidden or any(h < 32 or h % 32 for h in hidden):
            # every sweep group size up to 32 must divide the hidden widths
            raise ConfigError(f"hidden widths must be positive multiples of 32, got {hidden}")
        model = cls(layers=[], temb_dim=temb_dim)  # checks temb_dim before any layer is drawn
        dims = [DATA_DIM + temb_dim, *hidden, DATA_DIM]
        model.layers = [MaskedLinear.dense(f"fc{i + 1}", dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        return model

    @property
    def hidden(self) -> tuple[int, ...]:
        return tuple(layer.out_features for layer in self.layers[:-1])

    def forward(self, x: np.ndarray, t, n_steps: int, cache: list | None = None) -> np.ndarray:
        """Predicted noise for ``x`` at steps ``t``; a list ``cache`` receives what ``tensor.backward`` reads."""
        t = _check_input(x, t, n_steps)
        temb = _temb_table(n_steps, self.temb_dim)[t]
        # the first layer's float64 input, from x as float32; a scalar t's one row fills every row
        h = np.empty((x.shape[0], DATA_DIM + self.temb_dim))
        h[:, :DATA_DIM] = x.astype(np.float32, copy=False)
        h[:, DATA_DIM:] = temb
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            h = masked_linear_forward(h, layer, cache)
            if i != last:
                h = silu(h, cache)
        return h

    def copy(self) -> "NoisePredictor":
        return copy.deepcopy(self)


def inference_forward(model: NoisePredictor, n_steps: int, compressed: bool = False):
    """``fwd(x, t)``: ``model.forward`` without a cache, with its frozen-model work done once here.

    fc1's time columns fold into a float64 (n_steps, out) table ``temb @ W_t.T + b``, so each step's fc1
    is ``x @ W_x.T + table[t]``; each later layer keeps its float64 effective weight or, with
    ``compressed``, its 2:4 ``Compressed24`` for ``spmm``.  The compressed path needs a 2:4 model: at
    least one masked layer, and every masked layer 2:4.  The model must stay frozen while ``fwd`` lives.

    The fold adds the point and time parts in another order than ``model.forward``, so the two agree
    by measurement only, and only for a scalar t as sampling passes: 0 of 1,200,000 outputs differ at
    n = 2000 over T = 100 steps, but with per-row t at batch 128, 1 of 2,048,000 differ over four
    300-step teachers (2,000 batches each).
    """
    if compressed:
        # named, since pruning a pruned model to 2:4 keeps the old mask of a layer 4 does not divide
        others = ", ".join(f"{layer.name} is {layer.pattern}" for layer in model.layers
                           if layer.pattern not in (None, NMPattern(2, 4)))
        if others or all(layer.pattern is None for layer in model.layers):
            raise CompressedPathError(f"the compressed path needs a 2:4 model, but {others or 'no layer is masked'}; "
                                      "prune the dense model to 2:4")
    first, *rest = model.layers
    w1 = _f64(first.effective_weight())
    w_x = w1[:, :DATA_DIM]
    # both operands float64: numpy multiplies mixed dtypes without BLAS, about 400 times slower here
    table = _f64(_temb_table(n_steps, model.temb_dim)) @ w1[:, DATA_DIM:].T + first.bias.data
    layers = [(compress_2_4(layer.effective_weight(), layer.mask) if compressed and layer.pattern is not None
               else _f64(layer.effective_weight()), layer.bias) for layer in rest]

    def fwd(x: np.ndarray, t) -> np.ndarray:
        t = _check_input(x, t, n_steps)
        h = _f64(x.astype(np.float32, copy=False)) @ w_x.T
        h += table[t]
        h = h.astype(np.float32)
        for w, b in layers:
            h = silu(h)
            h = spmm(w, h) + b.data if isinstance(w, Compressed24) else linear_ste(h, w, b)
        return h

    return fwd


# Rows below which a sampling chunk does not pay for its process.  A fork and its
# reap cost 2-5 ms at about 45 MB resident: 1.8 ms with an empty child, and about
# 1.2K copy-on-write faults on each side with a sampling one.  256 rows of the
# hidden-128,128 model run the T = 100 chain in about 70 ms (2-core VM).
SAMPLE_CHUNK_ROWS = 256


def _reverse_chain(fwd, sched: NoiseSchedule, rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of an n-row ancestral sample; every draw is the whole (n, 2) one, sliced.

    A row's forward does not depend on the other rows of its batch, so any
    split of [0, n) into chunks concatenates to the one-chunk sample.
    """
    x = rng.standard_normal((n, DATA_DIM))[lo:hi].astype(np.float32)
    for t in range(sched.T - 1, -1, -1):
        eps_hat = fwd(x, t)
        mu = posterior_mean(x, eps_hat, t, sched)
        if t > 0:
            z = rng.standard_normal((n, DATA_DIM))[lo:hi]
            x = (mu.astype(np.float64) + np.sqrt(sched.beta[t]) * z).astype(np.float32)
        else:
            x = mu
    return x


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None when none is found."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = getattr(handle, name.format("get"), None), getattr(handle, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread inside the block; a product's bytes never depend on its count."""
    get, put = _openblas_threads() or (lambda: None, lambda count: None)
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def fork_cpus() -> int:
    """CPUs that forked workers may share: this process's affinity set (else the CPU count), or 1 where
    a fork is unsafe.  It is safe with ``os.fork``, no other Python thread alive, and OpenBLAS, whose
    atfork handler covers its own threads (Apple's Accelerate, for one, does not)."""
    if not hasattr(os, "fork") or threading.active_count() > 1 or _openblas_threads() is None:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextlib.contextmanager
def _forked(fn, what: str):
    """Run ``fn()`` in a forked child that ignores Ctrl-C (the parent's) and exits 0, or 1 if it raises.

    The block gets ``join()``: it reads the child's pickled result or exception to EOF and reaps the
    child.  It returns ``fn()``'s value on exit 0, and otherwise re-raises the exception, or raises
    ``TrainingError`` for a non-zero exit with none; an unjoined child is killed.
    """
    r, w = os.pipe()
    with warnings.catch_warnings():
        # Python >= 3.12 warns of OS threads alive at a fork; fork_cpus() allows only OpenBLAS's
        warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            data = pickle.dumps(fn())  # first, so that w is still open for what fn() or pickling raises
            with open(w, "wb", closefd=False) as out:
                out.write(data)  # all of it: os.write may stop short past the pipe buffer
            os._exit(0)
        except BaseException as e:
            data = pickle.dumps(e)
            pickle.loads(data)  # what would not unpickle in the parent exits 1 unsent
            os.write(w, data)
        finally:
            os._exit(1)
    os.close(w)

    def join():
        nonlocal pid
        data = open(r, "rb", closefd=False).read()  # EOF once the child exits
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = None
        if code == 0:
            return pickle.loads(data)
        raise pickle.loads(data) if data else TrainingError(f"{what} exited with code {code}")

    try:
        yield join
    finally:
        os.close(r)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def ddpm_sample(
    model: NoisePredictor,
    n: int,
    sched: NoiseSchedule,
    rng: np.random.Generator,
    compressed: bool = False,
) -> np.ndarray:
    """Ancestral sampling from pure noise; deterministic given the generator state.

    The rows split into at most ``fork_cpus()`` chunks of ``SAMPLE_CHUNK_ROWS`` rows or more.  Chunk 0
    runs here on the caller's generator; every other chunk runs in a forked child on the generator it
    inherits and returns its rows, joined in chunk order: the first failing chunk raises, the rest are
    killed.  The samples and the generator's state afterwards do not depend on the chunks.
    Non-finite samples raise ``TrainingError``, as a diverged training loss does.
    """
    if n < 0:
        raise ConfigError(f"sample count must be >= 0, got {n}")
    fwd = inference_forward(model, sched.T, compressed)
    w = max(1, min(fork_cpus(), n // SAMPLE_CHUNK_ROWS))
    edges = [n * i // w for i in range(w + 1)]
    with contextlib.ExitStack() as children:
        # OpenBLAS's own threads would take the chunks' cores, but one chunk runs faster with them (README)
        if w > 1:
            children.enter_context(_one_blas_thread())
        joins = [children.enter_context(_forked(functools.partial(_reverse_chain, fwd, sched, rng, n, lo, hi),
                                                "a sampling worker")) for lo, hi in zip(edges[1:-1], edges[2:])]
        x = np.concatenate([_reverse_chain(fwd, sched, rng, n, 0, edges[1]), *(join() for join in joins)])
    if not np.isfinite(x).all():
        raise TrainingError(f"sampling diverged: {np.count_nonzero(~np.isfinite(x))} non-finite coordinates")
    return x


# ---------------------------------------------------------------------------
# toy datasets
# ---------------------------------------------------------------------------

DATASETS = ("gauss8", "swiss_roll", "checkerboard")

_G8_CENTERS = np.stack(
    [np.cos(2 * np.pi * np.arange(8) / 8), np.sin(2 * np.pi * np.arange(8) / 8)], axis=1
)
_G8_SIGMA = 0.1
# per-coordinate second moment of the mixture: 1/2 (ring) + sigma^2
_G8_SCALE = 1.0 / np.sqrt(0.5 + _G8_SIGMA**2)

# spiral phi in [1.5pi, 4.5pi]; means are analytic, stds frozen from 1e7 draws
_SWISS_MEAN = np.array([2.0, 2.0 / (3.0 * np.pi)])
_SWISS_STD = np.array([6.623712, 6.950436])

# checkerboard marginals are uniform on [-2, 2); std = sqrt(4/3)
_CHECKER_SCALE = 1.0 / np.sqrt(4.0 / 3.0)


def toy_batch(dataset: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points of a named dataset at zero mean and unit scale; deterministic per generator state."""
    if dataset not in DATASETS:
        raise ConfigError(f"unknown dataset {dataset!r}, choose from {DATASETS}")
    if n < 0:
        raise ConfigError(f"batch size must be >= 0, got {n}")
    if dataset == "gauss8":
        idx = rng.integers(0, 8, size=n)
        pts = _G8_CENTERS[idx] + rng.normal(0.0, _G8_SIGMA, size=(n, 2))
        pts = pts * _G8_SCALE
    elif dataset == "swiss_roll":
        phi = 1.5 * np.pi * (1.0 + 2.0 * rng.random(n))
        pts = np.stack([phi * np.cos(phi), phi * np.sin(phi)], axis=1)
        pts = (pts - _SWISS_MEAN) / _SWISS_STD
    else:  # checkerboard
        x1 = rng.random(n) * 4.0 - 2.0
        x2 = rng.random(n) - rng.integers(0, 2, size=n) * 2.0 + (np.floor(x1) % 2)
        pts = np.stack([x1, x2], axis=1) * _CHECKER_SCALE
    return pts.astype(np.float32)


# ---------------------------------------------------------------------------
# training loss
# ---------------------------------------------------------------------------

def diffusion_loss(
    model,
    batch: np.ndarray,
    sched: NoiseSchedule,
    rng: np.random.Generator,
    cache: list | None = None,
) -> tuple[np.float32, np.ndarray, np.ndarray]:
    """Noise-prediction MSE with the prediction and the noise; draws (t, eps) from the generator.

    ``cache`` goes to ``model.forward``, for ``tensor.backward``.
    """
    t = rng.integers(0, sched.T, size=batch.shape[0])
    eps = rng.standard_normal(batch.shape).astype(np.float32)
    x_t = q_sample(batch, t, eps, sched)
    pred = model.forward(x_t, t, sched.T, cache)
    return mse_loss(pred, eps), pred, eps
