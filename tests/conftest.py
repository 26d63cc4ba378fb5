import hashlib
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from sparsedm.diffusion import DATA_DIM, inference_forward, posterior_mean
from sparsedm.errors import TrainingError

# every run explores the same examples; tests keep their own max_examples
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or not: every sample of 512 rows
    or more forks on two CPUs, and so does transfer training with both loss terms."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (waitpid gave pid {pid}, status {status})")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def fd_grad(f, x, eps=1e-3):
    """Central finite differences of scalar f at array x, elementwise, in float64."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        hi = x.copy()
        lo = x.copy()
        hi[idx] += eps
        lo[idx] -= eps
        g[idx] = (f(hi) - f(lo)) / (2 * eps)
    return g


def assert_close_rel(actual, expected, rel=1e-3, abs_tol=1e-5):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    denom = np.maximum(np.abs(expected), abs_tol / rel)
    err = np.abs(actual - expected) / denom
    assert err.max() <= rel, f"max rel err {err.max():.3e} at {np.unravel_index(err.argmax(), err.shape)}"


def sigmoid64_reference(x) -> np.ndarray:
    """The select-based logistic that ``tensor._sigmoid64`` must match bit for bit."""
    x = np.asarray(x).astype(np.float64, copy=False)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def ddpm_sample_reference(model, n, sched, rng, compressed=False) -> np.ndarray:
    """The one-thread, whole-batch reverse chain that ``diffusion.ddpm_sample`` must match bit for bit."""
    fwd = inference_forward(model, sched.T, compressed)
    x = rng.standard_normal((n, DATA_DIM)).astype(np.float32)
    for t in range(sched.T - 1, -1, -1):
        eps_hat = fwd(x, t)
        mu = posterior_mean(x, eps_hat, t, sched)
        if t > 0:
            z = rng.standard_normal((n, DATA_DIM))
            x = (mu.astype(np.float64) + np.sqrt(sched.beta[t]) * z).astype(np.float32)
        else:
            x = mu
    if not np.isfinite(x).all():
        raise TrainingError(f"sampling diverged: {np.count_nonzero(~np.isfinite(x))} non-finite coordinates")
    return x


def model_checksum(model) -> str:
    """Stable digest over all weights, biases, and masks."""
    h = hashlib.sha256()
    for layer in model.layers:
        h.update(layer.weight.data.tobytes())
        h.update(layer.bias.data.tobytes())
        h.update(layer.mask.tobytes())
    return h.hexdigest()


def file_checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# the shape of the report.json that ``sparsedm eval`` writes
REPORT_SCHEMA = {
    "type": "object",
    "required": ["energy_distance", "macs_dense", "macs_sparse", "reduction", "n", "seed", "metric"],
    "properties": {
        "energy_distance": {"type": "number"},
        "macs_dense": {"type": "integer", "minimum": 0},
        "macs_sparse": {"type": "integer", "minimum": 0},
        "reduction": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "n": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "metric": {"type": "string"},
    },
    "additionalProperties": False,
}
