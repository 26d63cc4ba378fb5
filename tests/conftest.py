import numpy as np
import pytest
from hypothesis import settings

# every run explores the same examples; tests keep their own max_examples
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


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
