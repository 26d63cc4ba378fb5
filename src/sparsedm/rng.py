"""Seeded PCG64 streams, split per component so draws never interleave.

Every stochastic component of a run owns a named stream derived from the run
seed through a distinct spawn key.  Adding draws to one component never
perturbs another, and any (seed, stream) pair reproduces the same sequence
across processes and platforms.
"""
from __future__ import annotations

import numpy as np

STREAMS = {
    "init": 0,     # parameter initialization
    "data": 1,     # training batches
    "noise": 2,    # diffusion timesteps and noise draws
    "sample": 3,   # ancestral sampling
    "distill": 4,  # teacher sample bank and distillation batches
    "eval": 5,     # reference sets for quality metrics
}


def stream(seed: int, name: str) -> np.random.Generator:
    """Return the PCG64 generator for one named component of a seeded run."""
    ss = np.random.SeedSequence(seed, spawn_key=(STREAMS[name],))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *key: int) -> int:
    """Fold extra integers into a seed, giving sub-runs fully isolated streams."""
    ss = np.random.SeedSequence(entropy=(int(seed), *[int(k) for k in key]))
    return int(ss.generate_state(1, np.uint64)[0])
