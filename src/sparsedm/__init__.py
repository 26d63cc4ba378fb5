"""Structured N:M sparsity for tiny diffusion models: prune, retrain, run compressed."""

__version__ = "0.1.0"
