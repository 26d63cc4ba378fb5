#!/usr/bin/env python3
"""Run a fixed-seed CLI chain into OUT and print the sha256 of every file it wrote.

The chain trains three dense models (one on checkerboard with non-default
betas), prunes to 2:4, transposable 2:4, 1:8 and, with ``--strict``, 1:2,
transfer-trains six students (transfer, STE with frozen masks, progressive,
distill-only, a transposable 2:4 and a 1:8 student), samples dense,
compressed and as SVG, evaluates twice, and sweeps three patterns.  One more
model has the default hidden widths and T = 100: a few dense steps, pruned to
2:4, sampled at n = 2000 dense and compressed, the size sampling runs at in
the benchmark.  Every command
runs in this process through ``sparsedm.cli.main``, with paths relative to
OUT, and its stdout is kept as ``stdout/<run>.txt``.  The first output
line is ``# `` and the environment key (``environment_key``); then come
lines ``sha256  relative-path``, sorted by path.

Two source trees write the same bytes when their digests match:

    PYTHONPATH=../parent/src python3 scripts/chain_digests.py /tmp/a > a.txt
    PYTHONPATH=src python3 scripts/chain_digests.py /tmp/b > b.txt
    diff a.txt b.txt

``tests/chain_digests.txt`` holds this output for the current ``src/``, and
the test suite compares a fresh run with it wherever the key matches.  A
change that moves output bytes rewrites it in the same commit:

    PYTHONPATH=src python3 scripts/chain_digests.py /tmp/c > tests/chain_digests.txt
"""
import argparse
import contextlib
import ctypes
import hashlib
import io
import os
import platform
import sys
from pathlib import Path

import numpy as np

import sparsedm.cli

TRAIN = ["--steps", "16", "--batch-size", "16", "--teacher-bank", "64"]  # 16 steps start the worker on 2 CPUs

# (run name, command, arguments); each run writes into OUT/<run name>
CHAIN = [
    ("dense", "train-dense", ["--steps", "40", "--batch-size", "32", "--T", "8", "--hidden", "64,32", "--seed", "1"]),
    ("dense-wide", "train-dense", ["--data", "swiss_roll", "--steps", "8", "--batch-size", "16", "--T", "6",
                                   "--lr-schedule", "constant", "--seed", "2"]),
    ("dense-checker", "train-dense", ["--data", "checkerboard", "--beta-start", "0.001", "--beta-end", "0.05",
                                      "--steps", "8", "--batch-size", "16", "--T", "6", "--hidden", "32",
                                      "--seed", "6"]),
    ("p24", "prune", ["--ckpt", "dense", "--pattern", "2:4"]),
    ("p24t", "prune", ["--ckpt", "dense", "--pattern", "2:4", "--transposable"]),
    ("p18", "prune", ["--ckpt", "dense", "--pattern", "1:8"]),
    ("p12-strict", "prune", ["--ckpt", "dense", "--pattern", "1:2", "--strict"]),
    ("transfer", "train-sparse", ["--student", "p24", "--teacher", "dense", "--seed", "3", *TRAIN]),
    ("ste-frozen", "train-sparse", ["--student", "p24", "--teacher", "dense", "--lambda1", "0", "--lambda2", "1",
                                    "--freeze-masks", *TRAIN]),
    ("progressive", "train-sparse", ["--student", "dense", "--teacher", "dense", "--progressive", "4:4,2:4",
                                     "--switch-every", "8", *TRAIN]),
    ("distill-only", "train-sparse", ["--student", "p24", "--teacher", "dense", "--lambda1", "1", "--lambda2", "0",
                                      *TRAIN]),
    ("transposable", "train-sparse", ["--student", "p24t", "--teacher", "dense", *TRAIN]),
    ("sparse-18", "train-sparse", ["--student", "p18", "--teacher", "dense", "--lambda1", "0.3", "--lambda2", "0.7",
                                   *TRAIN]),
    ("sample", "sample", ["--ckpt", "transfer", "--n", "600", "--svg", "--seed", "4"]),
    ("sample-compressed", "sample", ["--ckpt", "transfer", "--n", "600", "--compressed"]),
    ("eval", "eval", ["--ckpt", "transfer", "--n", "256"]),
    ("eval-checker", "eval", ["--ckpt", "dense-checker", "--data", "checkerboard", "--n", "128"]),
    ("dense-full", "train-dense", ["--steps", "8", "--batch-size", "32", "--T", "100", "--seed", "7"]),
    ("p24-full", "prune", ["--ckpt", "dense-full", "--pattern", "2:4"]),
    ("sample-full", "sample", ["--ckpt", "p24-full", "--n", "2000", "--seed", "8"]),
    ("sample-full-compressed", "sample", ["--ckpt", "p24-full", "--n", "2000", "--compressed", "--seed", "8"]),
    ("sweep", "sweep", ["--ckpt", "dense", "--patterns", "2:4,1:4,1:8", "--n-eval", "64", "--seed", "5", *TRAIN]),
]


def environment_key() -> str:
    """Python, numpy and the runtime get_config string of the OpenBLAS numpy loaded.  That string
    names the core a DYNAMIC_ARCH build picked at load, and float64 results, so digests, may differ
    by core.  numpy's build-time string (``np.show_config``) names the build target instead."""
    blas = "no OpenBLAS"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
            if (get := getattr(handle, name, None)) is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                blas = get().decode()
                break
    return f"python {platform.python_version()}, numpy {np.__version__}, {blas}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="a new directory for the chain's files")
    args = ap.parse_args()
    args.out.mkdir(parents=True)
    os.chdir(args.out)
    Path("stdout").mkdir()
    print(f"sparsedm from {Path(sparsedm.cli.__file__).parent}", file=sys.stderr)
    for run, cmd, argv in CHAIN:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = sparsedm.cli.main([cmd, "--out", run, *argv])
        if code:
            print(f"{run}: sparsedm {cmd} exited {code}", file=sys.stderr)
            return 1
        Path("stdout", f"{run}.txt").write_text(text.getvalue())
    print(f"# {environment_key()}")
    for path in sorted(p.as_posix() for p in Path().rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(Path(path).read_bytes()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
