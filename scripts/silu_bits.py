#!/usr/bin/env python3
"""Check that SiLU's two forms store the same float32 bytes on every STRIDE-th float32 bit pattern.

``tensor.silu(x)`` without a cache computes ``x / (1 + exp(-x))``; with a
cache, ``silu(x, [])`` computes ``x * sigmoid(x)`` from the two-exp
sigmoid that training's backward reads.  This script runs both on the bit
patterns 0, STRIDE, 2 * STRIDE, ... below 2^32, viewed as float32, and
compares the results byte for byte.  A NaN input must give NaN in both
forms; NaN outputs whose payload bits differ are counted on their own line,
not as mismatches.  The first output line is ``# `` and the environment
key of ``scripts/chain_digests.py``, since the result holds for the numpy
build and core that ran it.  STRIDE 1 (the default) checks all 2^32
patterns, about 100 s on a 2-core VM:

    PYTHONPATH=src python3 scripts/silu_bits.py [STRIDE]

Exit 0 when nothing differs; exit 1 naming the first mismatch.
"""
import argparse
import sys

import numpy as np

from chain_digests import environment_key
from sparsedm.tensor import silu

PATTERNS = 1 << 32
CHUNK = 1 << 20  # patterns per call: a few MB of float64 temporaries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("stride", type=int, nargs="?", default=1, help="check every STRIDE-th bit pattern")
    args = ap.parse_args()
    if args.stride < 1:
        ap.error("STRIDE must be a positive integer")
    print(f"# {environment_key()}")
    total = -(-PATTERNS // args.stride)
    mismatches = nans = payloads = 0
    first = None
    # the cached form warns on inf * 0; both forms must still agree there
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, CHUNK):
            index = np.arange(start, min(start + CHUNK, total), dtype=np.uint64)
            bits = (index * np.uint64(args.stride)).astype(np.uint32)
            x = bits.view(np.float32)
            quotient, product = silu(x).view(np.uint32), silu(x, []).view(np.uint32)
            nan_in = np.isnan(x)
            nan_out = np.isnan(quotient.view(np.float32)) & np.isnan(product.view(np.float32))
            bad = np.where(nan_in, ~nan_out, quotient != product)
            nans += int(nan_in.sum())
            payloads += int((nan_in & nan_out & (quotient != product)).sum())
            if bad.any():
                mismatches += int(bad.sum())
                if first is None:
                    i = int(np.argmax(bad))
                    first = (int(bits[i]), float(x[i]), int(quotient[i]), int(product[i]))
    print(f"{total} float32 bit patterns (stride {args.stride}): {mismatches} mismatches")
    print(f"{nans} NaN inputs, {payloads} of them with NaN outputs whose payload bits differ")
    if first is not None:
        bits, value, quotient, product = first
        print(f"first mismatch: input 0x{bits:08x} ({value!r}) gives 0x{quotient:08x} without a cache, "
              f"0x{product:08x} with one", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
