#!/usr/bin/env python3
"""Sparsity-ratio sweep: train a teacher once, then one student per N:M pattern.

Produces runs/sweep/sweep.csv plus a quality-vs-MACs SVG chart next to it.
"""
import argparse
import csv
import sys
from pathlib import Path

from sparsedm.cli import main as cli


def run(argv) -> None:
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def chart(rows, path: Path) -> None:
    # MACs ratio (linear x) against energy distance, one dot per pattern
    w, h, m = 640, 400, 50
    xs = [r["macs_sparse"] / r["macs_dense"] for r in rows]
    ys = [r["energy_distance"] for r in rows]
    y_hi = max(ys) * 1.15 or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>',
        f'<text x="{w / 2:.0f}" y="{h - 12}" text-anchor="middle" font-size="13">MACs ratio (sparse / dense)</text>',
        f'<text x="16" y="{h / 2:.0f}" font-size="13" transform="rotate(-90 16 {h / 2:.0f})" text-anchor="middle">energy distance</text>',
    ]
    x_lo, x_hi = min(xs) * 0.95, max(xs) * 1.05
    for r, x, y in zip(rows, xs, ys):
        px = m + (x - x_lo) / (x_hi - x_lo) * (w - 2 * m)
        py = h - m - y / y_hi * (h - 2 * m)
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="#cc4433"/>')
        parts.append(f'<text x="{px:.1f}" y="{py - 8:.1f}" text-anchor="middle" font-size="10">{r["pattern"]}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/sweep")
    ap.add_argument("--data", default="gauss8")
    ap.add_argument("--dense-steps", type=int, default=2000)
    ap.add_argument("--steps", type=int, default=2000, help="transfer budget per pattern")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--patterns", default=None)
    args = ap.parse_args()

    out = Path(args.out)
    dense = out / "dense"
    run(["train-dense", "--out", str(dense), "--data", args.data,
         "--steps", str(args.dense_steps), "--seed", str(args.seed)])
    sweep_args = ["sweep", "--ckpt", str(dense), "--data", args.data,
                  "--steps", str(args.steps), "--seed", str(args.seed),
                  "--out", str(out)]
    if args.patterns:
        sweep_args += ["--patterns", args.patterns]
    run(sweep_args)

    with open(out / "sweep.csv", newline="") as fh:
        rows = [
            {
                "pattern": r["pattern"],
                "macs_sparse": int(r["macs_sparse"]),
                "macs_dense": int(r["macs_dense"]),
                "energy_distance": float(r["energy_distance"]),
            }
            for r in csv.DictReader(fh)
        ]
    chart(rows, out / "sweep.svg")
    print(f"wrote {out / 'sweep.svg'}")


if __name__ == "__main__":
    main()
