"""Command-line front end: train, prune, transfer, sample, eval, sweep, bench.

Every command reads an optional JSON config file, overrides it with explicit
flags, validates the merged result before any compute, and echoes the
effective configuration into the output directory.  Exit codes: 2 for config
problems, 3 for pattern problems, 4 for architecture mismatches, 5 when the
compressed path is requested for an incompatible checkpoint.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .diffusion import DATASETS, NoisePredictor, ToyDataset, ddpm_sample, make_schedule, toy_batch
from .errors import (
    ArchitectureError,
    CompressedPathError,
    CompressionError,
    ConfigError,
    DimensionError,
    PatternError,
    TrainingError,
)
from .evalbench import (
    DEFAULT_BENCH_SIZES,
    DEFAULT_SWEEP_PATTERNS,
    bench_spmm,
    energy_distance,
    format_float,
    macs_count,
    sweep_ratios,
    write_bench_csv,
    write_sweep_csv,
)
from .rng import stream
from .sparsity import NMPattern, is_transposable
from .trainer import LR_SCHEDULES, TrainConfig, prune_one_shot, transfer_train

METRIC_NAME = "energy_distance(FID proxy)"


@dataclass(frozen=True)
class Opt:
    """One option's value type, help text and allowed values; ``bool`` is an on/off flag."""

    type: type
    help: str | None = None
    choices: tuple | None = None


# Every option of every command, declared once; ``--batch-size`` sets batch_size.
OPTIONS = {
    "seed": Opt(int),
    "data": Opt(str, choices=DATASETS),
    "steps": Opt(int, "training steps, per pattern in a sweep"),
    "batch_size": Opt(int),
    "lr": Opt(float),
    "lr_schedule": Opt(str, choices=LR_SCHEDULES),
    "T": Opt(int),
    "beta_start": Opt(float),
    "beta_end": Opt(float),
    "hidden": Opt(str, "comma list of hidden widths, e.g. 128,128"),
    "pattern": Opt(str, "N:M pattern, e.g. 2:4; train-sparse defaults to the student's"),
    "transposable": Opt(bool),
    "strict": Opt(bool, "error instead of skipping layers the group size does not divide"),
    "lambda1": Opt(float, "distillation loss weight"),
    "lambda2": Opt(float, "noise-prediction loss weight"),
    "lambda_w": Opt(float, "sparse-mask regularization strength"),
    "teacher_bank": Opt(int, "teacher sample pool size"),
    "progressive": Opt(str, "comma list of patterns, densest first"),
    "switch_every": Opt(int, "steps between progressive switches"),
    "freeze_masks": Opt(bool, "project masks only at schedule switches"),
    "n": Opt(int),
    "compressed": Opt(bool, "run 2:4 layers through the compressed kernel"),
    "svg": Opt(bool, "also write a scatter plot"),
    "n_eval": Opt(int),
    "patterns": Opt(str, "comma list of N:M patterns"),
    "sizes": Opt(str, "comma list of ROWSxCOLSxBATCH"),
    "reps": Opt(int),
}

TRAIN = {"data": "gauss8", "steps": 2000, "batch_size": 128, "lr": 0.05, "lr_schedule": "cosine"}
TRANSFER = {**TRAIN, "lambda1": 0.5, "lambda2": 0.5, "lambda_w": 1e-4, "teacher_bank": 2048}

# per command: help, required path arguments as (name, help), and option defaults;
# a None default means the option may be left unset
FLAGS = {
    "train-dense": (
        "train a dense noise predictor on a toy dataset", (),
        {**TRAIN, "lr": 0.2, "T": 100, "beta_start": 1e-4, "beta_end": 0.02, "hidden": "128,128"},
    ),
    "prune": (
        "one-shot magnitude pruning of a checkpoint", (("ckpt", "run directory or model.ckpt path"),),
        {"pattern": "2:4", "transposable": False, "strict": False},
    ),
    "train-sparse": (
        "sparse STE training with dense-teacher transfer",
        (("student", "pruned checkpoint to start from"), ("teacher", "dense checkpoint used for distillation")),
        {**TRANSFER, "steps": 4000, "pattern": None, "progressive": None, "switch_every": 1000,
         "freeze_masks": False},
    ),
    "sample": (
        "ancestral sampling from a checkpoint", (("ckpt", None),),
        {"n": 1000, "compressed": False, "svg": False},
    ),
    "eval": ("energy distance to data plus MACs accounting", (("ckpt", None),), {"data": "gauss8", "n": 2000}),
    "sweep": (
        "prune + transfer-train one student per keep ratio", (("ckpt", "dense teacher checkpoint"),),
        {**TRANSFER, "n_eval": 2000, "patterns": ",".join(str(p) for p in DEFAULT_SWEEP_PATTERNS)},
    ),
    "bench": (
        "compressed vs dense multiply micro-benchmark", (),
        {"sizes": ",".join(f"{r}x{c}x{b}" for r, c, b in DEFAULT_BENCH_SIZES), "reps": 5},
    ),
}


def _defaults(cmd: str) -> dict:
    return {"seed": 0, **FLAGS[cmd][2]}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsedm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (text, paths, _) in FLAGS.items():
        p = sub.add_parser(cmd, help=text)
        p.add_argument("--config", help="JSON file with defaults for this command")
        p.add_argument("--out", required=True, help="output directory for this run")
        for name, path_help in paths:
            p.add_argument(f"--{name}", required=True, help=path_help)
        # every option defaults to None so the merge can tell which flags were given
        for name in _defaults(cmd):
            opt = OPTIONS[name]
            flag = "--" + name.replace("_", "-")
            if opt.type is bool:
                p.add_argument(flag, action="store_true", default=None, help=opt.help)
            else:
                p.add_argument(flag, type=opt.type, choices=opt.choices, help=opt.help)
    return parser


def _check_value(key: str, value, default) -> None:
    """A config-file value must have its option's type; ints pass as floats, bools never as ints."""
    if value is None and default is None:
        return
    opt = OPTIONS[key]
    if not (type(value) is opt.type or (opt.type is float and type(value) is int)):
        raise ConfigError(f"config key {key!r} must be a {opt.type.__name__}, got {value!r}")
    if opt.choices and value not in opt.choices:
        raise ConfigError(f"config key {key!r} must be one of {list(opt.choices)}, got {value!r}")


def _merge_config(cmd: str, args: argparse.Namespace) -> dict:
    """Defaults, then the config file's checked values, then explicit flags."""
    cfg = _defaults(cmd)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys for {cmd}: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_value(key, value, cfg[key])
        cfg.update(loaded)
    for key in cfg:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as e:
        raise ConfigError(f"output directory {out} is not writable: {e}") from None
    return out


def _echo_config(out: Path, cmd: str, cfg: dict) -> None:
    doc = {"command": cmd, **cfg}
    (out / "config.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_trace(path: Path, records) -> None:
    with open(path, "w", newline="") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise ConfigError(f"bad hidden widths {text!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise ConfigError(f"bad hidden widths {text!r}")
    return dims


def _train_config(cfg: dict, **overrides) -> TrainConfig:
    """TrainConfig from the command's options that name one of its fields."""
    known = {k: v for k, v in cfg.items() if k in TrainConfig.__dataclass_fields__}
    return TrainConfig(**known, **overrides).validate()


def _write_samples_csv(path: Path, pts: np.ndarray) -> None:
    lines = ["x,y"]
    for x, y in pts:
        lines.append(f"{x:.9g},{y:.9g}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_scatter_svg(path: Path, pts: np.ndarray, size: int = 440, margin: int = 20) -> None:
    bound = 3.0 if len(pts) == 0 else max(3.0, float(np.abs(pts).max()))
    span = size - 2 * margin

    def sx(v):
        return margin + (v + bound) / (2 * bound) * span

    def sy(v):
        return size - margin - (v + bound) / (2 * bound) * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2" fill="#336699" fill-opacity="0.5"/>')
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train_dense(args) -> int:
    cfg = _merge_config("train-dense", args)
    out = _out_dir(args)
    sched = make_schedule(cfg["T"], cfg["beta_start"], cfg["beta_end"])
    dataset = ToyDataset(cfg["data"])
    config = _train_config(cfg)
    hidden = _parse_hidden(cfg["hidden"])
    _echo_config(out, "train-dense", cfg)
    model = NoisePredictor.create(stream(cfg["seed"], "init"), hidden=hidden)
    model, trace = transfer_train(model, None, dataset, sched, config)
    ckpt.save_model(out, model, sched, cfg["seed"], extra={"label": "dense"})
    _write_trace(out / "trace.jsonl", trace)
    print(f"trained dense model for {config.steps} steps, final loss "
          f"{trace[-1]['loss_total']:.4f}" if trace else "trained dense model for 0 steps")
    print(f"wrote {out / ckpt.CKPT_NAME}")
    return 0


def cmd_prune(args) -> int:
    cfg = _merge_config("prune", args)
    out = _out_dir(args)
    pattern = NMPattern.parse(cfg["pattern"])
    model, sched, meta = ckpt.load_model(args.ckpt)
    _echo_config(out, "prune", cfg)
    prune_one_shot(model, pattern, transposable=cfg["transposable"], strict=cfg["strict"])
    for layer in model.layers:
        if layer.pattern is None:
            print(f"{layer.name}: dense (input width {layer.in_features} "
                  f"not divisible by {pattern.m})")
        else:
            zeros = float((layer.mask.bits == 0).mean())
            extra = ""
            if cfg["transposable"] and layer.out_features % pattern.m == 0 and (pattern.n, pattern.m) == (2, 4):
                extra = ", transposable" if is_transposable(layer.mask, pattern) else ""
            print(f"{layer.name}: pattern {layer.pattern} sparsity {zeros:.3f}{extra}")
    ckpt.save_model(out, model, sched, meta.get("seed", cfg["seed"]), extra={"label": f"pruned-{pattern}"})
    print(f"wrote {out / ckpt.CKPT_NAME}")
    return 0


def _schedule(cfg: dict, student: NoisePredictor) -> tuple[NMPattern, ...]:
    if cfg["progressive"]:
        patterns = tuple(NMPattern.parse(p) for p in cfg["progressive"].split(",") if p)
        if not patterns:
            raise ConfigError("progressive schedule needs at least one pattern")
        return patterns
    if cfg["pattern"]:
        return (NMPattern.parse(cfg["pattern"]),)
    recorded = [l.pattern for l in student.layers if l.pattern is not None]
    if not recorded:
        raise ConfigError("student checkpoint is dense; pass --pattern or --progressive")
    return (recorded[0],)


def cmd_train_sparse(args) -> int:
    cfg = _merge_config("train-sparse", args)
    out = _out_dir(args)
    student, sched, _ = ckpt.load_model(args.student)
    teacher, t_sched, _ = ckpt.load_model(args.teacher)
    if t_sched.T != sched.T:
        raise ConfigError(f"student schedule T={sched.T} differs from teacher T={t_sched.T}")
    dataset = ToyDataset(cfg["data"])
    config = _train_config(cfg, schedule=_schedule(cfg, student))
    _echo_config(out, "train-sparse", cfg)
    student, trace = transfer_train(student, teacher, dataset, sched, config)
    label = "ste-baseline" if config.lambda1 == 0.0 else "transfer"
    ckpt.save_model(out, student, sched, cfg["seed"], extra={"label": label})
    _write_trace(out / "trace.jsonl", trace)
    if trace:
        print(f"trained sparse model for {config.steps} steps, final loss "
              f"{trace[-1]['loss_total']:.4f} (pattern {trace[-1]['active_pattern']})")
    print(f"wrote {out / ckpt.CKPT_NAME}")
    return 0


def cmd_sample(args) -> int:
    cfg = _merge_config("sample", args)
    out = _out_dir(args)
    model, sched, _ = ckpt.load_model(args.ckpt)
    compressed = cfg["compressed"]
    if compressed:
        masked = [l for l in model.layers if l.pattern is not None]
        if not masked or any((l.pattern.n, l.pattern.m) != (2, 4) for l in masked):
            raise CompressedPathError(
                "--compressed needs a 2:4 checkpoint; prune to 2:4 first"
            )
    n = cfg["n"]
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
    _echo_config(out, "sample", cfg)
    pts = ddpm_sample(model, n, sched, stream(cfg["seed"], "sample"), compressed=compressed).data
    _write_samples_csv(out / "samples.csv", pts)
    if cfg["svg"]:
        _write_scatter_svg(out / "samples.svg", pts)
    print(f"wrote {n} samples to {out / 'samples.csv'}")
    return 0


def cmd_eval(args) -> int:
    cfg = _merge_config("eval", args)
    out = _out_dir(args)
    model, sched, _ = ckpt.load_model(args.ckpt)
    dataset = ToyDataset(cfg["data"])
    n = cfg["n"]
    if n < 2:
        raise ConfigError(f"eval needs n >= 2, got {n}")
    _echo_config(out, "eval", cfg)
    samples = ddpm_sample(model, n, sched, stream(cfg["seed"], "sample"))
    ref = toy_batch(dataset, n, stream(cfg["seed"], "eval"))
    macs = macs_count(model, (1,))
    report = {
        "energy_distance": float(energy_distance(samples, ref)),
        "macs_dense": macs.dense_total,
        "macs_sparse": macs.sparse_total,
        "reduction": macs.reduction,
        "n": n,
        "seed": cfg["seed"],
        "metric": METRIC_NAME,
    }
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"energy distance {format_float(report['energy_distance'])}, "
          f"MACs reduction {report['reduction']:.4f}")
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _merge_config("sweep", args)
    out = _out_dir(args)
    teacher, sched, _ = ckpt.load_model(args.ckpt)
    dataset = ToyDataset(cfg["data"])
    patterns = [NMPattern.parse(p) for p in cfg["patterns"].split(",") if p]
    config = _train_config(cfg)
    _echo_config(out, "sweep", cfg)
    rows = sweep_ratios(teacher, patterns, dataset, sched, config, n_eval=cfg["n_eval"])
    write_sweep_csv(rows, out / "sweep.csv")
    for r in rows:
        print(f"{r['pattern']:>6}  sparsity {r['sparsity']:.5f}  "
              f"macs {r['macs_sparse']:>8}  energy {format_float(r['energy_distance'])}")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def _parse_sizes(text: str):
    sizes = []
    for part in text.split(","):
        if not part:
            continue
        bits = part.lower().split("x")
        if len(bits) != 3:
            raise ConfigError(f"bad bench size {part!r}, expected ROWSxCOLSxBATCH")
        try:
            sizes.append(tuple(int(b) for b in bits))
        except ValueError:
            raise ConfigError(f"bad bench size {part!r}") from None
    if not sizes:
        raise ConfigError("bench needs at least one size")
    return sizes


def cmd_bench(args) -> int:
    cfg = _merge_config("bench", args)
    out = _out_dir(args)
    sizes = _parse_sizes(cfg["sizes"])
    _echo_config(out, "bench", cfg)
    records = bench_spmm(sizes, reps=cfg["reps"], seed=cfg["seed"])
    write_bench_csv(records, out / "bench.csv")
    for r in records:
        print(f"{r.rows}x{r.cols} batch {r.batch}: dense {r.t_dense_ns} ns, "
              f"spmm {r.t_spmm_ns} ns, macs ratio {r.macs_ratio}, max rel err {r.max_rel_err:.2e}")
    print(f"wrote {out / 'bench.csv'}")
    return 0


# the documented exit code of each typed error
EXIT_CODES = (
    (ConfigError, 2),
    (PatternError, 3),
    (CompressionError, 3),
    (DimensionError, 3),
    (ArchitectureError, 4),
    (CompressedPathError, 5),
    (TrainingError, 1),
    (OSError, 2),
)

COMMANDS = {
    "train-dense": cmd_train_dense,
    "prune": cmd_prune,
    "train-sparse": cmd_train_sparse,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return COMMANDS[args.cmd](args)
    except tuple(kind for kind, _ in EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(e, kind))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
