"""End-to-end CLI coverage: every subcommand, file outputs, exit codes."""
import contextlib
import io
import json
import math
import os
import signal
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedm.checkpoint import (
    CKPT_NAME,
    KIND_MASK,
    META_NAME,
    load_model,
    read_entries,
    write_entries,
)
from sparsedm.cli import COMMANDS, EXIT_CODES, FLAGS, METRIC_NAME, OPTIONS, _defaults, main
from sparsedm import diffusion, errors, trainer
from sparsedm.diffusion import NoisePredictor
from sparsedm.evalbench import SWEEP_HEADER
from sparsedm.rng import stream
from sparsedm.sparsity import NMPattern, is_transposable, satisfies

from conftest import REPORT_SCHEMA, file_checksum, model_checksum


def _read_csv_points(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One small train-dense / prune / train-sparse pipeline shared by the module."""
    base = tmp_path_factory.mktemp("cli")
    dense = base / "dense"
    pruned = base / "pruned"
    sparse = base / "sparse"
    assert main([
        "train-dense", "--out", str(dense), "--data", "gauss8", "--steps", "60",
        "--batch-size", "32", "--T", "8", "--hidden", "64,32", "--seed", "1",
    ]) == 0
    teacher_sum = file_checksum(dense / CKPT_NAME)
    assert main([
        "prune", "--out", str(pruned), "--ckpt", str(dense), "--pattern", "2:4",
    ]) == 0
    assert main([
        "train-sparse", "--out", str(sparse), "--student", str(pruned),
        "--teacher", str(dense), "--steps", "24", "--batch-size", "32",
        "--teacher-bank", "64", "--seed", "1",
    ]) == 0
    return {"base": base, "dense": dense, "pruned": pruned, "sparse": sparse,
            "teacher_sum": teacher_sum}


def test_train_dense_outputs(runs):
    dense = runs["dense"]
    for name in ("config.json", CKPT_NAME, META_NAME, "trace.jsonl"):
        assert (dense / name).exists()
    cfg = json.loads((dense / "config.json").read_text())
    assert cfg["command"] == "train-dense"
    assert cfg["steps"] == 60 and cfg["seed"] == 1 and cfg["hidden"] == "64,32"
    records = [json.loads(line) for line in (dense / "trace.jsonl").read_text().splitlines()]
    assert len(records) == 60
    assert records[0]["step"] == 0 and records[-1]["step"] == 59
    meta = json.loads((dense / META_NAME).read_text())
    assert meta["label"] == "dense"
    assert meta["architecture"]["hidden"] == [64, 32]


def test_train_dense_zero_steps_keeps_init(tmp_path):
    out = tmp_path / "zero"
    assert main([
        "train-dense", "--out", str(out), "--steps", "0", "--T", "8",
        "--hidden", "32", "--seed", "5",
    ]) == 0
    loaded, _, _ = load_model(out)
    fresh = NoisePredictor.create(stream(5, "init"), hidden=(32,))
    assert model_checksum(loaded) == model_checksum(fresh)
    assert (out / "trace.jsonl").read_text() == ""


def test_prune_reports_layers(runs, tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["prune", "--out", str(out), "--ckpt", str(runs["dense"]),
                 "--pattern", "2:4"]) == 0
    stdout = capsys.readouterr().out
    assert "fc1: dense (input width 66 not divisible by 4)" in stdout
    assert "fc2: pattern 2:4 sparsity 0.500" in stdout
    assert "fc3: pattern 2:4 sparsity 0.500" in stdout

    model, _, meta = load_model(out)
    assert meta["label"] == "pruned-2:4"
    assert model.layers[0].pattern is None
    for layer in model.layers[1:]:
        assert layer.pattern == NMPattern(2, 4)
        assert float((layer.mask == 0).mean()) == 0.5


def test_prune_leaves_source_checkpoint_alone(runs):
    assert file_checksum(runs["dense"] / CKPT_NAME) == runs["teacher_sum"]


def test_prune_transposable_masks(runs, tmp_path):
    out = tmp_path / "t"
    assert main(["prune", "--out", str(out), "--ckpt", str(runs["dense"]),
                 "--pattern", "2:4", "--transposable"]) == 0
    model, _, _ = load_model(out)
    pat = NMPattern(2, 4)
    checked = 0
    for layer in model.layers:
        if layer.pattern is not None and layer.out_features % 4 == 0:
            assert is_transposable(layer.mask, pat)
            checked += 1
    assert checked >= 1


def test_train_sparse_trace_and_label(runs):
    sparse = runs["sparse"]
    records = [json.loads(line) for line in (sparse / "trace.jsonl").read_text().splitlines()]
    assert len(records) == 24
    for rec in records:
        assert "loss_diff" in rec and "loss_dense" in rec
        assert rec["active_pattern"] == "2:4"
    meta = json.loads((sparse / META_NAME).read_text())
    assert meta["label"] == "transfer"
    model, _, _ = load_model(sparse)
    for layer in model.layers:
        if layer.pattern is not None:
            assert satisfies(layer.mask, NMPattern(2, 4))


def test_train_sparse_ste_baseline_label(runs, tmp_path):
    out = tmp_path / "ste"
    assert main([
        "train-sparse", "--out", str(out), "--student", str(runs["pruned"]),
        "--teacher", str(runs["dense"]), "--steps", "3", "--batch-size", "16",
        "--lambda1", "0", "--lambda2", "1", "--teacher-bank", "16",
    ]) == 0
    assert json.loads((out / META_NAME).read_text())["label"] == "ste-baseline"


def test_train_sparse_progressive_switches(runs, tmp_path):
    out = tmp_path / "prog"
    assert main([
        "train-sparse", "--out", str(out), "--student", str(runs["pruned"]),
        "--teacher", str(runs["dense"]), "--steps", "6", "--batch-size", "16",
        "--teacher-bank", "16", "--progressive", "4:4,2:4", "--switch-every", "3",
    ]) == 0
    records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert [r["active_pattern"] for r in records] == ["4:4"] * 3 + ["2:4"] * 3
    model, _, _ = load_model(out)
    for layer in model.layers:
        if layer.pattern is not None:
            assert satisfies(layer.mask, NMPattern(2, 4))


def test_sample_csv_and_svg(runs, tmp_path):
    out = tmp_path / "s"
    assert main(["sample", "--out", str(out), "--ckpt", str(runs["sparse"]),
                 "--n", "50", "--seed", "2"]) == 0
    pts = _read_csv_points(out / "samples.csv")
    assert pts.shape == (50, 2)
    assert not (out / "samples.svg").exists()

    out2 = tmp_path / "s2"
    assert main(["sample", "--out", str(out2), "--ckpt", str(runs["sparse"]),
                 "--n", "10", "--seed", "2", "--svg"]) == 0
    svg = (out2 / "samples.svg").read_text()
    assert svg.startswith("<svg ") and svg.count("<circle") == 10


def test_sample_compressed_matches_masked(runs, tmp_path):
    plain = tmp_path / "plain"
    comp = tmp_path / "comp"
    for out, extra in ((plain, []), (comp, ["--compressed"])):
        assert main(["sample", "--out", str(out), "--ckpt", str(runs["sparse"]),
                     "--n", "64", "--seed", "3"] + extra) == 0
    a = _read_csv_points(plain / "samples.csv")
    b = _read_csv_points(comp / "samples.csv")
    assert np.abs(a - b).max() <= 1e-4


def test_sample_compressed_needs_24_checkpoint(runs, tmp_path, capsys):
    capsys.readouterr()
    rc = main(["sample", "--out", str(tmp_path / "x"), "--ckpt", str(runs["dense"]),
               "--n", "4", "--compressed"])
    assert rc == 5
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x").exists()


def test_eval_report_schema_and_dense_reduction(runs, tmp_path):
    out = tmp_path / "e"
    assert main(["eval", "--out", str(out), "--ckpt", str(runs["dense"]),
                 "--n", "64", "--seed", "0"]) == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert set(report) == {"energy_distance", "macs_dense", "macs_sparse",
                           "reduction", "n", "seed", "metric"}
    assert report["metric"] == METRIC_NAME
    assert report["reduction"] == 0.0
    assert report["macs_sparse"] == report["macs_dense"]
    assert report["n"] == 64


def test_eval_pruned_reduction_positive(runs, tmp_path):
    out = tmp_path / "e2"
    assert main(["eval", "--out", str(out), "--ckpt", str(runs["pruned"]),
                 "--n", "64"]) == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert 0.0 < report["reduction"] < 0.5
    assert report["macs_sparse"] < report["macs_dense"]


def test_sweep_csv(runs, tmp_path):
    out = tmp_path / "sw"
    assert main([
        "sweep", "--out", str(out), "--ckpt", str(runs["dense"]),
        "--patterns", "2:4,1:4", "--steps", "4", "--batch-size", "32",
        "--teacher-bank", "64", "--n-eval", "64",
    ]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("2:4,0.5,")
    assert lines[2].startswith("1:4,0.75,")


@pytest.mark.parametrize("patterns", ["2:4,2:4", "2:4,1:4,02:4"])
def test_sweep_refuses_repeated_pattern(runs, tmp_path, monkeypatch, capsys, patterns):
    monkeypatch.setattr("sparsedm.evalbench._sweep_entry", _no_compute)
    out = tmp_path / "sw"
    rc = main(["sweep", "--out", str(out), "--ckpt", str(runs["dense"]), "--patterns", patterns,
               "--steps", "2", "--teacher-bank", "16", "--n-eval", "16"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: sweep pattern 2:4 is listed more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("teacher_flags,options,named", [
    (["--T", "9"], [], ["error: student schedule (T=8, ", "beta_end=0.02", "T=9"]),
    (["--beta-end", "0.05"], [], ["error: student schedule (T=8, ", "beta_end=0.02", "beta_end=0.05"]),
    (None, ["--pattern", "1:4", "--progressive", "4:4,2:4"], ["--pattern 1:4", "--progressive 4:4,2:4"]),
    (None, {"pattern": "1:4", "progressive": "4:4,2:4"}, ["--pattern 1:4", "--progressive 4:4,2:4"]),
], ids=["T", "beta_end", "pattern-and-progressive-flags", "pattern-and-progressive-config"])
def test_train_sparse_refusals(runs, tmp_path, capsys, teacher_flags, options, named):
    """A teacher on another noise schedule, or a fixed and a progressive pattern at once, exit 2 unwritten."""
    teacher = runs["dense"]
    if teacher_flags:
        teacher = tmp_path / "teacher"
        assert main(["train-dense", "--out", str(teacher), "--steps", "0", "--T", "8",
                     "--hidden", "64,32", "--seed", "1"] + teacher_flags) == 0
    if isinstance(options, dict):
        (tmp_path / "cfg.json").write_text(json.dumps(options))
        options = ["--config", str(tmp_path / "cfg.json")]
    capsys.readouterr()
    out = tmp_path / "sparse"
    rc = main(["train-sparse", "--out", str(out), "--student", str(runs["pruned"]),
               "--teacher", str(teacher), "--steps", "2", "--teacher-bank", "16"] + options)
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(part in lines[0] for part in named), lines[0]
    assert not out.exists()


def test_rerun_is_byte_identical(runs, tmp_path):
    outputs = (CKPT_NAME, META_NAME, "trace.jsonl", "config.json")
    again = tmp_path / "again"
    assert main([
        "train-dense", "--out", str(again), "--data", "gauss8", "--steps", "60",
        "--batch-size", "32", "--T", "8", "--hidden", "64,32", "--seed", "1",
    ]) == 0
    dense = runs["dense"]
    for name in outputs:
        assert (again / name).read_bytes() == (dense / name).read_bytes()

    # the fixture's sparse run, then a progressive run with frozen masks, twice
    sparse_again = tmp_path / "sparse-again"
    assert main([
        "train-sparse", "--out", str(sparse_again), "--student", str(runs["pruned"]),
        "--teacher", str(dense), "--steps", "24", "--batch-size", "32",
        "--teacher-bank", "64", "--seed", "1",
    ]) == 0
    for name in outputs:
        assert (sparse_again / name).read_bytes() == (runs["sparse"] / name).read_bytes()
    p1, p2 = tmp_path / "p1", tmp_path / "p2"
    for out in (p1, p2):
        assert main([
            "train-sparse", "--out", str(out), "--student", str(runs["pruned"]),
            "--teacher", str(dense), "--steps", "20", "--batch-size", "16", "--teacher-bank", "32",
            "--progressive", "4:4,2:4", "--switch-every", "8", "--freeze-masks",
        ]) == 0
    for name in outputs:
        assert (p1 / name).read_bytes() == (p2 / name).read_bytes()

    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    for out in (e1, e2):
        assert main(["eval", "--out", str(out), "--ckpt", str(dense), "--n", "32"]) == 0
    assert (e1 / "report.json").read_bytes() == (e2 / "report.json").read_bytes()


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 3, "lr": 0.1, "T": 8, "hidden": "32"}))
    out = tmp_path / "run"
    assert main(["train-dense", "--out", str(out), "--config", str(cfg),
                 "--steps", "5"]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["steps"] == 5        # flag beats file
    assert echoed["lr"] == 0.1         # file beats default
    assert echoed["data"] == "gauss8"  # untouched default


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stepz": 3}))
    rc = main(["train-dense", "--out", str(tmp_path / "x"), "--config", str(cfg)])
    assert rc == 2


def _no_compute(*args, **kwargs):
    raise AssertionError("compute started before --out was checked")


def test_unwritable_out_dir(runs, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sparsedm.cli.transfer_train", _no_compute)
    monkeypatch.setattr("sparsedm.cli.sweep_ratios", _no_compute)
    blocker = tmp_path / "file.txt"
    blocker.write_text("")
    argvs = {"train-dense": ["--steps", "0", "--T", "8", "--hidden", "32"],
             "sweep": ["--ckpt", str(runs["dense"]), "--patterns", "2:4", "--steps", "2",
                       "--teacher-bank", "16", "--n-eval", "16"]}
    # a regular file where a parent directory should be, and a regular file as --out itself
    for cmd, argv in argvs.items():
        for out in (blocker / "out", blocker):
            capsys.readouterr()
            assert main([cmd, "--out", str(out), *argv]) == 2, (cmd, out)
            err = capsys.readouterr().err
            assert err.startswith("error: --out") and len(err.splitlines()) == 1
            assert blocker.read_text() == ""


def test_architecture_mismatch_exit_code(runs, tmp_path):
    other = tmp_path / "other"
    assert main(["train-dense", "--out", str(other), "--steps", "0", "--T", "8",
                 "--hidden", "32"]) == 0
    rc = main([
        "train-sparse", "--out", str(tmp_path / "x"), "--student", str(runs["pruned"]),
        "--teacher", str(other), "--steps", "2", "--teacher-bank", "16",
    ])
    assert rc == 4


# 1:5 parses, but group size 5 divides none of the input widths 66, 64 and 32
@pytest.mark.parametrize("pattern", ["5:4", "0:4", "abc", "1:4:2", "1:5"])
def test_bad_pattern_exit_code(runs, tmp_path, pattern):
    rc = main(["prune", "--out", str(tmp_path / "x"), "--ckpt", str(runs["dense"]),
               "--pattern", pattern])
    assert rc == 3
    assert not (tmp_path / "x").exists()


def test_missing_checkpoint_exit_code(tmp_path):
    rc = main(["prune", "--out", str(tmp_path / "x"), "--ckpt", str(tmp_path / "none")])
    assert rc == 2


def test_every_typed_error_has_one_exit_code():
    # a typed error without a row ends in a traceback; a row cannot outlive its error, which cli imports
    typed = [kind for kind in vars(errors).values() if isinstance(kind, type) and kind.__module__ == errors.__name__]
    rows = [kind for kind, _ in EXIT_CODES if kind.__module__ == errors.__name__]
    assert typed and sorted(rows, key=str) == sorted(typed, key=str)


def test_dense_student_needs_pattern(runs, tmp_path):
    rc = main([
        "train-sparse", "--out", str(tmp_path / "x"), "--student", str(runs["dense"]),
        "--teacher", str(runs["dense"]), "--steps", "2", "--teacher-bank", "16",
    ])
    assert rc == 2


def test_train_sparse_pattern_fitting_no_layer_exits_3(runs, tmp_path, capsys):
    # group size 5 divides none of the input widths 66, 64 and 32
    capsys.readouterr()
    rc = main([
        "train-sparse", "--out", str(tmp_path / "x"), "--student", str(runs["pruned"]),
        "--teacher", str(runs["dense"]), "--steps", "2", "--teacher-bank", "16", "--pattern", "1:5",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_sample_rejects_bad_count(runs, tmp_path):
    rc = main(["sample", "--out", str(tmp_path / "x"), "--ckpt", str(runs["dense"]),
               "--n", "0"])
    assert rc == 2


@pytest.mark.parametrize("cmd,values", [
    ("train-dense", {"lr": "0.1"}),
    ("train-dense", {"T": 2.5}),
    ("train-dense", {"steps": "3"}),
    ("train-dense", {"steps": True}),
    ("train-dense", {"data": "spiral"}),
    ("sample", {"n": "5"}),
    ("sample", {"svg": "no"}),
    ("prune", {"transposable": "false"}),
], ids=lambda v: json.dumps(v, separators=(",", ":")) if isinstance(v, dict) else v)
def test_mistyped_config_value_exits_2(runs, tmp_path, capsys, cmd, values):
    (key,) = values
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    argv = [cmd, "--out", str(tmp_path / "x"), "--config", str(cfg)]
    if cmd != "train-dense":
        argv += ["--ckpt", str(runs["dense"])]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "x" / "config.json").exists()


# prune draws no random numbers, so only the config check can refuse its seed
@pytest.mark.parametrize("cmd", ["train-dense", "prune", "sample"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_exits_2(runs, tmp_path, capsys, cmd, via):
    argv = [cmd, "--out", str(tmp_path / "x")]
    argv += {"train-dense": ["--steps", "2", "--T", "4", "--hidden", "32"],
             "prune": ["--ckpt", str(runs["dense"])],
             "sample": ["--ckpt", str(runs["sparse"])]}[cmd]
    if via == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a non-negative integer") and len(err.splitlines()) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("seed", ["abc", None, [1], 1.5, True, -3])
def test_prune_refuses_bad_sidecar_seed(runs, tmp_path, capsys, seed):
    bad = _damaged_copy(runs["dense"], tmp_path / "bad", lambda entries, meta: meta.update(seed=seed))
    capsys.readouterr()
    assert main(["prune", "--out", str(tmp_path / "x"), "--ckpt", str(bad)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "'seed' must be a non-negative integer" in lines[0]
    assert not (tmp_path / "x").exists()


# every width must be a positive multiple of 32, so each sweep group size up to 32 divides it
@pytest.mark.parametrize("hidden", ["0", "16", "48", "32,-32", "a"])
def test_bad_hidden_width_exits_2(tmp_path, capsys, hidden):
    capsys.readouterr()
    assert main(["train-dense", "--out", str(tmp_path / "x"), "--steps", "0", "--T", "4", "--hidden", hidden]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "hidden widths" in lines[0]
    assert not (tmp_path / "x").exists()


def test_config_int_accepted_for_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lr": 1, "steps": 2, "T": 8, "hidden": "32", "batch_size": 8}))
    out = tmp_path / "run"
    assert main(["train-dense", "--out", str(out), "--config", str(cfg)]) == 0
    assert json.loads((out / "config.json").read_text())["lr"] == 1


@pytest.mark.parametrize("keep", [0, 3, 9, 40, -200, -1])
def test_truncated_checkpoint_exits_2(runs, tmp_path, capsys, keep):
    bad = tmp_path / "bad"
    bad.mkdir()
    data = (runs["sparse"] / CKPT_NAME).read_bytes()
    (bad / CKPT_NAME).write_bytes(data[:keep] if keep else b"")
    (bad / META_NAME).write_bytes((runs["sparse"] / META_NAME).read_bytes())
    capsys.readouterr()
    assert main(["sample", "--out", str(tmp_path / "s"), "--ckpt", str(bad), "--n", "4"]) == 2
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["trailing", "name", "sidecar", "list", "no-temb"])
def test_corrupt_checkpoint_exits_2(runs, tmp_path, capsys, damage):
    bad = tmp_path / "bad"
    bad.mkdir()
    ckpt = (runs["sparse"] / CKPT_NAME).read_bytes()
    meta = (runs["sparse"] / META_NAME).read_text()
    if damage == "trailing":
        ckpt += b"\0"
    elif damage == "name":
        ckpt = ckpt[:12] + b"\xff" + ckpt[13:]  # first byte of the first entry name
    elif damage == "sidecar":
        meta = meta[: len(meta) // 2]
    elif damage == "list":
        meta = "[]"
    else:
        doc = json.loads(meta)
        del doc["architecture"]["temb_dim"]
        meta = json.dumps(doc)
    (bad / CKPT_NAME).write_bytes(ckpt)
    (bad / META_NAME).write_text(meta)
    capsys.readouterr()
    assert main(["sample", "--out", str(tmp_path / "s"), "--ckpt", str(bad), "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("freeze", [[], ["--freeze-masks"]], ids=["reprojected", "frozen"])
def test_train_sparse_keeps_transposable_masks(runs, tmp_path, freeze):
    pruned, out = tmp_path / "pt", tmp_path / "st"
    assert main(["prune", "--out", str(pruned), "--ckpt", str(runs["dense"]), "--transposable"]) == 0
    assert main([
        "train-sparse", "--out", str(out), "--student", str(pruned), "--teacher", str(runs["dense"]),
        "--steps", "5", "--batch-size", "16", "--teacher-bank", "16",
    ] + freeze) == 0
    pat = NMPattern(2, 4)
    fc2 = load_model(out)[0].layers[1]
    assert fc2.pattern == pat and is_transposable(fc2.mask, pat)
    # a student pruned row-wise stays row-wise
    assert not is_transposable(load_model(runs["sparse"])[0].layers[1].mask, pat)


def _damaged_copy(src, dst, edit):
    """Copy a checkpoint into dst after ``edit(entries, meta)`` changes it in place."""
    dst.mkdir()
    entries = {name: (kind, arr) for name, kind, arr in read_entries(src / CKPT_NAME)}
    meta = json.loads((src / META_NAME).read_text())
    edit(entries, meta)
    write_entries(dst / CKPT_NAME, [(name, kind, arr) for name, (kind, arr) in entries.items()])
    (dst / META_NAME).write_text(json.dumps(meta))
    return dst


def _resize_rows(entries, layer, rows):
    """Give a layer ``rows`` output rows, cycling its existing ones."""
    for part in ("weight", "bias", "mask"):
        kind, arr = entries[f"{layer}.{part}"]
        entries[f"{layer}.{part}"] = (kind, arr[np.arange(rows) % len(arr)])


def _resize_cols(entries, layer, cols):
    """Give a layer ``cols`` input columns, cycling its existing ones."""
    for part in ("weight", "mask"):
        kind, arr = entries[f"{layer}.{part}"]
        entries[f"{layer}.{part}"] = (kind, arr[:, np.arange(cols) % arr.shape[1]])


def _set_pattern(meta, layer, pattern):
    next(rec for rec in meta["layers"] if rec["name"] == layer)["pattern"] = pattern


@pytest.mark.parametrize(
    "damage", ["mask-shape", "bias-length", "no-chain", "input-width", "output-width", "sidecar-architecture",
               "odd-temb", "negative-temb"]
)
def test_inconsistent_layer_shapes_exit_4(runs, tmp_path, capsys, damage):
    def edit(entries, meta):
        if damage == "mask-shape":
            entries["fc2.mask"] = (KIND_MASK, entries["fc2.mask"][1][:, :32])
        elif damage == "bias-length":
            entries["fc2.bias"] = (entries["fc2.bias"][0], entries["fc2.bias"][1][:-1])
        elif damage == "no-chain":
            _resize_rows(entries, "fc2", 28)  # fc3 still reads 32
        elif damage == "input-width":
            meta["architecture"]["temb_dim"] = 32
        elif damage == "sidecar-architecture":
            # the layers still chain; only the sidecar's description of them is wrong
            meta["architecture"].update(hidden=[7], data_dim=5)
        elif damage.endswith("-temb"):
            # fc1 reads 2 + temb_dim inputs, a width the time embedding (always even) cannot fill
            temb = 65 if damage == "odd-temb" else -2
            _resize_cols(entries, "fc1", 2 + temb)
            meta["architecture"]["temb_dim"] = temb
        else:
            _resize_rows(entries, "fc3", 3)

    bad = _damaged_copy(runs["pruned"], tmp_path / "bad", edit)
    capsys.readouterr()
    assert main(["sample", "--out", str(tmp_path / "s"), "--ckpt", str(bad), "--n", "4"]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "s").exists()


# each case and what its error line says
BOUNDARY_ERRORS = {
    "config-missing": "config file not found",
    "config-not-json": "is not valid JSON",
    "config-list": "must hold a JSON object",
    "progressive-empty": "progressive schedule needs at least one pattern",
    "bias-as-mask": "layer fc1 entries have kinds (0, 1, 1)",
    "entry-kind-7": "unknown entry kind 7",
    "sweep-n-eval-1": "n_eval must be >= 2",
}


@pytest.mark.parametrize("case", list(BOUNDARY_ERRORS))
def test_boundary_errors_exit_2(runs, tmp_path, capsys, case):
    """Each input is refused where it enters: exit 2, one error line, no output directory."""
    cfg = tmp_path / "cfg.json"  # written by the other config cases; missing in "config-missing"
    argv = ["train-dense", "--steps", "2", "--T", "4", "--hidden", "32", "--config", str(cfg)]
    if case == "config-not-json":
        cfg.write_text('{"steps": 3,')
    elif case == "config-list":
        cfg.write_text("[1, 2]")
    elif case == "progressive-empty":
        argv = ["train-sparse", "--student", str(runs["pruned"]), "--teacher", str(runs["dense"]),
                "--steps", "2", "--teacher-bank", "16", "--progressive", ","]
    elif case == "bias-as-mask":
        def edit(entries, meta):
            entries["fc1.bias"] = (KIND_MASK, np.ones(len(entries["fc1.bias"][1]), np.uint8))

        argv = ["sample", "--n", "4", "--ckpt", str(_damaged_copy(runs["pruned"], tmp_path / "bad", edit))]
    elif case == "entry-kind-7":
        bad = _damaged_copy(runs["pruned"], tmp_path / "bad", lambda entries, meta: None)
        blob = bytearray((bad / CKPT_NAME).read_bytes())
        blob[12 + struct.unpack("<H", blob[10:12])[0]] = 7  # the first entry's kind, after its name
        (bad / CKPT_NAME).write_bytes(bytes(blob))
        argv = ["sample", "--n", "4", "--ckpt", str(bad)]
    elif case == "sweep-n-eval-1":
        argv = ["sweep", "--ckpt", str(runs["dense"]), "--patterns", "2:4", "--steps", "2",
                "--teacher-bank", "16", "--n-eval", "1"]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and BOUNDARY_ERRORS[case] in lines[0], lines
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [["sample", "--compressed"], ["eval"]], ids=["sample", "eval"])
@pytest.mark.parametrize("src,layer,pattern", [
    ("dense", "fc2", "2:4"),     # a 2:4 claim over an all-ones mask
    ("pruned", "fc2", None),     # a dense claim over a pruned mask
    ("pruned", "fc3", "1:4"),    # another pattern than the mask's
])
def test_mask_disagreeing_with_pattern_exits_2(runs, tmp_path, capsys, argv, src, layer, pattern):
    bad = _damaged_copy(runs[src], tmp_path / "bad", lambda e, meta: _set_pattern(meta, layer, pattern))
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "x"), "--ckpt", str(bad), "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "recorded pattern" in err
    assert not (tmp_path / "x" / "config.json").exists()


def _blow_up(entries, meta):
    for name, (kind, arr) in entries.items():
        if name.endswith(".weight"):
            entries[name] = (kind, np.full_like(arr, 1e30))


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "8"],
    ["sample", "--n", "600"],
    ["eval", "--n", "8"],
    ["sweep", "--patterns", "2:4", "--steps", "2", "--teacher-bank", "16", "--n-eval", "16"],
], ids=["sample", "sample-chunks", "eval", "sweep"])
def test_non_finite_samples_exit_1(runs, tmp_path, capsys, monkeypatch, argv):
    # two CPUs, so 600 rows sample in two chunks in two processes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    bad = _damaged_copy(runs["dense"], tmp_path / "bad", _blow_up)
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "x"), "--ckpt", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sampling diverged") and "Traceback" not in err
    # neither samples.csv, report.json nor sweep.csv, nor even config.json
    assert not (tmp_path / "x").exists()


def test_divergence_raises_no_numpy_warning(runs, tmp_path, capsys, monkeypatch):
    # 600 rows on two CPUs sample in two chunks: the forked chunk's process must ignore overflow too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    bad = _damaged_copy(runs["dense"], tmp_path / "bad", _blow_up)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sample", "--out", str(tmp_path / "s"), "--ckpt", str(bad), "--n", "8"]) == 1
        assert main(["sample", "--out", str(tmp_path / "c"), "--ckpt", str(bad), "--n", "600"]) == 1
        assert main(["train-dense", "--out", str(tmp_path / "d"), "--lr", "1000", "--T", "8",
                     "--hidden", "32"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3 and all(line.startswith("error: ") for line in lines)
    # a diverged run writes no output directory, not even config.json
    assert not any((tmp_path / name).exists() for name in ("s", "c", "d"))


def test_killed_sampling_worker_exits_1(runs, tmp_path, capsys, monkeypatch):
    # 600 rows on two CPUs sample in two chunks; the forked chunk's process is killed before its first step
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    caller, real = os.getpid(), diffusion._reverse_chain

    def killed(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(diffusion, "_reverse_chain", killed)
    capsys.readouterr()
    assert main(["sample", "--out", str(tmp_path / "x"), "--ckpt", str(runs["dense"]), "--n", "600"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: a sampling worker exited with code {-signal.SIGKILL}"]
    assert not (tmp_path / "x").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_exit_0_training_does_not_promise_a_sampleable_checkpoint(tmp_path, capsys, monkeypatch):
    """A 31:32 student whose loss explodes in 4 steps still exits 0; sampling it reports the divergence."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    d, p, s = (str(tmp_path / name) for name in ("d", "p", "s"))
    assert main(["train-dense", "--out", d, "--hidden", "64", "--T", "20", "--steps", "1", "--lr", "1.0",
                 "--data", "swiss_roll", "--batch-size", "1", "--lr-schedule", "constant", "--seed", "0"]) == 0
    assert main(["prune", "--out", p, "--ckpt", d, "--pattern", "31:32"]) == 0
    assert main(["train-sparse", "--out", s, "--student", p, "--teacher", d, "--steps", "4", "--lr", "0.01",
                 "--lambda1", "0", "--lambda2", "1", "--lambda-w", "0", "--batch-size", "1"]) == 0
    final = json.loads((tmp_path / "s" / "trace.jsonl").read_text().splitlines()[-1])
    assert final["loss_total"] > 1e8
    capsys.readouterr()
    # 1000 rows on two CPUs: two chunks, one of them forked
    assert main(["sample", "--out", str(tmp_path / "x"), "--ckpt", s, "--n", "1000"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: sampling diverged")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("cmd,lr", [("train-dense", "1e39"), ("train-sparse", "1e42"), ("train-sparse", "1e39")])
def test_last_step_overflow_exits_1(runs, tmp_path, capsys, cmd, lr):
    # the loss of the only step is finite; the update after it overflows a weight to inf, or at
    # train-sparse 1e39 leaves finite weights so large that the trained model's forward overflows
    paths = {"train-dense": ["--T", "10", "--hidden", "32"],
             "train-sparse": ["--student", str(runs["pruned"]), "--teacher", str(runs["dense"]),
                              "--teacher-bank", "64", "--batch-size", "32"]}[cmd]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([cmd, "--out", str(tmp_path / "x"), "--steps", "1", "--lr", lr, *paths]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "NaN or inf" in lines[0]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("cmd", [["prune"], ["sample", "--n", "4"]], ids=["prune", "sample"])
@pytest.mark.parametrize("entry,value", [("fc2.weight", np.nan), ("fc1.bias", np.inf), ("fc3.weight", -np.inf)],
                         ids=["nan-weight", "inf-bias", "neg-inf-weight"])
def test_non_finite_weights_exit_2(runs, tmp_path, capsys, cmd, entry, value):
    def poison(entries, meta):
        kind, arr = entries[entry]
        arr = arr.copy()
        arr.flat[0] = value
        entries[entry] = (kind, arr)

    bad = _damaged_copy(runs["dense"], tmp_path / "bad", poison)
    capsys.readouterr()
    assert main(cmd + ["--out", str(tmp_path / "x"), "--ckpt", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN or inf" in err
    assert not (tmp_path / "x").exists()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A hidden-32, T-5 checkpoint pruned to 2:4: its bytes, sidecar and mask payload spans."""
    base = tmp_path_factory.mktemp("tiny")
    assert main(["train-dense", "--out", str(base / "d"), "--steps", "2", "--batch-size", "8",
                 "--T", "5", "--hidden", "32"]) == 0
    assert main(["prune", "--out", str(base / "p"), "--ckpt", str(base / "d")]) == 0
    blob = (base / "p" / CKPT_NAME).read_bytes()
    spans, off = [], 10  # magic, version, count
    for name, kind, arr in read_entries(base / "p" / CKPT_NAME):
        off += 2 + len(name.encode()) + 2 + 4 * arr.ndim
        size = (arr.size + 7) // 8 if kind == KIND_MASK else 4 * arr.size
        if kind == KIND_MASK:
            spans.append((off, off + size))
        off += size
    assert off == len(blob)
    return blob, json.loads((base / "p" / META_NAME).read_text()), spans


@settings(max_examples=200)
@given(data=st.data())
def test_damaged_checkpoint_exits_with_documented_code(tiny, data):
    """Truncations, single bit flips and sidecar pattern edits end in an exit code, never a traceback."""
    blob, meta, spans = tiny
    damage = data.draw(st.sampled_from(["truncate", "flip", "flip-mask", "pattern"]))
    blob, meta = bytearray(blob), json.loads(json.dumps(meta))
    if damage == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif damage == "pattern":
        rec = data.draw(st.sampled_from(meta["layers"]))
        rec["pattern"] = data.draw(st.none() | st.text("0124:", max_size=4))
    else:
        lo, hi = data.draw(st.sampled_from(spans)) if damage == "flip-mask" else (0, len(blob))
        bit = data.draw(st.integers(8 * lo, 8 * hi - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
    compressed = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt"
        ckpt.mkdir()
        (ckpt / CKPT_NAME).write_bytes(bytes(blob))
        (ckpt / META_NAME).write_text(json.dumps(meta))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["sample", "--out", str(Path(tmp) / "s"), "--ckpt", str(ckpt), "--n", "8"]
                      + ["--compressed"] * compressed)
        assert rc in {0, 1, 2, 3, 4, 5}
        if rc:
            assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
        else:
            # a run that succeeds loaded masks that keep their patterns and drew finite samples
            for layer in load_model(ckpt)[0].layers:
                assert satisfies(layer.mask, layer.pattern or NMPattern(1, 1))
            assert np.isfinite(_read_csv_points(Path(tmp) / "s" / "samples.csv")).all()


def test_no_dead_options():
    assert set(COMMANDS) == set(FLAGS)
    used = set().union(*(_defaults(cmd) for cmd in FLAGS))
    assert set(OPTIONS) == used


# a tiny run of every command; the fuzz test replaces one of its keys
FUZZ_BASE = {"hidden": "32", "T": 4, "steps": 2, "n": 8, "teacher_bank": 16, "n_eval": 16, "patterns": "2:4"}
# malformed and near-valid text per string option; never free text, since a width
# like "999968" would allocate terabytes
FUZZ_TEXT = {
    "hidden": ["", "0", "33", "2:4:", ",", "32,", "-32", "32,33"],
    "pattern": ["", "0", "33", "2:4:", ",", "1:5", "4:4", " 2:4"],
    "progressive": ["", "0", "33", "2:4:", ",", "4:4,2:4", "2:4,,1:4"],
    "patterns": ["", "0", "33", "2:4:", ",", "1:5", "2:4,1:4"],
    "data": ["", "0", "33", "Gauss8", "gauss8 "],
    "lr_schedule": ["", "0", "33", "linear", "Cosine"],
}
FUZZ_EDGE = {
    int: st.integers(-3, 64),
    float: st.floats(-3, 64) | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    bool: st.booleans(),
}
FUZZ_WRONG = st.sampled_from(["0", "2:4", True, False, 1.5, -2.0, [], [4], None])


@st.composite
def fuzz_cases(draw):
    """A command, one of its option keys, and a wrong-typed or edge value for it."""
    cmd = draw(st.sampled_from(sorted(FLAGS)))
    key = draw(st.sampled_from(sorted(_defaults(cmd))))
    kind = OPTIONS[key].type
    edge = st.sampled_from(FUZZ_TEXT[key]) if kind is str else FUZZ_EDGE[kind]
    return cmd, key, draw(edge | FUZZ_WRONG)


@settings(max_examples=400)
@example(case=("train-dense", "seed", -1))
@given(case=fuzz_cases())
def test_config_fuzz_exits_with_documented_code(runs, case):
    """One config value replaced by a wrong-typed or edge value: a documented exit code, one error line."""
    cmd, key, value = case
    defaults = _defaults(cmd)
    cfg = {k: v for k, v in FUZZ_BASE.items() if k in defaults}
    cfg[key] = value
    paths = {"prune": ["--ckpt", runs["dense"]], "sweep": ["--ckpt", runs["dense"]],
             "sample": ["--ckpt", runs["sparse"]], "eval": ["--ckpt", runs["sparse"]],
             "train-sparse": ["--student", runs["pruned"], "--teacher", runs["dense"]]}.get(cmd, [])
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = Path(tmp) / "cfg.json", Path(tmp) / "out"
        config.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([cmd, "--out", str(out_dir), "--config", str(config)] + [str(p) for p in paths])
        assert rc in {0, 1, 2, 3, 4, 5}
        if rc:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err.getvalue()
            assert not out_dir.exists()
        else:
            assert err.getvalue() == "" and (out_dir / "config.json").exists()


# ---------------------------------------------------------------------------
# the distillation branch in a forked worker
# ---------------------------------------------------------------------------

def _count_forks(monkeypatch) -> list:
    """Record each os.fork call in the returned list; the forks still happen."""
    forks, real = [], os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return forks


# options of each run; every run is long enough (16 steps) that two CPUs start the worker
WORKER_RUNS = {
    "mix-0.5-0.5": [],
    "mix-0.3-0.7": ["--lambda1", "0.3", "--lambda2", "0.7"],
    "progressive": ["--progressive", "4:4,2:4", "--switch-every", "8"],
    "freeze-masks": ["--freeze-masks"],
    "transposable": [],
    "sweep": ["--patterns", "2:4,1:4", "--n-eval", "32"],
}


@pytest.mark.parametrize("run", list(WORKER_RUNS))
def test_worker_changes_no_byte(runs, tmp_path, monkeypatch, run):
    """One CPU runs the distillation branch in this process, two in a forked worker; the bytes agree."""
    if run == "sweep":
        argv = ["sweep", "--ckpt", str(runs["dense"])]
    else:
        student = runs["pruned"]
        if run == "transposable":
            student = tmp_path / "pt"
            assert main(["prune", "--out", str(student), "--ckpt", str(runs["dense"]), "--transposable"]) == 0
        argv = ["train-sparse", "--student", str(student), "--teacher", str(runs["dense"])]
    argv += WORKER_RUNS[run] + ["--steps", "16", "--batch-size", "16", "--teacher-bank", "64"]
    forks = _count_forks(monkeypatch)
    digests = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c, raising=False)
        out = tmp_path / f"cpus{len(cpus)}"
        assert main(argv + ["--out", str(out)]) == 0
        digests.append(sorted((p.name, file_checksum(p)) for p in out.iterdir() if p.name != "config.json"))
        # one worker per training run on two CPUs, none on one
        assert len(forks) == (0 if len(cpus) == 1 else 2 if run == "sweep" else 1)
    assert digests[0] == digests[1]


def test_divergence_with_worker_leaves_no_process(runs, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _count_forks(monkeypatch)
    capsys.readouterr()
    assert main(["train-sparse", "--out", str(tmp_path / "x"), "--student", str(runs["pruned"]),
                 "--teacher", str(runs["dense"]), "--steps", "16", "--batch-size", "16",
                 "--teacher-bank", "64", "--lr", "1e6", "--lr-schedule", "constant"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(forks) == 1
    assert len(lines) == 1 and lines[0].startswith("error: loss diverged")
    assert not (tmp_path / "x").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_killed_distillation_worker_exits_1(runs, tmp_path, capsys, monkeypatch):
    # on two CPUs only the forked worker runs the distillation branch; it is killed before its first step
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    caller, real = os.getpid(), trainer._distill_branch

    def killed(*args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "_distill_branch", killed)
    capsys.readouterr()
    assert main(["train-sparse", "--out", str(tmp_path / "x"), "--student", str(runs["pruned"]),
                 "--teacher", str(runs["dense"]), "--steps", "16", "--batch-size", "16", "--teacher-bank", "64"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: the distillation worker exited with code {-signal.SIGKILL}"]
    assert not (tmp_path / "x").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_ending_early_exits_1(runs, tmp_path, capsys, monkeypatch):
    # on two CPUs only the forked worker runs the distillation branch; it yields one step, then exits 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real = trainer._distill_branch

    def one_step(*args, **kwargs):
        yield next(real(*args, **kwargs))

    monkeypatch.setattr(trainer, "_distill_branch", one_step)
    forks = _count_forks(monkeypatch)
    capsys.readouterr()
    assert main(["train-sparse", "--out", str(tmp_path / "x"), "--student", str(runs["pruned"]),
                 "--teacher", str(runs["dense"]), "--steps", "12", "--batch-size", "16", "--teacher-bank", "64"]) == 1
    assert len(forks) == 1
    assert capsys.readouterr().err.splitlines() == ["error: the distillation worker exited before its last step"]
    assert not (tmp_path / "x").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The distillation branch raises errors.<kind> or builtins.<kind>(message) at the step given second,
# on the CPUs given third; on two, only the forked worker runs the branch.  stdout gets the number
# of forks, and stderr one more line if a child process is left, running or unreaped.
BRANCH_FAULT = """
import builtins, contextlib, os, sys
from sparsedm import errors, trainer
from sparsedm.cli import main

kind, fatal, cpus, message = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
fault = getattr(errors, kind, None) or getattr(builtins, kind)
real, forks, fork = trainer._distill_branch, [], os.fork

def faulty(*args, **kwargs):
    for step, item in enumerate(real(*args, **kwargs)):
        if step == fatal:
            raise fault(message)
        yield item

trainer._distill_branch = faulty
os.sched_getaffinity = lambda pid: set(range(cpus))
os.fork = lambda: forks.append(1) or fork()
try:
    sys.exit(main(sys.argv[5:]))
finally:
    print(len(forks))
    with contextlib.suppress(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
        print("a child process is left", file=sys.stderr)
"""


def _python_env() -> dict:
    """This environment with src/ importable, for a fresh interpreter."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _branch_fault(runs, out, kind, fatal, cpus, message="worker fault"):
    argv = ["train-sparse", "--out", str(out), "--student", str(runs["pruned"]), "--teacher", str(runs["dense"]),
            "--steps", "16", "--batch-size", "16", "--teacher-bank", "64"]
    # a worker that dies must not leave the parent waiting for its step
    return subprocess.run([sys.executable, "-c", BRANCH_FAULT, kind, str(fatal), str(cpus), message, *argv],
                          env=_python_env(), capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("fatal", [0, 15], ids=["first-step", "last-step"])
def test_dying_worker_exits_1(runs, tmp_path, fatal):
    """The worker's exception reaches the caller as it would in-process: typed, or with its traceback."""
    for kind in ("TrainingError", "RuntimeError"):
        proc = _branch_fault(runs, tmp_path / kind, kind, fatal, cpus=2)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == "1\n"
        lines = proc.stderr.splitlines()
        if kind == "TrainingError":
            assert lines == ["error: worker fault"]
        else:
            assert lines[0] == "Traceback (most recent call last):" and lines[-1] == "RuntimeError: worker fault"
            assert "a child process is left" not in lines
        assert not (tmp_path / kind).exists()


def test_branch_fault_is_the_same_on_one_cpu_and_two(runs, tmp_path):
    """A typed fault in the distillation branch exits alike in this process (one CPU) and in the worker (two)."""
    procs = [_branch_fault(runs, tmp_path / f"cpus{cpus}", "DimensionError", 3, cpus) for cpus in (1, 2)]
    assert [p.stdout for p in procs] == ["0\n", "1\n"]
    assert [(p.returncode, p.stderr) for p in procs] == [(3, "error: worker fault\n")] * 2
    assert not any((tmp_path / f"cpus{cpus}").exists() for cpus in (1, 2))


def test_worker_exception_past_the_pipe_buffer(runs, tmp_path):
    """An exception that pickles to more than a pipe holds (64 KiB) reaches the caller: the worker closes
    its end of the step-result pipe before it writes the exception, which ends the caller's wait for the step."""
    message = "x" * 100_000
    proc = _branch_fault(runs, tmp_path / "x", "DimensionError", 3, 2, message)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "1\n", f"error: {message}\n")
    assert not (tmp_path / "x").exists()


# Ctrl-C at a terminal reaches the whole process group.  The given functions, "module.name", print
# "ready" when this process calls them and sleep 60 s in a forked child first, so only a kill ends
# the child in time.  The arguments after "--" go to main.
INTERRUPTED = """
import os, sys, time
from sparsedm import diffusion, trainer
from sparsedm.cli import main

parent, split = os.getpid(), sys.argv.index("--")

def stalled(real):
    def call(*args, **kwargs):
        if os.getpid() == parent:
            print("ready", flush=True)
        else:
            time.sleep(60)
        return real(*args, **kwargs)
    return call

for target in sys.argv[1:split]:
    module, name = target.split(".")
    setattr(globals()[module], name, stalled(getattr(globals()[module], name)))
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(main(sys.argv[split + 1:]))
"""


@pytest.mark.parametrize("case", ["train-sparse", "sample"])
def test_ctrl_c_kills_every_child(runs, tmp_path, case):
    out = ["--out", str(tmp_path / "x")]
    if case == "sample":
        # 600 rows on two CPUs: chunk 0 here, after the forked chunk has started
        targets, argv = ["diffusion._reverse_chain"], ["sample", *out, "--ckpt", str(runs["dense"]), "--n", "600"]
    else:
        # toy_batch runs in this process's loop only, once the worker has started; the branch in the worker only
        targets = ["trainer.toy_batch", "trainer._distill_branch"]
        argv = ["train-sparse", *out, "--student", str(runs["pruned"]), "--teacher", str(runs["dense"]),
                "--steps", "16", "--batch-size", "16", "--teacher-bank", "64"]
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTED, *targets, "--", *argv], env=_python_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        assert proc.stdout.readline() == "ready\n"
        os.killpg(proc.pid, signal.SIGINT)
        err = proc.communicate(timeout=30)[1]
        with pytest.raises(ProcessLookupError):  # no process of the group is left
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGINT and err.splitlines()[-1] == "KeyboardInterrupt"
    assert not (tmp_path / "x").exists()
