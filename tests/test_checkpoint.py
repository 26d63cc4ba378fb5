"""Checkpoint container: byte-level format, roundtrips, and sidecar meta."""
import json
import struct

import numpy as np
import pytest

from sparsedm.checkpoint import (
    CKPT_NAME,
    KIND_FLOAT,
    KIND_MASK,
    META_NAME,
    load_model,
    read_entries,
    save_model,
    write_entries,
)
from sparsedm.cli import main
from sparsedm.diffusion import NoisePredictor, make_schedule
from sparsedm.errors import ArchitectureError, ConfigError
from sparsedm.sparsity import NMPattern
from sparsedm.trainer import prune_one_shot

from conftest import file_checksum, model_checksum


def _pruned_model(seed=0):
    # fc1 keeps its 66-wide dense input, fc2 gets a 2:4 mask: the
    # checkpoint has to carry both dense and pruned layers
    model = NoisePredictor.create(np.random.default_rng(seed), hidden=(32,))
    prune_one_shot(model, NMPattern.parse("2:4"))
    return model


def test_roundtrip_restores_every_tensor_bitwise(tmp_path):
    model = _pruned_model()
    sched = make_schedule(50, 1e-4, 0.02)
    save_model(tmp_path, model, sched, seed=7)

    loaded, lsched, meta = load_model(tmp_path)
    assert len(loaded.layers) == len(model.layers)
    for a, b in zip(model.layers, loaded.layers):
        assert a.name == b.name
        assert a.weight.data.tobytes() == b.weight.data.tobytes()
        assert a.bias.data.tobytes() == b.bias.data.tobytes()
        assert np.array_equal(a.mask, b.mask)
        assert a.pattern == b.pattern
    assert loaded.temb_dim == model.temb_dim
    assert lsched.T == 50
    assert lsched.beta[0] == pytest.approx(1e-4)
    assert lsched.beta[-1] == pytest.approx(0.02)
    assert meta["seed"] == 7
    assert model_checksum(loaded) == model_checksum(model)


def test_save_load_save_is_byte_identical(tmp_path):
    model = _pruned_model(3)
    sched = make_schedule(20, 1e-3, 0.1)
    first = tmp_path / "a"
    second = tmp_path / "b"
    save_model(first, model, sched, seed=11)
    loaded, lsched, meta = load_model(first)
    save_model(second, loaded, lsched, seed=meta["seed"])
    assert file_checksum(second / CKPT_NAME) == file_checksum(first / CKPT_NAME)
    assert (second / META_NAME).read_bytes() == (first / META_NAME).read_bytes()


def test_load_accepts_dir_or_ckpt_path(tmp_path):
    model = _pruned_model()
    save_model(tmp_path, model, make_schedule(10, 1e-4, 0.02), seed=0)
    by_dir, _, _ = load_model(tmp_path)
    by_file, _, _ = load_model(tmp_path / CKPT_NAME)
    assert model_checksum(by_dir) == model_checksum(by_file)


def test_missing_checkpoint_and_sidecar(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_model(tmp_path / "nope")
    model = _pruned_model()
    save_model(tmp_path, model, make_schedule(10, 1e-4, 0.02), seed=0)
    (tmp_path / META_NAME).unlink()
    with pytest.raises(ConfigError, match="sidecar"):
        load_model(tmp_path)


def test_bad_magic_rejected(tmp_path):
    model = _pruned_model()
    save_model(tmp_path, model, make_schedule(10, 1e-4, 0.02), seed=0)
    p = tmp_path / CKPT_NAME
    data = bytearray(p.read_bytes())
    data[:4] = b"XXXX"
    p.write_bytes(bytes(data))
    with pytest.raises(ConfigError, match="not a checkpoint"):
        read_entries(p)


def test_bad_version_rejected(tmp_path):
    model = _pruned_model()
    save_model(tmp_path, model, make_schedule(10, 1e-4, 0.02), seed=0)
    p = tmp_path / CKPT_NAME
    data = bytearray(p.read_bytes())
    data[4:6] = struct.pack("<H", 99)
    p.write_bytes(bytes(data))
    with pytest.raises(ConfigError, match="unsupported checkpoint format version"):
        read_entries(p)


def test_mask_entries_pack_little_bit_order(tmp_path):
    p = tmp_path / "one.ckpt"
    bits = np.array([[1, 0, 1, 1]], dtype=np.uint8)
    write_entries(p, [("m", KIND_MASK, bits)])
    data = p.read_bytes()
    # header 10 + (nlen 2 + "m" 1 + kind/rank 2 + dims 8) + payload 1
    assert len(data) == 24
    assert data[-1] == 0b00001101
    (name, kind, arr), = read_entries(p)
    assert name == "m" and kind == KIND_MASK
    assert np.array_equal(arr, bits)


def test_float_entries_roundtrip_bitwise(tmp_path, rng):
    p = tmp_path / "f.ckpt"
    arrs = [
        rng.normal(size=(5, 7)).astype(np.float32),
        np.array([-0.0, np.float32(1e-40), 3.5], dtype=np.float32),
    ]
    write_entries(p, [("a", KIND_FLOAT, arrs[0]), ("b", KIND_FLOAT, arrs[1])])
    back = read_entries(p)
    for (name, kind, got), want in zip(back, arrs):
        assert kind == KIND_FLOAT
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()


def test_meta_sidecar_contents(tmp_path):
    model = _pruned_model()
    save_model(tmp_path, model, make_schedule(25, 1e-4, 0.02), seed=5, extra={"label": "teacher"})
    raw = (tmp_path / META_NAME).read_text()
    meta = json.loads(raw)
    assert meta["format_version"] == 1
    assert meta["architecture"] == {"data_dim": 2, "temb_dim": 64, "hidden": [32]}
    assert meta["schedule"] == {"T": 25, "beta_start": 1e-4, "beta_end": 0.02}
    assert meta["seed"] == 5
    assert meta["label"] == "teacher"
    by_name = {rec["name"]: rec["pattern"] for rec in meta["layers"]}
    assert by_name == {"fc1": None, "fc2": "2:4"}
    # deterministic serialization: sorted keys, two-space indent, newline at EOF
    assert raw == json.dumps(meta, sort_keys=True, indent=2) + "\n"


def test_meta_layer_without_tensor_entries(tmp_path):
    model = _pruned_model()
    save_model(tmp_path, model, make_schedule(10, 1e-4, 0.02), seed=0)
    meta = json.loads((tmp_path / META_NAME).read_text())
    meta["layers"].append({"name": "ghost", "pattern": None})
    (tmp_path / META_NAME).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    with pytest.raises(ArchitectureError, match="ghost"):
        load_model(tmp_path)


# each damage chains into a working model unless every entry is read exactly once
@pytest.mark.parametrize("damage", ["layer-dropped", "layer-repeated", "entry-repeated"])
def test_checkpoint_entries_are_each_read_once(tmp_path, capsys, damage):
    model = NoisePredictor.create(np.random.default_rng(0), hidden=(64, 64, 64))
    src = tmp_path / "src"
    save_model(src, model, make_schedule(10, 1e-4, 0.02), seed=0)
    meta = json.loads((src / META_NAME).read_text())
    entries = read_entries(src / CKPT_NAME)
    if damage == "layer-dropped":
        meta["layers"] = [rec for rec in meta["layers"] if rec["name"] != "fc3"]
    elif damage == "layer-repeated":
        meta["layers"].insert(2, {"name": "fc2", "pattern": None})
    else:
        entries.append(("fc2.weight", KIND_FLOAT, np.zeros((64, 64), np.float32)))
    bad = tmp_path / "bad"
    bad.mkdir()
    write_entries(bad / CKPT_NAME, entries)
    (bad / META_NAME).write_text(json.dumps(meta))
    with pytest.raises(ArchitectureError):
        load_model(bad)
    capsys.readouterr()
    assert main(["sample", "--out", str(tmp_path / "s"), "--ckpt", str(bad), "--n", "4"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "s").exists()


def test_model_checksum_tracks_changes():
    model = _pruned_model()
    ref = model_checksum(model)
    assert model_checksum(model.copy()) == ref
    model.layers[0].weight.data[0, 0] += 1.0
    assert model_checksum(model) != ref
