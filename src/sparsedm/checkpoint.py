"""Binary checkpoint container and JSON sidecar for models.

Layout (all integers little-endian):

    magic   4 bytes  b"SDM1"
    version u16      currently 1
    count   u32      number of entries
    entry   u16 name length, UTF-8 name, u8 kind, u8 rank, rank * u32 dims,
            payload

Kind 0 is a float tensor stored as little-endian float32; kind 1 is a mask
bitset packed little-bit-order and zero-padded to whole bytes.  Entry order
is fixed by the model (weight, bias, mask per layer), so writing is
deterministic and save(load(save(...))) is byte-identical.  The sidecar
meta.json carries architecture, per-layer patterns, the noise schedule, the
seed, and the format version.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .diffusion import NoisePredictor, NoiseSchedule, make_schedule
from .errors import ArchitectureError, ConfigError
from .sparsity import MaskedLinear, NMPattern, SparseMask
from .tensor import Tensor

MAGIC = b"SDM1"
FORMAT_VERSION = 1

KIND_FLOAT = 0
KIND_MASK = 1

CKPT_NAME = "model.ckpt"
META_NAME = "meta.json"


def write_entries(path, entries) -> None:
    """Write (name, kind, array) entries; arrays are float32 or 0/1 uint8."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<H", FORMAT_VERSION)
    blob += struct.pack("<I", len(entries))
    for name, kind, arr in entries:
        raw = name.encode("utf-8")
        blob += struct.pack("<H", len(raw))
        blob += raw
        blob += struct.pack("<BB", kind, arr.ndim)
        for d in arr.shape:
            blob += struct.pack("<I", d)
        if kind == KIND_FLOAT:
            blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
        elif kind == KIND_MASK:
            bits = np.ascontiguousarray(arr, dtype=np.uint8).reshape(-1)
            blob += np.packbits(bits, bitorder="little").tobytes()
        else:
            raise ValueError(f"unknown entry kind {kind}")
    Path(path).write_bytes(bytes(blob))


def read_entries(path):
    """Parse every entry; a short or overlong file raises ConfigError, not a struct error."""
    data = Path(path).read_bytes()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise ConfigError(f"{path}: truncated checkpoint, needs {n} bytes at offset {off} of {len(data)}")
        off += n
        return data[off - n : off]

    magic = take(4)
    if magic != MAGIC:
        raise ConfigError(f"{path}: not a checkpoint (bad magic {magic!r})")
    (version,) = struct.unpack("<H", take(2))
    if version != FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint format version {version}")
    (count,) = struct.unpack("<I", take(4))
    entries = []
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: entry name at offset {off - nlen} is not UTF-8") from None
        kind, rank = struct.unpack("<BB", take(2))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        size = math.prod(dims)
        if kind == KIND_FLOAT:
            arr = np.frombuffer(take(size * 4), dtype="<f4").reshape(dims).astype(np.float32)
        elif kind == KIND_MASK:
            packed = np.frombuffer(take((size + 7) // 8), dtype=np.uint8)
            arr = np.unpackbits(packed, count=size, bitorder="little").reshape(dims)
        else:
            raise ConfigError(f"{path}: unknown entry kind {kind}")
        entries.append((name, kind, arr))
    if off != len(data):
        raise ConfigError(f"{path}: {len(data) - off} trailing bytes after the last entry")
    return entries


# ---------------------------------------------------------------------------
# model level
# ---------------------------------------------------------------------------

def _resolve(path) -> tuple[Path, Path]:
    p = Path(path)
    if p.is_dir():
        return p / CKPT_NAME, p / META_NAME
    return p, p.with_name(META_NAME)


def save_model(run_dir, model: NoisePredictor, sched: NoiseSchedule, seed: int, extra: dict | None = None):
    """Write model.ckpt and meta.json into the run directory."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for layer in model.layers:
        entries.append((f"{layer.name}.weight", KIND_FLOAT, layer.weight.data))
        entries.append((f"{layer.name}.bias", KIND_FLOAT, layer.bias.data))
        entries.append((f"{layer.name}.mask", KIND_MASK, layer.mask.bits))
    write_entries(run_dir / CKPT_NAME, entries)
    meta = {
        "format_version": FORMAT_VERSION,
        "architecture": {
            "data_dim": model.data_dim,
            "temb_dim": model.temb_dim,
            "hidden": list(model.hidden),
        },
        "layers": [
            {"name": layer.name, "pattern": str(layer.pattern) if layer.pattern else None}
            for layer in model.layers
        ],
        "schedule": {
            "T": sched.T,
            "beta_start": float(sched.beta[0]),
            "beta_end": float(sched.beta[-1]),
        },
        "seed": int(seed),
    }
    if extra:
        meta.update(extra)
    (run_dir / META_NAME).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return run_dir / CKPT_NAME


def load_model(path) -> tuple[NoisePredictor, NoiseSchedule, dict]:
    """Load a checkpoint directory (or model.ckpt path) back into a model."""
    ckpt_path, meta_path = _resolve(path)
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    if not meta_path.exists():
        raise ConfigError(f"checkpoint sidecar not found: {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{meta_path} is not valid JSON: {e}") from None
    _check_meta(meta, meta_path)
    entries = {name: (kind, arr) for name, kind, arr in read_entries(ckpt_path)}
    layers = []
    for rec in meta["layers"]:
        name = rec["name"]
        try:
            _, w = entries[f"{name}.weight"]
            _, b = entries[f"{name}.bias"]
            _, m = entries[f"{name}.mask"]
        except KeyError as e:
            raise ArchitectureError(f"checkpoint missing entry for layer {name}: {e}") from None
        pat = rec.get("pattern")
        layers.append(
            MaskedLinear(
                name=name,
                weight=Tensor(w),
                bias=Tensor(b),
                mask=SparseMask(m),
                pattern=NMPattern.parse(pat) if pat else None,
            )
        )
    model = NoisePredictor(layers=layers, temb_dim=meta["architecture"]["temb_dim"])
    s = meta["schedule"]
    sched = make_schedule(s["T"], float(s["beta_start"]), float(s["beta_end"]))
    return model, sched, meta


def _check_meta(meta, path) -> None:
    """Reject a sidecar that parses as JSON but lacks the fields load_model reads."""
    def fail(what: str):
        raise ConfigError(f"{path}: {what}")

    if not isinstance(meta, dict):
        fail(f"must hold a JSON object, got {type(meta).__name__}")
    if meta.get("format_version") != FORMAT_VERSION:
        fail(f"unsupported format version {meta.get('format_version')!r}")
    layers = meta.get("layers")
    if not isinstance(layers, list) or not layers:
        fail("'layers' must be a non-empty list")
    for rec in layers:
        if not (isinstance(rec, dict) and isinstance(rec.get("name"), str)
                and isinstance(rec.get("pattern"), (str, type(None)))):
            fail(f"a layer needs a string 'name' and a string or null 'pattern', got {rec!r}")
    arch = meta.get("architecture")
    if not isinstance(arch, dict) or type(arch.get("temb_dim")) is not int:
        fail("'architecture.temb_dim' must be an integer")
    sched = meta.get("schedule")
    if not (isinstance(sched, dict) and type(sched.get("T")) is int
            and all(type(sched.get(k)) in (int, float) for k in ("beta_start", "beta_end"))):
        fail("'schedule' needs an integer 'T' and numeric 'beta_start' and 'beta_end'")


def model_checksum(model: NoisePredictor) -> str:
    """Stable digest over all weights, biases, and masks."""
    h = hashlib.sha256()
    for layer in model.layers:
        h.update(layer.weight.data.tobytes())
        h.update(layer.bias.data.tobytes())
        h.update(layer.mask.bits.tobytes())
    return h.hexdigest()


def file_checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
