"""Span tracing for the benchmark's traced run, installed from outside the program.

``Tracer.install()`` replaces each traced function with a wrapper in every
``sparsedm`` module that binds it, because callers look the name up in their
own module at call time (``sparsedm.trainer.project_mask``,
``sparsedm.diffusion.spmm``, ``sparsedm.cli.COMMANDS``).  A span records its
name, start, end, parent span and thread; parents are tracked per thread.
Spans stay in memory until the run writes them out.  ``uninstall()`` puts
the original bindings back, so traced and untraced cycles alternate in one
process.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); an attribute "A.b" is method b of class A
SPANS = (
    ("sparsedm.tensor", "silu", "tensor.silu"),
    ("sparsedm.tensor", "backward", "tensor.backward"),
    ("sparsedm.tensor", "linear_ste", "tensor.linear_ste"),
    ("sparsedm.tensor", "mse_loss", "tensor.mse_loss"),
    ("sparsedm.sparsity", "project_mask", "sparsity.project_mask"),
    ("sparsedm.sparsity", "spmm", "sparsity.spmm"),
    ("sparsedm.sparsity", "compress_2_4", "sparsity.compress_2_4"),
    ("sparsedm.sparsity", "masked_linear_forward", "sparsity.masked_linear_forward"),
    ("sparsedm.diffusion", "NoisePredictor.forward", "diffusion.NoisePredictor.forward"),
    ("sparsedm.diffusion", "diffusion_loss", "diffusion.diffusion_loss"),
    ("sparsedm.diffusion", "q_sample", "diffusion.q_sample"),
    ("sparsedm.diffusion", "time_embedding", "diffusion.time_embedding"),
    ("sparsedm.diffusion", "toy_batch", "diffusion.toy_batch"),
    ("sparsedm.diffusion", "ddpm_sample", "diffusion.ddpm_sample"),
    ("sparsedm.diffusion", "inference_forward", "diffusion.inference_forward"),
    ("sparsedm.diffusion", "posterior_mean", "diffusion.posterior_mean"),
    ("sparsedm.trainer", "train_dense", "trainer.train_dense"),
    ("sparsedm.trainer", "transfer_train", "trainer.transfer_train"),
    ("sparsedm.trainer", "ste_update", "trainer.ste_update"),
    ("sparsedm.trainer", "prune_one_shot", "trainer.prune_one_shot"),
    ("sparsedm.evalbench", "energy_distance", "evalbench.energy_distance"),
    ("sparsedm.evalbench", "sweep_ratios", "evalbench.sweep_ratios"),
    ("sparsedm.evalbench", "_sweep_entry", "evalbench.sweep_entry"),
    ("sparsedm.checkpoint", "save_model", "checkpoint.save_model"),
    ("sparsedm.checkpoint", "load_model", "checkpoint.load_model"),
)
# the closure returned by inference_forward is traced under this name
PREDICTOR_SPAN = "diffusion.predictor_fwd"
CLI_COMMANDS = ("train-dense", "prune", "train-sparse", "sample", "eval", "sweep")


def _resolve(module: str, attr: str):
    """Return (owner, name, function) or None when the program no longer has it."""
    owner = sys.modules.get(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    return None if fn is None else (owner, parts[-1], fn)


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1, thread id)
        self.counts: defaultdict = defaultdict(int)
        self.spmm_shapes: defaultdict = defaultdict(lambda: {"calls": 0, "macs": 0, "dense_macs": 0, "bytes": 0})
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """Wrap fn in a span; ``after(args, result)`` updates counters once it returns."""
        spans, lock, tracer = self.spans, self._lock, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with lock:
                idx = len(spans)
                spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, threading.get_ident())
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _after_spmm(self, args, result):
        comp, x = args[0], args[1]
        batch = x.shape[0]
        dense = batch * comp.rows * comp.cols
        # kept float32 values + packed 2-bit indices + float32 input and output
        kept = comp.rows * comp.cols // 2
        macs = self._spmm_macs(comp, batch) if self._spmm_macs else batch * kept
        moved = 4 * kept + (kept + 3) // 4 + 4 * batch * comp.cols + 4 * batch * comp.rows
        shape = self.spmm_shapes[f"{comp.rows}x{comp.cols}x{batch}"]
        for key, val in (("calls", 1), ("macs", macs), ("dense_macs", dense), ("bytes", moved)):
            shape[key] += val
            if key != "calls":
                self.counts[f"sparsity.spmm.{key}"] += val

    def _after_project(self, args, result):
        w, pattern = args[0], args[1]
        self.counts["sparsity.project_mask.groups"] += w.data.size // pattern.m

    def _after_save(self, args, result):
        self.counts["checkpoint.save_model.bytes"] += Path(result).stat().st_size

    def _after_load(self, args, result):
        path = Path(args[0])
        self.counts["checkpoint.load_model.bytes"] += (path / self._ckpt_name if path.is_dir() else path).stat().st_size

    def _wrap_refresh(self, fn):
        """Count mask refreshes during training and how many changed the mask."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(model, *args, **kwargs):
            before = [layer.mask for layer in model.layers]
            result = fn(model, *args, **kwargs)
            for old, layer in zip(before, model.layers):
                if layer.mask is not old:
                    counts["mask_refreshes"] += 1
                    counts["mask_changes"] += int(bool((old.bits != layer.mask.bits).any()))
            return result

        return counted

    # -- patching ------------------------------------------------------------

    def _rebind(self, orig, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sparsedm" or modname.startswith("sparsedm.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, orig))

    def install(self) -> None:
        """Put wrappers in place of every traced function; ``uninstall()`` undoes it."""
        from sparsedm import checkpoint, sparsity

        # the program's own MAC count when it still has one
        self._spmm_macs = getattr(sparsity, "spmm_macs", None)
        self._ckpt_name = getattr(checkpoint, "CKPT_NAME", "model.ckpt")
        after = {
            "sparsity.spmm": self._after_spmm,
            "sparsity.project_mask": self._after_project,
            "checkpoint.save_model": self._after_save,
            "checkpoint.load_model": self._after_load,
        }
        self.missing = []
        for module, attr, name in SPANS:
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(name)
                continue
            owner, key, fn = found
            if name == "diffusion.inference_forward":
                wrapped = self.wrap(name, self._returning_traced(fn))
            else:
                wrapped = self.wrap(name, fn, after.get(name))
            if isinstance(owner, type):
                setattr(owner, key, wrapped)
                self._undo.append((owner, key, fn))
            else:
                self._rebind(fn, wrapped)
        found = _resolve("sparsedm.trainer", "_refresh_masks")
        if found is None:
            self.missing.append("trainer._refresh_masks")
        else:
            self._rebind(found[2], self._wrap_refresh(found[2]))
        commands = getattr(sys.modules.get("sparsedm.cli"), "COMMANDS", {})
        for cmd in CLI_COMMANDS:
            if cmd not in commands:
                self.missing.append(f"cli.{cmd}")
                continue
            fn = commands[cmd]
            commands[cmd] = self.wrap(f"cli.{cmd}", fn)
            self._undo.append((commands, cmd, fn))

    def _returning_traced(self, factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return self.wrap(PREDICTOR_SPAN, factory(*args, **kwargs))

        return build

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    # -- reporting -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start_ns, end_ns, parent index, thread id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
