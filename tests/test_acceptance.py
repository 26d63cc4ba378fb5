"""Acceptance gate: eleven headline checks, one test and one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist.
Every check also asserts its own runtime budget.
"""
import itertools
import time

import numpy as np
import pytest

from conftest import assert_close_rel, fd_grad, file_checksum
from sparsedm.checkpoint import CKPT_NAME, META_NAME, load_model, save_model
from sparsedm.cli import main
from sparsedm.diffusion import (
    NoisePredictor,
    ddpm_sample,
    diffusion_loss,
    make_schedule,
    toy_batch,
)
from sparsedm.evalbench import DEFAULT_SWEEP_PATTERNS, SWEEP_HEADER, energy_distance, layer_macs, macs_count
from sparsedm.rng import stream
from sparsedm.sparsity import (
    MaskedLinear,
    NMPattern,
    compress_2_4,
    is_transposable,
    make_transposable,
    masked_linear_forward,
    project_mask,
    spmm,
)
from sparsedm.tensor import Tensor, backward, mse_grad, silu
from sparsedm.trainer import TrainConfig, prune_one_shot, ste_update, transfer_train


def _timer():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


def _report(k, budget, elapsed, text):
    assert elapsed < budget, f"A{k} blew its {budget:.0f}s budget: {elapsed:.1f}s"
    print(f"\nA{k:02d} pass ({elapsed:.2f}s): {text}")


def _divisible_model(seed=0):
    # every input width a multiple of 4, so 2:4 pruning touches every layer
    # (the stock toy model keeps its 66-wide first layer dense)
    rng = stream(seed, "init")
    dims = [64, 64, 64, 2]
    layers = [MaskedLinear.dense(f"fc{i + 1}", dims[i], dims[i + 1], rng) for i in range(3)]
    return NoisePredictor(layers=layers, temb_dim=62)


def test_a01_all_24_model_halves_macs():
    t = _timer()
    model = _divisible_model()
    prune_one_shot(model, NMPattern(2, 4))
    macs = macs_count(model, (1,))
    assert all(layer.pattern == NMPattern(2, 4) for layer in model.layers)
    assert macs.dense_total == 2 * macs.sparse_total
    assert macs.reduction == 0.5
    _report(1, 1.0, t(),
            f"all-2:4 model counts {macs.sparse_total} MACs, exactly half of {macs.dense_total}")


def test_a02_projection_matches_exhaustive_maximum(rng):
    t = _timer()
    checked = 0
    for m in (4, 8):
        groups = rng.standard_normal((10_000, m)).astype(np.float32)
        for n, idx in zip(range(1, m), np.array_split(np.arange(10_000), m - 1)):
            block = groups[idx]
            mask = project_mask(Tensor(block), NMPattern(n, m))
            absb = np.abs(block.astype(np.float64))
            kept = (absb * mask).sum(axis=1)
            best = np.max(
                [absb[:, list(c)].sum(axis=1) for c in itertools.combinations(range(m), n)],
                axis=0,
            )
            assert np.all(np.abs(kept - best) <= 1e-9)
            checked += len(block)
    assert checked == 20_000
    _report(2, 10.0, t(),
            "10,000 random groups per m in {4, 8}: projected |w| sum equals the "
            "exhaustive maximum in 100% of cases")


def test_a03_compressed_path_matches_dense(rng, tmp_path):
    t = _timer()
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(1, 513))
        cols = 4 * int(rng.integers(1, 129))
        w = rng.standard_normal((rows, cols)).astype(np.float32)
        mask = project_mask(Tensor(w), NMPattern(2, 4))
        w_eff = w * mask
        comp = compress_2_4(w_eff, mask)
        x = rng.standard_normal((8, cols)).astype(np.float32)
        got = spmm(comp, x)
        ref = x.astype(np.float64) @ w_eff.astype(np.float64).T
        worst = max(worst, float(np.abs(got - ref).max() / np.abs(ref).max()))
    assert worst <= 1e-5

    dense = tmp_path / "dense"
    pruned = tmp_path / "pruned"
    assert main(["train-dense", "--out", str(dense), "--steps", "40", "--T", "8",
                 "--batch-size", "32", "--hidden", "64,32", "--seed", "0"]) == 0
    assert main(["prune", "--out", str(pruned), "--ckpt", str(dense),
                 "--pattern", "2:4"]) == 0
    pts = {}
    for label, extra in (("plain", []), ("comp", ["--compressed"])):
        out = tmp_path / label
        assert main(["sample", "--out", str(out), "--ckpt", str(pruned),
                     "--n", "128", "--seed", "0"] + extra) == 0
        lines = (out / "samples.csv").read_text().splitlines()[1:]
        pts[label] = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    gap = float(np.abs(pts["plain"] - pts["comp"]).max())
    assert gap <= 1e-4
    _report(3, 30.0, t(),
            f"50 spmm matrices: worst relative error {worst:.2e} <= 1e-5; compressed "
            f"sampling per-coordinate gap {gap:.2e} <= 1e-4")


def test_a04_ste_gradients_match_fd_at_effective_weights(rng):
    t = _timer()
    pat = NMPattern(2, 4)
    init = stream(11, "init")
    dims = [(8, 8), (8, 8), (8, 4)]
    layers = [MaskedLinear.dense(f"fc{i + 1}", d_in, d_out, init)
              for i, (d_in, d_out) in enumerate(dims)]
    for layer in layers:
        layer.mask = project_mask(layer.weight, pat)
        layer.pattern = pat
    x = rng.standard_normal((5, 8)).astype(np.float32)
    target = rng.standard_normal((5, 4)).astype(np.float32)

    cache = []
    h = x
    for i, layer in enumerate(layers):
        h = masked_linear_forward(h, layer, cache)
        if i < len(layers) - 1:
            h = silu(h, cache)
    grads = backward(cache, mse_grad(h, target, 1.0))

    # independent float64 forward as a function of the effective weights
    x64 = x.astype(np.float64)
    t64 = target.astype(np.float64)
    biases = [l.bias.data.astype(np.float64) for l in layers]
    effs = [l.effective_weight().astype(np.float64) for l in layers]

    def loss64(w1, w2, w3):
        h = x64 @ w1.T + biases[0]
        h = h / (1.0 + np.exp(-h))
        h = h @ w2.T + biases[1]
        h = h / (1.0 + np.exp(-h))
        h = h @ w3.T + biases[2]
        return float(np.mean((h - t64) ** 2))

    worst_pruned = 0.0
    for li, layer in enumerate(layers):
        def f(we, li=li):
            args = list(effs)
            args[li] = we
            return loss64(*args)

        fd = fd_grad(f, effs[li])
        g = grads[li][0].astype(np.float32)
        assert_close_rel(g, fd, rel=1e-3, abs_tol=1e-5)
        worst_pruned = max(worst_pruned, float(np.abs(g[layer.mask == 0]).max()))
    assert worst_pruned > 1e-4
    _report(4, 30.0, t(),
            "3-layer masked MLP: STE weight gradients match finite differences at the "
            f"effective weights (rel 1e-3); pruned positions carry gradient (max {worst_pruned:.2e})")


def test_a05_regularized_update_decay_law(rng):
    t = _timer()
    lr, lam = 0.1, 0.01
    w = Tensor(rng.standard_normal((16, 16)).astype(np.float32) * 0.5)
    mask = project_mask(w, NMPattern(2, 4))
    zero = np.zeros((16, 16), dtype=np.float32)
    kept = mask == 1
    cur = w
    for _ in range(100):
        nxt = ste_update(cur, zero, mask, lr, lam)
        assert np.array_equal(nxt.data[kept], cur.data[kept])
        expect = cur.data[~kept].astype(np.float64) * (1.0 - lr * lam)
        assert float(np.abs(nxt.data[~kept] - expect).max()) <= 1e-6
        cur = nxt
    drift = float(np.abs(
        cur.data[~kept] - w.data[~kept].astype(np.float64) * (1.0 - lr * lam) ** 100
    ).max())
    _report(5, 1.0, t(),
            "zero-gradient updates leave kept weights untouched and shrink pruned ones "
            f"by (1 - lr*lambda_w) each of 100 steps (cumulative drift {drift:.1e})")


def test_a06_per_layer_parameter_halving():
    t = _timer()
    model = _divisible_model(1)
    prune_one_shot(model, NMPattern(2, 4))
    for layer in model.layers:
        dense = layer.weight.data.size
        assert int(layer.mask.sum()) * 2 == dense
        macs_dense, effective = layer_macs(layer)
        assert effective * 2 == macs_dense
    _report(6, 1.0, t(),
            "2:4 pruning leaves exactly half the nonzero parameters in every layer")


@pytest.mark.slow
def test_a07_transfer_quality_on_gauss8():
    t = _timer()
    ds = "gauss8"
    sched = make_schedule(100, 1e-4, 0.02)
    pat = NMPattern(2, 4)
    n_eval = 2000
    teacher_eds, student_eds, untrained_eds = [], [], []
    for seed in (0, 1, 2):
        teacher = NoisePredictor.create(stream(seed, "init"))
        teacher, _ = transfer_train(teacher, None, ds, sched, TrainConfig(steps=2000, seed=seed))
        ref = toy_batch(ds, n_eval, stream(seed, "eval"))

        def ed(model, seed=seed):
            pts = ddpm_sample(model, n_eval, sched, stream(seed, "sample"))
            return energy_distance(pts, ref)

        untrained = teacher.copy()
        prune_one_shot(untrained, pat)

        student = teacher.copy()
        prune_one_shot(student, pat)
        cfg = TrainConfig(steps=4000, lr=0.05, lambda_w=1e-4, lambda1=0.5,
                          lambda2=0.5, seed=seed, teacher_bank=2048, schedule=(pat,))
        student, _ = transfer_train(student, teacher, ds, sched, cfg)

        te, se, ue = ed(teacher), ed(student), ed(untrained)
        teacher_eds.append(te)
        student_eds.append(se)
        untrained_eds.append(ue)
        assert se <= ue, f"seed {seed}: student {se:.4f} vs untrained mask {ue:.4f}"
    mean_t = float(np.mean(teacher_eds))
    mean_s = float(np.mean(student_eds))
    assert mean_s <= 1.5 * mean_t, f"student mean {mean_s:.4f} > 1.5x teacher mean {mean_t:.4f}"
    _report(7, 600.0, t(),
            f"3-seed transfer students: mean energy distance {mean_s:.4f} <= 1.5x teacher "
            f"{mean_t:.4f}; every seed beats its untrained-mask student "
            f"({', '.join(f'{u:.3f}' for u in untrained_eds)})")


@pytest.mark.slow
def test_a08_default_sweep_emits_ten_patterns(tmp_path):
    t = _timer()
    teacher = tmp_path / "teacher"
    out = tmp_path / "sweep"
    assert main(["train-dense", "--out", str(teacher)]) == 0
    assert main(["sweep", "--out", str(out), "--ckpt", str(teacher)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == [str(p) for p in DEFAULT_SWEEP_PATTERNS]
    assert len(rows) == 10
    macs = [int(r[2]) for r in rows]
    assert all(a > b for a, b in zip(macs, macs[1:]))
    _report(8, 900.0, t(),
            "default sweep writes exactly the ten keep ratios with strictly "
            f"decreasing MACs ({macs[0]} down to {macs[-1]})")


_ROWS_2_OF_4 = [r for r in itertools.product((0, 1), repeat=4) if sum(r) == 2]
_SUPPORTS = np.array(
    [s for s in itertools.product(_ROWS_2_OF_4, repeat=4)
     if all(sum(col) == 2 for col in zip(*s))],
    dtype=np.float64,
)


def test_a09_transposable_masks_match_support_oracle(rng):
    t = _timer()
    assert _SUPPORTS.shape == (90, 4, 4)
    pat = NMPattern(2, 4)
    for _ in range(100):
        rows = 4 * int(rng.integers(1, 9))
        cols = 4 * int(rng.integers(1, 9))
        w = rng.standard_normal((rows, cols)).astype(np.float32)
        mask = make_transposable(Tensor(w))
        assert is_transposable(mask, pat)
        absw = np.abs(w.astype(np.float64))
        kept = absw * mask
        for bi in range(rows // 4):
            for bj in range(cols // 4):
                blk = absw[4 * bi:4 * bi + 4, 4 * bj:4 * bj + 4]
                got = kept[4 * bi:4 * bi + 4, 4 * bj:4 * bj + 4].sum()
                best = float(np.einsum("sij,ij->s", _SUPPORTS, blk).max())
                assert abs(got - best) <= 1e-6
    _report(9, 10.0, t(),
            "100 transposable masks all row- and column-valid; every 4x4 block "
            "attains the exhaustive 90-support magnitude maximum")


def test_a10_reruns_and_roundtrips_byte_identical(tmp_path):
    t = _timer()

    def pipeline(root):
        d, p, s, e = root / "d", root / "p", root / "s", root / "e"
        assert main(["train-dense", "--out", str(d), "--steps", "30", "--T", "8",
                     "--batch-size", "32", "--hidden", "32", "--seed", "4"]) == 0
        assert main(["prune", "--out", str(p), "--ckpt", str(d)]) == 0
        assert main(["sample", "--out", str(s), "--ckpt", str(p), "--n", "20"]) == 0
        assert main(["eval", "--out", str(e), "--ckpt", str(p), "--n", "32"]) == 0
        return root

    one = pipeline(tmp_path / "one")
    two = pipeline(tmp_path / "two")
    artifacts = ("d/model.ckpt", "d/meta.json", "d/trace.jsonl", "d/config.json",
                 "p/model.ckpt", "p/meta.json", "s/samples.csv", "e/report.json")
    for rel in artifacts:
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel

    model, sched, meta = load_model(one / "p")
    rt = tmp_path / "rt"
    save_model(rt, model, sched, meta["seed"], extra={"label": meta["label"]})
    assert file_checksum(rt / CKPT_NAME) == file_checksum(one / "p" / CKPT_NAME)
    assert (rt / META_NAME).read_bytes() == (one / "p" / META_NAME).read_bytes()
    _report(10, 60.0, t(),
            f"{len(artifacts)} artifacts byte-identical across reruns; "
            "save(load(save)) reproduces the checkpoint byte-for-byte")


def test_a11_vanilla_ste_baseline_bit_for_bit():
    t = _timer()
    sched = make_schedule(10, 1e-4, 0.02)
    pat = NMPattern(2, 4)
    config = TrainConfig(steps=100, lambda1=0.0, lambda2=1.0, lambda_w=0.0,
                         seed=9, lr=0.1, lr_schedule="cosine", schedule=(pat,))
    ds = "gauss8"
    teacher = NoisePredictor.create(stream(9, "init"), hidden=(32, 32))
    student = teacher.copy()
    prune_one_shot(student, pat)
    got, _ = transfer_train(student, teacher, ds, sched, config)

    ref = teacher.copy()
    prune_one_shot(ref, pat)
    data_rng = stream(9, "data")
    noise_rng = stream(9, "noise")
    for step in range(100):
        for layer in ref.layers:
            if layer.in_features % 4 == 0:
                layer.mask = project_mask(layer.weight, pat)
        lr = config.lr_at(step)
        batch = toy_batch(ds, config.batch_size, data_rng)
        cache = []
        _loss, pred, eps = diffusion_loss(ref, batch, sched, noise_rng, cache)
        grads = backward(cache, mse_grad(pred, eps, 1.0))
        for layer, (gw, gb) in zip(ref.layers, grads):
            w64 = layer.weight.data.astype(np.float64)
            b64 = layer.bias.data.astype(np.float64)
            # the gradient rounds to float32 before the update, as in training
            layer.weight = Tensor(w64 - lr * gw.astype(np.float32).astype(np.float64))
            layer.bias = Tensor(b64 - lr * gb.astype(np.float32).astype(np.float64))

    for a, b in zip(got.layers, ref.layers):
        assert a.weight.data.tobytes() == b.weight.data.tobytes()
        assert a.bias.data.tobytes() == b.bias.data.tobytes()
        assert np.array_equal(a.mask, b.mask)
    _report(11, 30.0, t(),
            "transfer_train with lambda1=0, lambda_w=0, per-step mask refresh equals "
            "the hand-coded STE loop bit-for-bit over 100 steps")
