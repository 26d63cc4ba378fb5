import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import model_checksum
from sparsedm import evalbench, trainer
from sparsedm.diffusion import NoisePredictor, ddpm_sample, make_schedule, toy_batch
from sparsedm.errors import ConfigError
from sparsedm.evalbench import (
    DEFAULT_SWEEP_PATTERNS,
    PAIRWISE_BLOCK,
    SWEEP_HEADER,
    _mean_pairwise,
    energy_distance,
    layer_macs,
    macs_count,
    sweep_ratios,
    write_sweep_csv,
)
from sparsedm.rng import stream
from sparsedm.sparsity import MaskedLinear, NMPattern, project_mask
from sparsedm.trainer import TrainConfig, prune_one_shot, transfer_train


def _dense_layer(name, n_in, n_out):
    return MaskedLinear.dense(name, n_in, n_out, stream(0, "init"))


def _dense_layer_rng(name, n_in, n_out, r):
    return MaskedLinear.dense(name, n_in, n_out, r)


def test_macs_dense_model_zero_reduction():
    model = NoisePredictor.create(stream(0, "init"), hidden=(32,))
    rep = macs_count(model)
    assert rep.sparse_total == rep.dense_total
    assert rep.reduction == 0.0


def test_macs_all_24_model_half():
    # all layer widths divisible by 4, every layer masked
    layers = [_dense_layer("fc1", 64, 32), _dense_layer("fc2", 32, 32), _dense_layer("fc3", 32, 4)]
    model = NoisePredictor(layers=layers, temb_dim=60)
    prune_one_shot(model, NMPattern(2, 4))
    rep = macs_count(model)
    assert rep.dense_total == 64 * 32 + 32 * 32 + 32 * 4
    assert rep.sparse_total * 2 == rep.dense_total
    assert rep.reduction == 0.5


def test_macs_mixed_model_quarter():
    layers = [_dense_layer("a", 32, 32), _dense_layer("b", 32, 32)]
    model = NoisePredictor(layers=layers, temb_dim=30)
    model.layers[1].mask = project_mask(model.layers[1].weight, NMPattern(2, 4))
    model.layers[1].pattern = NMPattern(2, 4)
    rep = macs_count(model)
    assert rep.reduction == 0.25


def test_macs_sum_rule_against_per_layer():
    model = NoisePredictor.create(stream(1, "init"), hidden=(64, 32))
    prune_one_shot(model, NMPattern(1, 4))
    rep = macs_count(model, (8,))
    per_layer = [layer_macs(layer, 8) for layer in model.layers]
    assert rep.sparse_total == sum(eff for _, eff in per_layer)
    assert rep.dense_total == sum(dense for dense, _ in per_layer)
    for layer, (dense, eff) in zip(model.layers, per_layer):
        if layer.pattern == NMPattern(1, 4):
            assert eff * 4 == dense


def test_energy_distance_identical_zero(rng):
    a = rng.standard_normal((100, 2))
    assert energy_distance(a, a.copy()) == 0.0


def test_energy_distance_point_masses():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert energy_distance(a, b) == pytest.approx(10.0)  # 2 * distance of 5


def test_energy_distance_separation(rng):
    a = rng.standard_normal((10_000, 2))
    b = rng.standard_normal((10_000, 2))
    base = energy_distance(a, b)
    shifted = rng.standard_normal((10_000, 2)) + np.array([3.0, 0.0])
    far = energy_distance(a, shifted)
    assert far >= 10 * max(base, 1e-6)


def test_energy_distance_rejects_empty():
    with pytest.raises(ValueError):
        energy_distance(np.zeros((0, 2)), np.zeros((5, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_energy_distance_symmetric_permutation_invariant(seed):
    r = np.random.default_rng(seed)
    a = r.standard_normal((40, 2))
    b = r.standard_normal((30, 2))
    d = energy_distance(a, b)
    assert d >= 0
    assert energy_distance(b, a) == pytest.approx(d, rel=1e-12)
    perm = r.permutation(len(a))
    assert energy_distance(a[perm], b) == pytest.approx(d, rel=1e-9)


def test_pairwise_distance_blocks_stay_bounded(monkeypatch):
    real, sizes = evalbench._pair_distances, []

    def recording(a, b, *buffers):
        d = real(a, b, *buffers)
        sizes.append(d.size)
        return d

    monkeypatch.setattr(evalbench, "_pair_distances", recording)
    r = np.random.default_rng(0)
    _mean_pairwise(r.standard_normal((2000, 2)), r.standard_normal((2000, 2)))
    assert sum(sizes) == 2000 * 2000 and max(sizes) <= 1 << 18


def _blockwise_cdist_mean(a, b):
    """scipy's cdist over the same row blocks, their sums added in the same order."""
    total = 0.0
    rows = max(1, PAIRWISE_BLOCK // len(b))
    for s in range(0, len(a), rows):
        total += cdist(a[s : s + rows], b).sum()
    return total / (len(a) * len(b))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 3000), st.integers(1, 4), st.floats(-3.0, 3.0),
       st.integers(0, 3000), st.integers(0, 2 ** 31 - 1))
def test_mean_pairwise_matches_one_cdist(n, m, dim, log_scale, dups, seed):
    """The numpy kernel is cdist bit for bit: same distances, same block sums, same order."""
    r = np.random.default_rng(seed)
    a, b = (10.0 ** log_scale * r.standard_normal((k, dim)) for k in (n, m))
    # duplicate points, across the two sets and within one, give exact zero distances
    k = min(dups, n, m)
    b[:k] = a[r.integers(0, n, k)]
    a[: k // 2] = a[-1]
    # each distance, not only the sum, which can absorb a last-bit difference
    first = a[: max(1, PAIRWISE_BLOCK // m)]
    d, diff = np.empty((2, len(first), m))
    assert np.array_equal(evalbench._pair_distances(first, b, d, diff), cdist(first, b))
    assert _mean_pairwise(a, b) == _blockwise_cdist_mean(a, b)


def test_default_sweep_patterns_list():
    assert [str(p) for p in DEFAULT_SWEEP_PATTERNS] == [
        "32:32", "31:32", "15:16", "7:8", "3:4", "2:4", "1:4", "1:8", "1:16", "1:32",
    ]
    s = [p.sparsity for p in DEFAULT_SWEEP_PATTERNS]
    assert s == sorted(s)


def test_sweep_structure_small():
    teacher = NoisePredictor.create(stream(0, "init"), hidden=(32,))
    sched = make_schedule(5, 1e-4, 0.02)
    config = TrainConfig(steps=4, batch_size=32, lambda1=0.5, lambda2=0.5,
                         teacher_bank=64, seed=0)
    rows = sweep_ratios(teacher, [NMPattern(1, 4), NMPattern(2, 4)], "gauss8",
                        sched, config, n_eval=64)
    assert [r["pattern"] for r in rows] == ["2:4", "1:4"]  # sorted by sparsity
    for r in rows:
        assert set(r) == {"pattern", "sparsity", "macs_sparse", "macs_dense", "energy_distance"}
        assert r["macs_dense"] > r["macs_sparse"] > 0
        assert r["energy_distance"] >= 0
    assert rows[0]["macs_sparse"] > rows[1]["macs_sparse"]


def test_sweep_leaves_its_teacher_unchanged(monkeypatch):
    """Each entry trains a copy of the teacher in place: in this process at 4 steps, with the forked
    distillation worker at 12 steps on two CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    workers, real = [], trainer._forked
    monkeypatch.setattr(trainer, "_forked", lambda *args: workers.append(1) or real(*args))
    teacher = NoisePredictor.create(stream(4, "init"), hidden=(32,))
    before = model_checksum(teacher)
    for steps, forked in ((4, 0), (12, 1)):
        config = TrainConfig(steps=steps, batch_size=16, lambda1=0.5, lambda2=0.5, teacher_bank=32, seed=4)
        sweep_ratios(teacher, [NMPattern(2, 4)], "gauss8", make_schedule(5, 1e-4, 0.02), config, n_eval=32)
        assert model_checksum(teacher) == before
        assert len(workers) == forked


def test_sweep_deterministic_and_order_independent():
    teacher = NoisePredictor.create(stream(2, "init"), hidden=(32,))
    sched = make_schedule(5, 1e-4, 0.02)
    p24, p18, p48 = NMPattern.parse("2:4"), NMPattern.parse("1:8"), NMPattern.parse("4:8")
    for lambda1 in (0.0, 0.5):  # 0.5 distills from the shared teacher bank
        config = TrainConfig(steps=3, batch_size=16, lambda1=lambda1, lambda2=1.0 - lambda1,
                             teacher_bank=32, seed=2)
        a = sweep_ratios(teacher, [p24, p18], "gauss8", sched, config, n_eval=32)
        b = sweep_ratios(teacher, [p18, p24], "gauss8", sched, config, n_eval=32)
        assert a == b
        # 2:4 and 4:8 share sparsity 0.5; the group size breaks the tie in either request order
        c = sweep_ratios(teacher, [p24, p48], "gauss8", sched, config, n_eval=32)
        d = sweep_ratios(teacher, [p48, p24], "gauss8", sched, config, n_eval=32)
        assert [r["pattern"] for r in c] == ["2:4", "4:8"]
        assert c == d


def _small_sweep(lambda1):
    teacher = NoisePredictor.create(stream(3, "init"), hidden=(32,))
    config = TrainConfig(steps=2, batch_size=16, lambda1=lambda1, lambda2=1.0 - lambda1,
                         teacher_bank=32, seed=3)
    return teacher, make_schedule(5, 1e-4, 0.02), config


@pytest.mark.parametrize("lambda1,banks", [(0.5, 1), (0.0, 0)])
def test_sweep_samples_teacher_bank_once(monkeypatch, lambda1, banks):
    teacher, sched, config = _small_sweep(lambda1)
    seen = []

    def counting(model, *args, **kwargs):
        seen.append(model is teacher)
        return ddpm_sample(model, *args, **kwargs)

    monkeypatch.setattr("sparsedm.evalbench.ddpm_sample", counting)
    monkeypatch.setattr("sparsedm.trainer.ddpm_sample", counting)
    patterns = [NMPattern.parse(p) for p in ("2:4", "1:4", "1:8")]
    sweep_ratios(teacher, patterns, "gauss8", sched, config, n_eval=16)
    assert sum(seen) == banks
    assert len(seen) - sum(seen) == len(patterns)  # one eval sample per student


def test_sweep_computes_reference_self_term_once(monkeypatch):
    """Every entry scores against one reference set, so its E|B-B'| is computed once per sweep."""
    teacher, sched, config = _small_sweep(0.0)
    ref = toy_batch("gauss8", 16, stream(config.seed, "eval")).astype(np.float64)
    on_ref = []

    def counting(a, b):
        on_ref.append(a is b and np.array_equal(a, ref))
        return _mean_pairwise(a, b)

    monkeypatch.setattr("sparsedm.evalbench._mean_pairwise", counting)
    rows = sweep_ratios(teacher, [NMPattern.parse(p) for p in ("2:4", "1:4", "1:8")], "gauss8", sched, config,
                        n_eval=16)
    assert sum(on_ref) == 1 and len(rows) == 3
    # the term handed in gives the very float the call would compute
    a = ddpm_sample(teacher, 16, sched, stream(0, "sample"))
    assert energy_distance(a, ref, _mean_pairwise(ref, ref)) == energy_distance(a, ref)


def test_sweep_row_does_not_depend_on_other_patterns():
    teacher, sched, config = _small_sweep(0.5)
    p24 = NMPattern.parse("2:4")
    alone = sweep_ratios(teacher, [p24], "gauss8", sched, config, n_eval=16)
    both = sweep_ratios(teacher, [NMPattern.parse("1:8"), p24], "gauss8", sched, config, n_eval=16)
    assert alone == [r for r in both if r["pattern"] == "2:4"]


@pytest.mark.parametrize("bank", [
    np.zeros((8, 3)), np.zeros(8), np.zeros((0, 2)),
    np.array([[0.0, 1.0], [np.nan, 0.0]]), np.array([[np.inf, 1.0]]),
], ids=["three-columns", "one-d", "empty", "nan", "inf"])
def test_transfer_train_rejects_bad_bank(bank):
    teacher, sched, config = _small_sweep(0.5)
    student = prune_one_shot(teacher.copy(), NMPattern(2, 4))
    config = replace(config, schedule=(NMPattern(2, 4),))
    with pytest.raises(ConfigError, match="teacher bank"):
        transfer_train(student, teacher, "gauss8", sched, config, bank=bank)


def test_csv_headers_byte_exact(tmp_path):
    assert SWEEP_HEADER == "pattern,sparsity,macs_sparse,macs_dense,energy_distance"
    rows = [{"pattern": "2:4", "sparsity": 0.5, "macs_sparse": 100, "macs_dense": 200,
             "energy_distance": 0.125}]
    p = tmp_path / "sweep.csv"
    write_sweep_csv(rows, p)
    text = p.read_bytes().decode()
    assert text.splitlines()[0] == SWEEP_HEADER
    assert text.splitlines()[1] == "2:4,0.5,100,200,0.125"
    assert text.endswith("\n")


def test_extreme_sparsity_not_better_than_24():
    # at matching budgets 1:32 should not beat 2:4 on average; needs a model
    # whose every layer is prunable, otherwise the always-dense input layer
    # carries both variants and the gap drowns in sampling noise
    sched = make_schedule(100, 1e-4, 0.02)
    gaps = []
    for seed in range(3):
        r = stream(seed, "init")
        layers = [_dense_layer_rng("fc1", 64, 64, r), _dense_layer_rng("fc2", 64, 64, r),
                  _dense_layer_rng("fc3", 64, 2, r)]
        teacher = NoisePredictor(layers=layers, temb_dim=62)
        teacher, _ = transfer_train(teacher, None, "gauss8", sched,
                                    TrainConfig(steps=800, seed=seed))
        config = TrainConfig(steps=800, lambda1=0.0, lambda2=1.0, teacher_bank=64,
                             seed=seed, lr=0.05)
        patterns = [NMPattern.parse("2:4"), NMPattern.parse("1:32")]
        rows = sweep_ratios(teacher, patterns, "gauss8", sched, config, n_eval=1024)
        by = {r["pattern"]: r["energy_distance"] for r in rows}
        gaps.append(by["1:32"] - by["2:4"])
    assert np.mean(gaps) >= 0
