import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedm.diffusion import NoisePredictor, ToyDataset, make_schedule
from sparsedm.errors import ConfigError, PatternError
from sparsedm.evalbench import (
    BENCH_HEADER,
    DEFAULT_BENCH_SIZES,
    DEFAULT_SWEEP_PATTERNS,
    SWEEP_HEADER,
    bench_spmm,
    energy_distance,
    macs_count,
    sweep_ratios,
    write_bench_csv,
    write_sweep_csv,
)
from sparsedm.rng import stream
from sparsedm.sparsity import MaskedLinear, NMPattern, project_mask
from sparsedm.tensor import Tensor
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
    assert rep.sparse_total == sum(l.effective for l in rep.layers)
    assert rep.dense_total == sum(l.dense for l in rep.layers)
    for l in rep.layers:
        if l.pattern == "1:4":
            assert l.effective * 4 == l.dense


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
    rows = sweep_ratios(teacher, [NMPattern(1, 4), NMPattern(2, 4)], ToyDataset("gauss8"),
                        sched, config, n_eval=64)
    assert [r["pattern"] for r in rows] == ["2:4", "1:4"]  # sorted by sparsity
    for r in rows:
        assert set(r) == {"pattern", "sparsity", "macs_sparse", "macs_dense", "energy_distance"}
        assert r["macs_dense"] > r["macs_sparse"] > 0
        assert r["energy_distance"] >= 0
    assert rows[0]["macs_sparse"] > rows[1]["macs_sparse"]


def test_sweep_deterministic_and_order_independent():
    teacher = NoisePredictor.create(stream(2, "init"), hidden=(32,))
    sched = make_schedule(5, 1e-4, 0.02)
    config = TrainConfig(steps=3, batch_size=16, lambda1=0.0, lambda2=1.0,
                         teacher_bank=32, seed=2)
    a = sweep_ratios(teacher, ["2:4", "1:8"], ToyDataset("gauss8"), sched, config, n_eval=32)
    b = sweep_ratios(teacher, ["1:8", "2:4"], ToyDataset("gauss8"), sched, config, n_eval=32)
    assert a == b


def test_sweep_thread_env_does_not_change_numbers(monkeypatch):
    teacher = NoisePredictor.create(stream(3, "init"), hidden=(32,))
    sched = make_schedule(5, 1e-4, 0.02)
    config = TrainConfig(steps=3, batch_size=16, lambda1=0.0, lambda2=1.0,
                         teacher_bank=32, seed=3)
    args = (teacher, ["2:4", "1:4", "1:8"], ToyDataset("gauss8"), sched, config)
    monkeypatch.setenv("SPARSEDM_THREADS", "1")
    serial = sweep_ratios(*args, n_eval=32)
    monkeypatch.setenv("SPARSEDM_THREADS", "3")
    parallel = sweep_ratios(*args, n_eval=32)
    assert serial == parallel


def test_sweep_rejects_bad_thread_env(monkeypatch):
    monkeypatch.setenv("SPARSEDM_THREADS", "zero")
    teacher = NoisePredictor.create(stream(0, "init"), hidden=(32,))
    with pytest.raises(ConfigError):
        sweep_ratios(teacher, ["2:4"], ToyDataset("gauss8"), make_schedule(5, 1e-4, 0.02),
                     TrainConfig(steps=1, teacher_bank=16), n_eval=16)


def test_bench_records_and_accuracy():
    records = bench_spmm([(64, 64, 8), (32, 128, 4)], reps=3, seed=0)
    assert len(records) == 2
    for r in records:
        assert r.macs_ratio == 0.5
        assert r.max_rel_err <= 1e-5
        assert r.t_dense_ns > 0 and r.t_spmm_ns > 0
        assert r.reps == 3


def test_bench_rejects_bad_sizes():
    with pytest.raises(PatternError):
        bench_spmm([(64, 66, 8)], reps=1)
    with pytest.raises(ConfigError):
        bench_spmm([], reps=1)
    with pytest.raises(ConfigError):
        bench_spmm([(64, 64, 8)], reps=0)


def test_csv_headers_byte_exact(tmp_path):
    assert SWEEP_HEADER == "pattern,sparsity,macs_sparse,macs_dense,energy_distance"
    assert BENCH_HEADER == "rows,cols,batch,reps,t_dense_ns,t_spmm_ns,macs_ratio,max_rel_err"
    rows = [{"pattern": "2:4", "sparsity": 0.5, "macs_sparse": 100, "macs_dense": 200,
             "energy_distance": 0.125}]
    p = tmp_path / "sweep.csv"
    write_sweep_csv(rows, p)
    text = p.read_bytes().decode()
    assert text.splitlines()[0] == SWEEP_HEADER
    assert text.splitlines()[1] == "2:4,0.5,100,200,0.125"
    assert text.endswith("\n")

    records = bench_spmm([DEFAULT_BENCH_SIZES[0]], reps=1, seed=0)
    b = tmp_path / "bench.csv"
    write_bench_csv(records, b)
    assert b.read_bytes().decode().splitlines()[0] == BENCH_HEADER


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
        teacher, _ = transfer_train(teacher, None, ToyDataset("gauss8"), sched,
                                    TrainConfig(steps=800, seed=seed))
        config = TrainConfig(steps=800, lambda1=0.0, lambda2=1.0, teacher_bank=64,
                             seed=seed, lr=0.05)
        rows = sweep_ratios(teacher, ["2:4", "1:32"], ToyDataset("gauss8"), sched,
                            config, n_eval=1024)
        by = {r["pattern"]: r["energy_distance"] for r in rows}
        gaps.append(by["1:32"] - by["2:4"])
    assert np.mean(gaps) >= 0
