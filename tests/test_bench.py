import json

import numpy as np
import pytest

from tensorpress.bench import (
    build_csr,
    csr_matvec,
    dense_matvec,
    factored_matvec,
    flops_dense,
    flops_factored,
    flops_masked,
    results_to_json,
    run_bench,
)
from tensorpress.errors import ConfigError, ShapeError
from tensorpress.factorize import FactorPair
from tensorpress.tensors import DenseTensor


def test_identity_matvec():
    x = np.arange(5, dtype=np.float32)
    out = dense_matvec(DenseTensor(np.eye(5)), x)
    assert np.array_equal(out, x)


def test_rank1_hand_arithmetic():
    pair = FactorPair(
        w1=DenseTensor(np.array([[1.0], [1.0]])),
        w2=DenseTensor(np.array([[1.0, 0.0]])),
        final_loss=0.0,
    )
    out = factored_matvec(pair, np.array([5.0, 7.0], dtype=np.float32))
    assert out.tolist() == [5.0, 5.0]


def test_factored_agrees_with_dense_oracle():
    rng = np.random.default_rng(0)
    pair = FactorPair(
        w1=DenseTensor(rng.standard_normal((128, 8))),
        w2=DenseTensor(rng.standard_normal((8, 96))),
        final_loss=0.0,
    )
    x = rng.standard_normal(96).astype(np.float32)
    wc = DenseTensor(pair.w1.data.astype(np.float64) @ pair.w2.data.astype(np.float64))
    got = factored_matvec(pair, x)
    want = dense_matvec(wc, x)
    assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)


def test_masked_agrees_with_dense_oracle():
    rng = np.random.default_rng(1)
    w = DenseTensor(rng.standard_normal((40, 30)))
    mask = (rng.random((40, 30)) < 0.5).astype(np.uint8)
    x = rng.standard_normal(30).astype(np.float32)
    got = csr_matvec(build_csr(w, mask), x)
    want = dense_matvec(DenseTensor(w.data * mask), x)
    assert np.linalg.norm(got - want) <= 1e-4 * max(np.linalg.norm(want), 1.0)


def test_shape_errors():
    w = DenseTensor(np.ones((3, 4)))
    pair = FactorPair(w1=DenseTensor(np.ones((3, 2))), w2=DenseTensor(np.ones((2, 4))),
                      final_loss=0.0)
    csr = build_csr(w, np.ones((3, 4)))
    with pytest.raises(ShapeError):
        build_csr(w, np.ones((4, 3)))
    for x in (np.ones(3, dtype=np.float32), np.ones((4, 1), dtype=np.float32)):
        with pytest.raises(ShapeError):
            dense_matvec(w, x)
        with pytest.raises(ShapeError):
            factored_matvec(pair, x)
        with pytest.raises(ShapeError):
            csr_matvec(csr, x)


@pytest.mark.parametrize("m, n, r", [(512, 512, 41), (128, 576, 8), (128, 1152, None)])
def test_forwards_are_the_bits_of_matmul(m, n, r):
    # .dot and @ reach the same sgemv, so the forwards' outputs are those of @ to the bit
    rng = np.random.default_rng(m * n)
    w = DenseTensor(rng.standard_normal((m, n)))
    x = rng.standard_normal(n).astype(np.float32)
    assert np.array_equal(dense_matvec(w, x), w.data @ x)
    if r is not None:
        pair = FactorPair(w1=DenseTensor(rng.standard_normal((m, r))),
                          w2=DenseTensor(rng.standard_normal((r, n))), final_loss=0.0)
        assert np.array_equal(factored_matvec(pair, x), pair.w1.data @ (pair.w2.data @ x))


def test_flop_models():
    assert flops_dense(1024, 1024) == 2 * 1024 * 1024
    assert flops_factored(1024, 1024, 64) == 2 * 64 * 2048
    assert flops_masked(100) == 200
    # factored advantage iff r < mn/(m+n)
    m = n = 1024
    assert flops_factored(m, n, 64) < flops_dense(m, n)
    assert flops_factored(m, n, 512) == flops_dense(m, n)


def test_flop_ratio_prediction():
    assert flops_dense(1024, 1024) / flops_factored(1024, 1024, 64) == 8.0


def test_run_bench_validation():
    with pytest.raises(ConfigError):
        run_bench([(8, 8, 2)], reps=5, warmup=5)
    with pytest.raises(ConfigError):
        run_bench([(8, 8, 2)], variants=("gpu",))


def test_run_bench_results_shape():
    results = run_bench([(64, 64, 8)], reps=30, warmup=5, seed=3)
    variants = {r.variant for r in results}
    assert variants == {"dense", "masked", "factored"}
    for r in results:
        assert r.median_ns > 0
        assert r.p10_ns <= r.median_ns <= r.p90_ns
        assert r.speedup_vs_dense > 0
    dense = next(r for r in results if r.variant == "dense")
    assert dense.speedup_vs_dense == pytest.approx(1.0)
    parsed = json.loads(results_to_json(results))
    assert len(parsed) == 3


def test_full_rank_no_flop_advantage():
    m = n = r = 64
    results = run_bench([(m, n, r)], variants=("dense", "factored"), reps=30, warmup=5)
    factored = next(x for x in results if x.variant == "factored")
    assert factored.flops_model >= flops_dense(m, n)


def test_csr_build_separate_from_timing():
    rng = np.random.default_rng(2)
    w = DenseTensor(rng.standard_normal((16, 16)))
    mask = (rng.random((16, 16)) < 0.3).astype(np.uint8)
    csr = build_csr(w, mask)
    assert csr.nnz == int(((w.data * mask) != 0).sum())
    x = rng.standard_normal(16).astype(np.float32)
    assert np.allclose(csr_matvec(csr, x), (w.data * mask) @ x, atol=1e-4)
