import tracemalloc

import numpy as np
import pytest

from tensorpress.errors import ConfigError, DivergenceError, ShapeError
from tensorpress.factorize import (
    MAX_HALVINGS,
    AnnealConfig,
    FactorPair,
    _gradients,
    anneal_factorize,
)
from tensorpress.pipeline import CompressedLayer
from tensorpress.tensors import DenseTensor

from helpers import frobenius_loss


def test_loss_zero_at_exact_product():
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((4, 2)).astype(np.float32)
    w2 = rng.standard_normal((2, 3)).astype(np.float32)
    w = (w1.astype(np.float64) @ w2.astype(np.float64)).astype(np.float32)
    assert frobenius_loss(w, w1, w2) < 1e-10


def test_loss_scalar_case():
    assert frobenius_loss([[1.0]], [[0.0]], [[0.0]]) == 1.0


def test_loss_matches_entrywise_oracle():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((5, 4))
    w1 = rng.standard_normal((5, 2))
    w2 = rng.standard_normal((2, 4))
    got = frobenius_loss(w, w1, w2)
    prod = w1 @ w2
    want = sum((w[i, j] - prod[i, j]) ** 2 for i in range(5) for j in range(4))
    assert got == pytest.approx(want, rel=1e-12)


def test_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        frobenius_loss(np.ones((2, 2)), np.ones((2, 1)), np.ones((2, 2)))


def test_gradient_zero_at_minimum():
    rng = np.random.default_rng(2)
    w1 = rng.standard_normal((4, 2))
    w2 = rng.standard_normal((2, 3))
    w = w1 @ w2
    g1, g2 = _gradients(w1 @ w2 - w, w1, w2)
    assert np.abs(g1).max() < 1e-10
    assert np.abs(g2).max() < 1e-10


def test_gradient_scalar_zero_factors():
    w, w1, w2 = np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))
    g1, g2 = _gradients(w1 @ w2 - w, w1, w2)
    assert g1.tolist() == [[0.0]]
    assert g2.tolist() == [[0.0]]


def finite_diff(w, w1, w2, h=1e-4):
    g1 = np.zeros_like(w1)
    for idx in np.ndindex(w1.shape):
        p, m = w1.copy(), w1.copy()
        p[idx] += h
        m[idx] -= h
        g1[idx] = (frobenius_loss(w, p, w2) - frobenius_loss(w, m, w2)) / (2 * h)
    g2 = np.zeros_like(w2)
    for idx in np.ndindex(w2.shape):
        p, m = w2.copy(), w2.copy()
        p[idx] += h
        m[idx] -= h
        g2[idx] = (frobenius_loss(w, w1, p) - frobenius_loss(w, w1, m)) / (2 * h)
    return g1, g2


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((6, 5))
    w1 = rng.standard_normal((6, 2))
    w2 = rng.standard_normal((2, 5))
    a1, a2 = _gradients(w1 @ w2 - w, w1, w2)
    n1, n2 = finite_diff(w, w1, w2)
    assert np.abs(a1 - n1).max() / np.abs(n1).max() < 1e-4
    assert np.abs(a2 - n2).max() / np.abs(n2).max() < 1e-4


def test_exact_rank_reaches_near_zero():
    rng = np.random.default_rng(4)
    w = DenseTensor(rng.standard_normal((12, 3)) @ rng.standard_normal((3, 10)))
    pair = anneal_factorize(w, AnnealConfig(rank=3, seed=0))
    assert pair.final_loss < 1e-6 * np.linalg.norm(w.data) ** 2


@pytest.mark.parametrize("max_iters", [5, 2000])
def test_zero_matrix_fits_as_zero_factors(max_iters):
    cfg = AnnealConfig(rank=2, max_iters=max_iters)
    pair = anneal_factorize(DenseTensor(np.zeros((6, 4))), cfg)
    assert pair.w1.shape == (6, 2) and pair.w2.shape == (2, 4)
    assert not pair.w1.data.any() and not pair.w2.data.any()
    assert pair.final_loss == 0.0 and pair.loss_trace == [0.0]


def test_rank1_of_diag_matches_eckart_young():
    w = DenseTensor(np.diag([3.0, 2.0]))
    pair = anneal_factorize(w, AnnealConfig(rank=1, seed=0))
    assert pair.final_loss == pytest.approx(4.0, rel=0.05)


def _svd_pair(w, r):
    u, s, vt = np.linalg.svd(w.data.astype(np.float64), full_matrices=False)
    return DenseTensor(u[:, :r] * s[:r]), DenseTensor(vt[:r])


def test_start_at_the_floor_is_kept():
    # the f32 pair of a rank-r matrix's SVD fits it to f32 rounding: no step
    rng = np.random.default_rng(40)
    w = DenseTensor(rng.standard_normal((30, 5)) @ rng.standard_normal((5, 20)))
    start = _svd_pair(w, 5)
    pair = anneal_factorize(w, AnnealConfig(rank=5, seed=1, eta0=1e300, init_scale=1e308), start)
    assert len(pair.loss_trace) == 1
    assert pair.w1 is start[0] and pair.w2 is start[1]
    assert pair.final_loss == pair.loss_trace[0]
    assert np.sqrt(pair.loss_trace[0]) <= 2.0**-24 * np.linalg.norm(w.data.astype(np.float64))


@pytest.mark.parametrize("rank", [2, 5, 8])
def test_start_is_cut_or_zero_padded_to_rank(rank):
    rng = np.random.default_rng(41)
    w = DenseTensor(rng.standard_normal((12, 9)))
    w1, w2 = _svd_pair(w, 5)
    pair = anneal_factorize(w, AnnealConfig(rank=rank, max_iters=1), (w1, w2))
    assert pair.w1.shape == (12, rank) and pair.w2.shape == (rank, 9)
    k = min(rank, 5)
    assert not pair.w1.data[:, k:].any() and not pair.w2.data[k:].any()
    # the rank-k SVD is the optimum: no step from it improves the fit
    tail = float(np.sum(np.linalg.svd(w.data.astype(np.float64), compute_uv=False)[k:] ** 2))
    assert pair.final_loss == pytest.approx(tail, rel=1e-6)


@pytest.mark.parametrize("start", [
    (np.ones((12, 3)), np.ones((4, 9))),   # inner sizes differ
    (np.ones((11, 3)), np.ones((3, 9))),   # rows of W1 are not m
    (np.ones((12, 3)), np.ones((3, 8))),   # columns of W2 are not n
    (np.ones(12), np.ones((1, 9))),        # not a matrix
])
def test_mis_shaped_start_rejected(start):
    with pytest.raises(ShapeError, match="matrices|not conformable"):
        anneal_factorize(DenseTensor(np.ones((12, 9))), AnnealConfig(rank=3), start)


def test_random_start_stops_at_the_floor():
    # an exactly rank-6 W is fit past f32 rounding long before rel_tol stops
    # the descent; past the floor no step changes what f32 factors can hold
    rng = np.random.default_rng(11)
    w = DenseTensor(rng.standard_normal((40, 6)) @ rng.standard_normal((6, 30)))
    pair = anneal_factorize(w, AnnealConfig(rank=6, seed=7))
    floor = (2.0**-24 * np.linalg.norm(w.data.astype(np.float64))) ** 2
    assert pair.loss_trace[-1] <= floor < pair.loss_trace[-2]
    assert len(pair.loss_trace) < 2001


def test_random_matrix_reaches_svd_tail():
    rng = np.random.default_rng(5)
    w = DenseTensor(rng.standard_normal((64, 64)))
    pair = anneal_factorize(w, AnnealConfig(rank=8, seed=1))
    s = np.linalg.svd(w.data.astype(np.float64), compute_uv=False)
    tail = float(np.sum(s[8:] ** 2))
    assert pair.final_loss <= 1.05 * tail
    assert pair.final_loss >= tail * (1 - 1e-6)  # SVD is the global optimum


def test_loss_trace_monotone():
    rng = np.random.default_rng(6)
    w = DenseTensor(rng.standard_normal((20, 15)))
    pair = anneal_factorize(w, AnnealConfig(rank=4, seed=2))
    trace = pair.loss_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_final_loss_consistent_with_factors():
    rng = np.random.default_rng(7)
    w = DenseTensor(rng.standard_normal((10, 10)))
    pair = anneal_factorize(w, AnnealConfig(rank=3, seed=3))
    recomputed = frobenius_loss(w, pair.w1, pair.w2)
    assert recomputed == pytest.approx(pair.final_loss, rel=1e-6)


def _perturbed_svd_pair(w, r):
    w1, w2 = _svd_pair(w, r)
    noise = np.random.default_rng(r)
    return (DenseTensor(w1.data + 0.1 * noise.standard_normal(w1.shape)),
            DenseTensor(w2.data + 0.1 * noise.standard_normal(w2.shape)))


@pytest.mark.parametrize("rank, start, cfg", [
    pytest.param(5, lambda w: _svd_pair(w, 5), {}, id="warm-no-step"),
    pytest.param(8, lambda w: _svd_pair(w, 5), {"max_iters": 1}, id="warm-padded"),
    pytest.param(3, lambda w: _svd_pair(w, 5), {"max_iters": 1}, id="warm-cut"),
    pytest.param(5, lambda w: _perturbed_svd_pair(w, 5), {"max_iters": 30}, id="warm-stepped"),
    pytest.param(5, lambda w: tuple(t.data.astype(np.float64) / 3 for t in _svd_pair(w, 5)),
                 {"eta0": 1e8}, id="float64-start-no-step"),
    pytest.param(5, lambda w: None, {"max_iters": 30}, id="random-stepped"),
    pytest.param(5, lambda w: None, {"eta0": 1e8}, id="random-no-step"),
])
def test_final_loss_is_exactly_that_of_the_returned_factors(rank, start, cfg):
    # W of rank 5, so that the rank-5 SVD pair meets the floor
    rng = np.random.default_rng(42)
    w = DenseTensor(rng.standard_normal((14, 5)) @ rng.standard_normal((5, 11)))
    pair = anneal_factorize(w, AnnealConfig(rank=rank, seed=5, **cfg), start(w))
    assert pair.final_loss == frobenius_loss(w, pair.w1, pair.w2)


def _traced_peak_units(w, cfg, start=None):
    """anneal_factorize's traced peak above its entry, in units of one float64 m x n array."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pair = anneal_factorize(w, cfg, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return pair, (peak - base) / (8 * w.size)


def test_memory_from_a_start_at_the_floor():
    # W is the f32 rounding of an f32 pair's product, as decompose hands it on:
    # the start meets the floor, so only W's float64 copy and the loop's
    # residual and square buffers are allocated
    rng = np.random.default_rng(50)
    b = rng.standard_normal((256, 16)).astype(np.float32)
    c = rng.standard_normal((16, 256)).astype(np.float32)
    w = DenseTensor(b.astype(np.float64) @ c.astype(np.float64))
    start = (DenseTensor(b), DenseTensor(c))
    pair, units = _traced_peak_units(w, AnnealConfig(rank=16), start)
    assert len(pair.loss_trace) == 1
    assert units <= 3.5


def test_memory_of_a_random_start():
    # one candidate residual beside W's float64 copy and the loop's buffers
    w = DenseTensor(np.random.default_rng(51).standard_normal((256, 256)))
    pair, units = _traced_peak_units(w, AnnealConfig(rank=16, seed=0, max_iters=20))
    assert len(pair.loss_trace) == 21
    assert units <= 4.5


def test_seeded_determinism_bit_identical():
    rng = np.random.default_rng(8)
    w = DenseTensor(rng.standard_normal((16, 12)))
    cfg = AnnealConfig(rank=4, seed=77)
    a = anneal_factorize(w, cfg)
    b = anneal_factorize(w, cfg)
    assert a.w1.data.tobytes() == b.w1.data.tobytes()
    assert a.w2.data.tobytes() == b.w2.data.tobytes()
    assert a.loss_trace == b.loss_trace


def test_rank_out_of_range():
    w = DenseTensor(np.ones((4, 3)))
    with pytest.raises(ConfigError):
        anneal_factorize(w, AnnealConfig(rank=4, seed=0))


def test_factorize_needs_rank():
    # a config may leave rank out; the fit it would run may not
    with pytest.raises(ConfigError, match="rank must be an integer, got None"):
        anneal_factorize(DenseTensor(np.ones((4, 3))), AnnealConfig())


def test_config_validation():
    with pytest.raises(ConfigError):
        AnnealConfig(rank=0)
    with pytest.raises(ConfigError):
        AnnealConfig(rank=2, decay=0.0)
    with pytest.raises(ConfigError):
        AnnealConfig(rank=2, eta0=-1.0)
    with pytest.raises(ConfigError):
        AnnealConfig(rank=2, max_iters=0)


def hand_on(pair):
    """The matrix a factorize stage hands on to a next stage: that of the
    factored layer it stores, w1 @ w2 in float64, rounded to f32."""
    return DenseTensor(CompressedLayer("L", "factored", (pair.w1, pair.w2)).effective_matrix())


def test_factored_hand_on_outer_product():
    pair = FactorPair(
        w1=DenseTensor(np.array([[1.0], [2.0]])),
        w2=DenseTensor(np.array([[3.0, 4.0]])),
        final_loss=0.0,
    )
    assert hand_on(pair).data.tolist() == [[3.0, 4.0], [6.0, 8.0]]


def test_factored_hand_on_identity_left_factor():
    w2 = np.random.default_rng(9).standard_normal((2, 4)).astype(np.float32)
    pair = FactorPair(
        w1=DenseTensor(np.eye(2, dtype=np.float32)),
        w2=DenseTensor(w2),
        final_loss=0.0,
    )
    assert np.allclose(hand_on(pair).data, w2)


def test_factored_hand_on_round_trip_loss():
    rng = np.random.default_rng(10)
    w = DenseTensor(rng.standard_normal((8, 8)))
    pair = anneal_factorize(w, AnnealConfig(rank=2, seed=4))
    wc = hand_on(pair)
    assert float(np.sum((w.data.astype(np.float64) - wc.data.astype(np.float64)) ** 2)) == (
        pytest.approx(pair.final_loss, rel=1e-5)
    )


def _anneal_oracle(w, cfg):
    """The anneal loop as it was before the residual was carried between
    iterations: four m x n x r products per iteration, stopping at the f32
    floor ||R||_F <= 2^-24 ||W||_F too. Kept as the reference
    that anneal_factorize must match bit for bit. Also returns the number of
    step halvings, so tests can show which branches a case reaches."""
    m, n = w.shape
    a = w.data.astype(np.float64)
    norm = float(np.linalg.norm(a))
    init_scale = cfg.init_scale if cfg.init_scale is not None else 1.0 / np.sqrt(max(m, n))
    eta0 = cfg.eta0 if cfg.eta0 is not None else (0.5 / norm if norm > 0 else 0.5)

    rng = np.random.default_rng(cfg.seed)
    w1 = rng.uniform(-init_scale, init_scale, (m, cfg.rank))
    w2 = rng.uniform(-init_scale, init_scale, (cfg.rank, n))

    halvings = 0
    loss = float(np.sum((a - w1 @ w2) ** 2))
    trace = [loss]
    for t in range(cfg.max_iters):
        if np.sqrt(loss) <= 2.0**-24 * norm:  # the f32 floor
            break
        eta = eta0 * cfg.decay**t
        resid = w1 @ w2 - a
        g1 = 2.0 * resid @ w2.T
        g2 = 2.0 * w1.T @ resid
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            cand1 = w1 - eta * g1
            cand2 = w2 - eta * g2
            cand_loss = float(np.sum((a - cand1 @ cand2) ** 2))
            if not np.isfinite(cand_loss):
                raise DivergenceError(t)
            if cand_loss <= loss:
                accepted = True
                break
            eta /= 2.0
            halvings += 1
        if not accepted:
            break
        improvement = (loss - cand_loss) / loss if loss > 0 else 0.0
        w1, w2, loss = cand1, cand2, cand_loss
        trace.append(loss)
        if improvement < cfg.rel_tol:
            break
    out1, out2 = DenseTensor(w1), DenseTensor(w2)
    pair = FactorPair(w1=out1, w2=out2, final_loss=frobenius_loss(w, out1, out2),
                      loss_trace=trace)
    return pair, halvings


def _assert_bit_identical(got, want):
    assert got.w1.data.tobytes() == want.w1.data.tobytes()
    assert got.w2.data.tobytes() == want.w2.data.tobytes()
    assert got.loss_trace == want.loss_trace
    assert got.final_loss == want.final_loss


@pytest.mark.parametrize(
    "shape, cfg",
    [
        ((64, 64), AnnealConfig(rank=8, seed=1)),
        ((20, 15), AnnealConfig(rank=4, seed=2)),
        ((15, 20), AnnealConfig(rank=15, seed=3, max_iters=300)),
        ((16, 8, 3, 3), AnnealConfig(rank=5, seed=4)),  # conv, flattened to 16 x 72
        ((200, 48), AnnealConfig(rank=12, seed=5, decay=0.99, rel_tol=1e-9)),
        ((1, 7), AnnealConfig(rank=1, seed=6)),
        ((48, 40), AnnealConfig(rank=6, seed=21)),
        ((16, 8, 3, 3), AnnealConfig(rank=5, seed=22, decay=0.99)),  # conv, 16 x 72
    ],
)
def test_matches_four_product_oracle(shape, cfg):
    rng = np.random.default_rng(sum(shape) + cfg.seed)
    data = rng.standard_normal(shape)
    w = DenseTensor(data.reshape(shape[0], -1))
    want, _ = _anneal_oracle(w, cfg)
    assert len(want.loss_trace) > 2
    _assert_bit_identical(anneal_factorize(w, cfg), want)


def test_matches_oracle_on_exact_low_rank_input():
    rng = np.random.default_rng(11)
    w = DenseTensor(rng.standard_normal((40, 6)) @ rng.standard_normal((6, 30)))
    cfg = AnnealConfig(rank=6, seed=7)
    want, _ = _anneal_oracle(w, cfg)
    _assert_bit_identical(anneal_factorize(w, cfg), want)


def _assert_matches_oracle_with_halvings(data_seed, shape, cfg):
    w = DenseTensor(np.random.default_rng(data_seed).standard_normal(shape))
    want, halvings = _anneal_oracle(w, cfg)
    assert halvings > 0
    assert len(want.loss_trace) > 10
    _assert_bit_identical(anneal_factorize(w, cfg), want)


def test_matches_oracle_through_step_halvings():
    _assert_matches_oracle_with_halvings(
        12, (24, 18), AnnealConfig(rank=4, seed=8, eta0=0.3, max_iters=200))


def test_matches_oracle_through_step_halvings_from_eta0_half():
    _assert_matches_oracle_with_halvings(
        23, (30, 25), AnnealConfig(rank=4, seed=23, eta0=0.5, max_iters=300))


def test_matches_oracle_when_halvings_run_out():
    rng = np.random.default_rng(13)
    w = DenseTensor(rng.standard_normal((12, 10)))
    cfg = AnnealConfig(rank=3, seed=9, eta0=1e8)
    want, halvings = _anneal_oracle(w, cfg)
    assert halvings == MAX_HALVINGS + 1
    assert len(want.loss_trace) == 1  # no step accepted
    _assert_bit_identical(anneal_factorize(w, cfg), want)


@pytest.mark.parametrize(
    "data_seed, shape, cfg",
    [
        pytest.param(14, (9, 7), AnnealConfig(rank=2, seed=10), id="None"),  # a NaN weight
        pytest.param(14, (9, 7), AnnealConfig(rank=2, seed=10, eta0=1e200), id="1e+200"),
        pytest.param(24, (10, 6), AnnealConfig(rank=3, seed=25, eta0=1e200), id="1e+200-10x6"),
    ],
)
def test_divergence_iteration_matches_oracle(data_seed, shape, cfg):
    data = np.random.default_rng(data_seed).standard_normal(shape)
    if cfg.eta0 is None:
        data[4, 2] = np.nan
    w = DenseTensor(data)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as want:
        _anneal_oracle(w, cfg)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as got:
        anneal_factorize(w, cfg)
    assert got.value.iteration == want.value.iteration
