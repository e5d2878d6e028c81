import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st

from tensorpress.errors import ConfigError
from tensorpress.prune import PruneConfig, _smallest_k, entangle, iterative_prune
from tensorpress.tensors import DenseTensor


def t(values, shape=None):
    arr = np.array(values, dtype=np.float32)
    if shape:
        arr = arr.reshape(shape)
    return DenseTensor(arr)


def _softmax(x: np.ndarray) -> np.ndarray:
    """The paper's normalization of |w|, with max-subtraction for stability."""
    if x.size == 0:
        raise ValueError("softmax of an empty tensor is undefined")
    e = np.exp(x - x.max())
    return e / e.sum()


def softmax_prune_oracle(w: DenseTensor, cfg: PruneConfig) -> tuple[np.ndarray, bool]:
    """The paper's selection, stage by stage: float64 softmax of |w| over the
    survivors, stable argsort, prune the first k. Returns the mask and whether
    every stage's softmax kept distinct magnitudes distinct."""
    n = w.size
    flat_w = w.data.ravel()
    mask = np.ones(n, dtype=np.uint8)
    injective = True
    for stage in range(1, cfg.stages + 1):
        target_total = int(np.floor(cfg.alpha * stage / cfg.stages * n + 0.5))
        survivors = np.flatnonzero(mask == 1)
        k_add = target_total - (n - survivors.size)
        if k_add > 0:
            imp = np.abs(flat_w[survivors]).astype(np.float64)
            probs = _softmax(imp)
            injective &= np.unique(probs).size == np.unique(imp).size
            order = np.argsort(probs, kind="stable")
            mask[survivors[order[:k_add]]] = 0
        if cfg.entangle_prob > 0.0:
            stage_seed = np.random.SeedSequence([cfg.seed & 0xFFFFFFFFFFFFFFFF, stage])
            mask = entangle(mask.reshape(w.shape), cfg.entangle_prob, stage_seed).ravel()
    return mask.reshape(w.shape), injective


def scalar_rank(x: np.ndarray, i: int) -> int:
    """Position of x[i] in ascending order, ties lowest index first."""
    return sum(1 for j in range(x.size) if x[j] < x[i] or (x[j] == x[i] and j < i))


class TestImportance:
    """Importance is |w|: pruning ignores the sign."""

    def test_definition(self):
        res = iterative_prune(t([-3.0, 1.0, -2.0, 0.5]), PruneConfig(alpha=0.5))
        assert res.mask.tolist() == [1, 0, 1, 0]

    def test_zero(self):
        res = iterative_prune(t([0.0, 0.0]), PruneConfig(alpha=0.5))
        assert res.mask.tolist() == [0, 1]

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        x = np.abs(rng.integers(-4, 5, 35)).astype(np.float32)  # many ties
        for k in range(x.size + 1):
            want = {i for i in range(x.size) if scalar_rank(x, i) < k}
            assert set(_smallest_k(x, k).tolist()) == want


class TestSoftmax:
    """The oracle's softmax, which the oracle tests below rest on."""

    def test_uniform_on_constant(self):
        for c in (0.0, 3.5, -100.0):
            assert np.allclose(_softmax(np.full(4, c)), 0.25)

    def test_closed_form(self):
        assert np.allclose(_softmax(np.array([0.0, np.log(3.0)])), [0.25, 0.75], atol=1e-12)

    def test_sum_and_order(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(1000)
        out = _softmax(x)
        assert abs(out.sum() - 1.0) < 1e-12
        assert (out > 0).all()
        order = np.argsort(x, kind="stable")
        assert (np.diff(out[order]) >= 0).all()

    def test_large_values_stable(self):
        assert np.allclose(_softmax(np.array([1000.0, 1000.0])), 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _softmax(np.empty(0))


class TestCalibrate:
    """The threshold is the k-th smallest |w|, k = round(alpha * N)."""

    def test_quarter(self):
        res = iterative_prune(t([0.1, 0.2, 0.3, 0.4]), PruneConfig(alpha=0.25))
        assert res.mask.tolist() == [0, 1, 1, 1]

    def test_alpha_zero(self):
        assert _smallest_k(np.array([0.3, 0.1, 0.6]), 0).size == 0

    def test_ties_broken_by_index(self):
        res = iterative_prune(t([0.25] * 8), PruneConfig(alpha=0.5))
        assert res.mask.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_alpha_out_of_range(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                PruneConfig(alpha=bad)


class TestRetainMask:
    """Without ties at the threshold, the retain mask is 1 exactly where
    |w| >= the (k+1)-th smallest magnitude (the paper's Eq. 3)."""

    def test_eq3_elementwise(self):
        x = np.random.default_rng(3).permutation(50).astype(np.float32)
        for k in range(x.size):
            mask = np.ones(x.size, dtype=np.uint8)
            mask[_smallest_k(x, k)] = 0
            assert np.array_equal(mask, x >= np.sort(x)[k])

    def test_lambda_zero_all_ones(self):
        res = iterative_prune(t([0.1, 0.5]), PruneConfig(alpha=0.0, stages=2))
        assert res.mask.tolist() == [1, 1]

    def test_lambda_above_max_all_zeros(self):
        x = np.array([0.5, 0.1, 0.5])
        assert sorted(_smallest_k(x, x.size).tolist()) == [0, 1, 2]


class TestEntangle:
    def test_zero_prob_noop(self):
        mask = np.array([1, 0, 1, 1], dtype=np.uint8)
        out = entangle(mask, 0.0, seed=1)
        assert np.array_equal(out, mask)

    def test_prob_one_single_pass_no_cascade(self):
        mask = np.array([1, 0, 1, 1], dtype=np.uint8)
        out = entangle(mask, 1.0, seed=1)
        assert out.tolist() == [0, 0, 0, 1]

    def test_4axis_neighborhood_within_plane(self):
        # pruned center of one 3x3 plane; only its 4-neighbors are eligible
        mask = np.ones((2, 1, 3, 3), dtype=np.uint8)
        mask[0, 0, 1, 1] = 0
        out = entangle(mask, 1.0, seed=0)
        expect = np.ones((2, 1, 3, 3), dtype=np.uint8)
        expect[0, 0, 1, 1] = 0
        expect[0, 0, 0, 1] = 0
        expect[0, 0, 2, 1] = 0
        expect[0, 0, 1, 0] = 0
        expect[0, 0, 1, 2] = 0
        assert np.array_equal(out, expect)
        assert out[1].all()  # other filter untouched

    def test_no_wraparound_across_rows(self):
        mask = np.ones((2, 3), dtype=np.uint8)
        mask[0, 2] = 0  # end of first row; (1, 0) is not a neighbor
        out = entangle(mask, 1.0, seed=0)
        assert out[1, 0] == 1
        assert out[0, 1] == 0

    def test_monte_carlo_rate(self):
        # period-4 pattern: each pruned weight has two retained neighbors,
        # each eligible neighbor is adjacent to exactly one pruned weight
        base = np.tile(np.array([0, 1, 1, 1], dtype=np.uint8), 5001)
        pruned_sites = np.flatnonzero(base == 0)
        eligible = sum(
            1
            for i in pruned_sites
            for j in (i - 1, i + 1)
            if 0 <= j < base.size and base[j] == 1
        )
        assert eligible >= 10_000
        pruned_extra = 0
        for seed in range(200):
            out = entangle(base, 0.5, seed=seed)
            pruned_extra += int((base == 1).sum() - out.sum())
        rate = pruned_extra / (eligible * 200)
        assert abs(rate - 0.5) < 0.02

    def test_invalid_prob(self):
        with pytest.raises(ConfigError):
            entangle(np.ones(3, dtype=np.uint8), 1.5, seed=0)

    def test_deterministic_given_seed(self):
        mask = (np.random.default_rng(0).random(200) > 0.3).astype(np.uint8)
        a = entangle(mask, 0.5, seed=123)
        b = entangle(mask, 0.5, seed=123)
        assert np.array_equal(a, b)


class TestIterativePrune:
    def test_alpha_zero_identity(self):
        w = DenseTensor(np.random.default_rng(1).standard_normal((4, 4)))
        res = iterative_prune(w, PruneConfig(alpha=0.0, stages=3))
        assert res.achieved_sparsity == 0.0
        assert res.mask.all()
        assert np.array_equal(res.pruned_weights.data, w.data)

    def test_two_smallest_magnitudes_pruned(self):
        w = t([1.0, -2.0, 3.0, -4.0], shape=(1, 4))
        res = iterative_prune(w, PruneConfig(alpha=0.5, stages=1))
        assert res.mask.ravel().tolist() == [0, 0, 1, 1]
        assert res.pruned_weights.data.ravel().tolist() == [0.0, 0.0, 3.0, -4.0]

    def test_paper_sparsity_setting(self):
        w = DenseTensor(np.random.default_rng(2).standard_normal((64, 64)))
        res = iterative_prune(w, PruneConfig(alpha=0.1417, stages=3))
        assert abs(res.achieved_sparsity - 0.1417) <= 1.0 / 4096

    def test_monotone_staging(self):
        w = DenseTensor(np.random.default_rng(3).standard_normal((32, 32)))
        cfg = PruneConfig(alpha=0.4, stages=4, entangle_prob=0.3, seed=7)
        res = iterative_prune(w, cfg)
        assert all(
            a <= b + 1e-12
            for a, b in zip(res.per_stage_sparsity, res.per_stage_sparsity[1:])
        )

    def test_mask_zero_consistency(self):
        w = DenseTensor(np.random.default_rng(4).standard_normal((16, 16)))
        res = iterative_prune(w, PruneConfig(alpha=0.3, stages=2, entangle_prob=0.2, seed=1))
        pw = res.pruned_weights.data
        assert (pw[res.mask == 0] == 0).all()
        assert np.array_equal(pw[res.mask == 1], w.data[res.mask == 1])

    def test_determinism(self):
        w = DenseTensor(np.random.default_rng(5).standard_normal((20, 20)))
        cfg = PruneConfig(alpha=0.5, stages=3, entangle_prob=0.4, seed=99)
        a = iterative_prune(w, cfg)
        b = iterative_prune(w, cfg)
        assert np.array_equal(a.mask, b.mask)
        assert a.per_stage_sparsity == b.per_stage_sparsity

    def test_single_stage_equals_topk_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(8, 200))
            w = DenseTensor(rng.standard_normal((1, n)))
            alpha = float(rng.uniform(0, 0.9))
            res = iterative_prune(w, PruneConfig(alpha=alpha, stages=1))
            k = int(np.floor(alpha * n + 0.5))
            oracle = np.ones(n, dtype=np.uint8)
            oracle[np.argsort(np.abs(w.data.ravel()), kind="stable")[:k]] = 0
            assert np.array_equal(res.mask.ravel(), oracle)

    @pytest.mark.parametrize(
        "values, mask",
        [
            # exp underflows: softmax maps 0.0 .. 2.0 to 0 and ties them
            ([800.0, 0.5, -0.25, 1.0, 0.0, 2.0], [1, 0, 0, 1, 0, 1]),
            # weights below float64 resolution of the max get equal softmax
            ([3.0, 1e-20, 0.0, 2e-20, 1.0, 0.0], [1, 0, 0, 1, 1, 0]),
        ],
    )
    def test_magnitude_order_where_softmax_ties(self, values, mask):
        res = iterative_prune(t(values), PruneConfig(alpha=0.5, stages=1))
        assert res.mask.tolist() == mask

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            PruneConfig(alpha=1.0)
        with pytest.raises(ConfigError):
            PruneConfig(alpha=0.1, stages=0)
        with pytest.raises(ConfigError):
            PruneConfig(alpha=0.1, entangle_prob=-0.1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(8, 100),
    st.floats(0.0, 0.9),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_calibration_bound_property(n, alpha, stages, seed):
    w = DenseTensor(np.random.default_rng(seed).standard_normal(n))
    res = iterative_prune(w, PruneConfig(alpha=alpha, stages=stages))
    assert abs(res.achieved_sparsity - alpha) <= stages / n


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=1, max_dims=4, max_side=8),
        elements=st.floats(-8.0, 8.0, width=32),
    ),
    st.floats(0.0, 0.9),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.3]),
    st.integers(0, 2**32 - 1),
)
def test_matches_softmax_oracle(data, alpha, stages, entangle_prob, seed):
    w = DenseTensor(data)
    cfg = PruneConfig(alpha=alpha, stages=stages, entangle_prob=entangle_prob, seed=seed)
    want, injective = softmax_prune_oracle(w, cfg)
    assume(injective)
    assert np.array_equal(iterative_prune(w, cfg).mask, want)
