import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st

from tensorpress import prune
from tensorpress.errors import ConfigError
from tensorpress.prune import PruneConfig, _in_plane, entangle, iterative_prune
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


def _neighbor_pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of (pruned weight, adjacent weight) pairs, built pair by
    pair: 4-neighborhood in the trailing H x W plane of 4-axis tensors, else
    +-1 along the last axis; ordered by pruned flat index, then direction."""
    if mask.ndim == 4:
        plane = mask.reshape(-1, mask.shape[2], mask.shape[3])
        rows, h, w = plane.shape
        pr, ph, pw = np.nonzero(plane == 0)
        offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
        nbr = np.full((pr.size, 4), -1, dtype=np.int64)
        for d, (dh, dw) in enumerate(offsets):
            nh, nw = ph + dh, pw + dw
            ok = (nh >= 0) & (nh < h) & (nw >= 0) & (nw < w)
            nbr[ok, d] = (pr[ok] * h + nh[ok]) * w + nw[ok]
        src = np.repeat(pr * h * w + ph * w + pw, 4)
    else:
        flat2d = mask.reshape(-1, mask.shape[-1])
        rows, width = flat2d.shape
        pr, pc = np.nonzero(flat2d == 0)
        nbr = np.full((pr.size, 2), -1, dtype=np.int64)
        for d, dc in enumerate((-1, 1)):
            nc = pc + dc
            ok = (nc >= 0) & (nc < width)
            nbr[ok, d] = pr[ok] * width + nc[ok]
        src = np.repeat(pr * width + pc, 2)
    nbr = nbr.ravel()
    valid = nbr >= 0
    return src[valid], nbr[valid]


def entangled(mask: np.ndarray, entangle_prob: float, seed) -> np.ndarray:
    """entangle run in place on the keep-mask of a 0/1 mask (mask == 1), as a
    0/1 uint8 array of the mask's shape."""
    keep = mask.ravel() == 1
    entangle(keep, mask.shape, entangle_prob, seed)
    return keep.view(np.uint8).reshape(mask.shape)


def _entangle_oracle(mask: np.ndarray, entangle_prob: float, seed) -> np.ndarray:
    """The pair-list entanglement pass that entangle() must match bit for bit."""
    if entangle_prob == 0.0:
        return mask.copy()
    flat_in = mask.ravel()
    _, nbr = _neighbor_pairs(mask)
    eligible = nbr[flat_in[nbr] == 1]
    rng = np.random.default_rng(seed)
    draws = rng.random(eligible.size)
    out = flat_in.copy()
    out[eligible[draws < entangle_prob]] = 0
    return out.reshape(mask.shape)


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
            mask = _entangle_oracle(mask.reshape(w.shape), cfg.entangle_prob, stage_seed).ravel()
    return mask.reshape(w.shape), injective


def scalar_rank(x: np.ndarray, i: int) -> int:
    """Position of x[i] in ascending order, ties lowest index first."""
    return sum(1 for j in range(x.size) if x[j] < x[i] or (x[j] == x[i] and j < i))


def prune_k(x: np.ndarray, k: int) -> np.ndarray:
    """The one-stage mask of iterative_prune on weights x at the alpha whose
    target is k pruned weights, k in [0, x.size]."""
    alpha = max(k - 0.25, 0.0) / x.size
    return iterative_prune(DenseTensor(x), PruneConfig(alpha=alpha)).mask


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
            want = [int(scalar_rank(x, i) >= k) for i in range(x.size)]
            assert prune_k(x, k).tolist() == want


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
        assert prune_k(np.array([0.3, 0.1, 0.6], dtype=np.float32), 0).tolist() == [1, 1, 1]

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
            assert np.array_equal(prune_k(x, k), x >= np.sort(x)[k])

    def test_lambda_zero_all_ones(self):
        res = iterative_prune(t([0.1, 0.5]), PruneConfig(alpha=0.0, stages=2))
        assert res.mask.tolist() == [1, 1]

    def test_lambda_above_max_all_zeros(self):
        x = np.array([0.5, 0.1, 0.5], dtype=np.float32)
        assert prune_k(x, x.size).tolist() == [0, 0, 0]


class TestEntangle:
    def test_zero_prob_noop(self):
        mask = np.array([1, 0, 1, 1], dtype=np.uint8)
        out = entangled(mask, 0.0, seed=1)
        assert np.array_equal(out, mask)

    def test_prob_one_single_pass_no_cascade(self):
        mask = np.array([1, 0, 1, 1], dtype=np.uint8)
        out = entangled(mask, 1.0, seed=1)
        assert out.tolist() == [0, 0, 0, 1]

    def test_4axis_neighborhood_within_plane(self):
        # pruned center of one 3x3 plane; only its 4-neighbors are eligible
        mask = np.ones((2, 1, 3, 3), dtype=np.uint8)
        mask[0, 0, 1, 1] = 0
        out = entangled(mask, 1.0, seed=0)
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
        out = entangled(mask, 1.0, seed=0)
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
            out = entangled(base, 0.5, seed=seed)
            pruned_extra += int((base == 1).sum() - out.sum())
        rate = pruned_extra / (eligible * 200)
        assert abs(rate - 0.5) < 0.02

    def test_deterministic_given_seed(self):
        mask = (np.random.default_rng(0).random(200) > 0.3).astype(np.uint8)
        a = entangled(mask, 0.5, seed=123)
        b = entangled(mask, 0.5, seed=123)
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

    def test_stages_past_weight_count_raise_before_any_stage(self, monkeypatch):
        w = t(np.arange(64), (8, 8))
        assert iterative_prune(w, PruneConfig(alpha=0.5, stages=64)).mask.sum() == 32
        # one stage each, 10**12 stages would run for hours: none may start
        monkeypatch.setattr(prune, "_round_half_up", lambda x: pytest.fail("a stage ran"))
        with pytest.raises(ConfigError,
                           match="^stages must be <= the layer's 64 weights, got 1000000000000$"):
            iterative_prune(w, PruneConfig(alpha=0.5, stages=10**12))


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
# ties at 0.5 straddle both stages: stage 1 keeps two of them, and stage 2's
# threshold is 0.5 again, with one of them entangled in between
@example(np.array([[1.5, 0.5, 0.5, 1.0, -1.0, -0.5], [-1.0, -1.5, 0.0, 0.5, 1.5, -1.0]],
                  dtype=np.float32), 0.5, 2, 0.3, 15)
# entanglement passes stage 2's target (7 pruned, target 6), so stage 2 runs no
# threshold; stage 3 thresholds again
@example(np.array([[3.0, 2.25, -1.75, -2.0, -0.75, 2.75], [1.0, -0.25, -1.5, 2.5, -1.25, -0.5]],
                  dtype=np.float32), 0.75, 3, 0.5, 341)
@example(np.array([-2.0], dtype=np.float32), 0.5, 1, 0.3, 0)  # target == n
@example(np.array([1.0, -2.0], dtype=np.float32), 0.5, 3, 0.0, 0)  # stages > n
def test_matches_softmax_oracle(data, alpha, stages, entangle_prob, seed):
    w = DenseTensor(data)
    cfg = PruneConfig(alpha=alpha, stages=stages, entangle_prob=entangle_prob, seed=seed)
    if stages > w.size:  # more stages than weights cannot each prune one
        with pytest.raises(ConfigError, match=f"stages must be <= the layer's {w.size} weights"):
            iterative_prune(w, cfg)
        return
    want, injective = softmax_prune_oracle(w, cfg)
    assume(injective)
    assert np.array_equal(iterative_prune(w, cfg).mask, want)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=4),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.sampled_from([1e-3, 0.1, 0.5, 1.0]),
    st.integers(0, 2**32 - 1),
)
@example([4, 5, 5, 1], 0.5, 1.0, 0)  # W == 1: steps -W and -1 coincide
@example([4, 5, 1, 5], 0.5, 1.0, 0)  # H == 1
@example([3, 1, 1, 1], 1.0, 1.0, 0)
def test_entangle_matches_pair_list_oracle(shape, pruned_frac, entangle_prob, seed):
    rng = np.random.default_rng(seed)
    mask = (rng.random(shape) >= pruned_frac).astype(np.uint8)
    keep = mask.ravel() == 1
    hits = entangle(keep, mask.shape, entangle_prob, seed)
    want = _entangle_oracle(mask, entangle_prob, seed)
    assert np.array_equal(keep, want.ravel() == 1)
    # the returned flat indices are exactly the weights the pass cleared
    assert np.array_equal(np.unique(hits), np.flatnonzero((mask.ravel() == 1) & ~keep))


def test_entangle_in_plane_bound_follows_shape():
    # equal sizes, different planes: a bound keyed or cached by element
    # count alone would apply one shape's plane edges to another
    shapes = [(4, 4, 3, 3), (4, 4, 1, 9), (4, 4, 9, 1), (16, 9)]
    rng = np.random.default_rng(4)
    for seed in range(3):
        for shape in shapes:
            mask = (rng.random(shape) >= 0.4).astype(np.uint8)
            want = _entangle_oracle(mask, 0.5, seed)
            assert np.array_equal(entangled(mask, 0.5, seed), want)
    for shape in shapes:
        assert not _in_plane(shape).flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_iterative_prune_rejects_non_finite(bad):
    data = np.ones((2, 4), dtype=np.float32)
    data[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        iterative_prune(DenseTensor(data), PruneConfig(alpha=0.5))


@pytest.mark.parametrize("shape", [(32, 16, 3, 3), (64, 48)])
def test_iterative_prune_matches_oracle_loop(shape):
    w = DenseTensor(np.random.default_rng(8).standard_normal(shape))
    cfg = PruneConfig(alpha=0.5, stages=3, entangle_prob=0.3, seed=21)
    want, injective = softmax_prune_oracle(w, cfg)
    assert injective
    got = iterative_prune(w, cfg).mask
    assert (got == 0).mean() > 0.5  # entanglement added pruning beyond alpha
    assert np.array_equal(got, want)


@pytest.mark.parametrize("entangle_prob", [0.0, 0.3])
def test_iterative_prune_runs_entangle_by_module_name(monkeypatch, entangle_prob):
    # a wrapper set on the module is the pass iterative_prune runs: once per
    # stage when entangle_prob > 0, never at 0, with the mask unchanged
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return entangle(*args, **kwargs)

    w = DenseTensor(np.random.default_rng(9).standard_normal((8, 6, 3, 3)))
    cfg = PruneConfig(alpha=0.5, stages=3, entangle_prob=entangle_prob, seed=4)
    want = iterative_prune(w, cfg).mask
    monkeypatch.setattr(prune, "entangle", counting)
    got = iterative_prune(w, cfg).mask
    assert len(calls) == (cfg.stages if entangle_prob > 0 else 0)
    assert np.array_equal(got, want)
