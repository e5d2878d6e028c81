"""Probabilistic magnitude pruning with entanglement-style neighbor propagation.

The pipeline per stage: importance = |w| over the surviving weights, a
threshold calibrated so the cumulative pruned count tracks a linear schedule,
then one non-cascading pass that prunes retained neighbors of pruned weights
with a fixed probability. That pass takes one uniform draw per (pruned weight,
retained in-plane neighbor) pair, in pruned flat index order, then up, down,
left, right (left, right only, off 4-axis tensors), so a seed fixes the mask.
The paper thresholds softmax(|w|); softmax is monotone, so the threshold is
applied to |w| directly, which also keeps apart magnitudes that float64
softmax rounds to equal values. Ties at the threshold are pruned lowest flat
index first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_int
from .tensors import DenseTensor

# Binary retain tensor, 1 = kept, 0 = pruned; same shape as the weights.
RetainMask = np.ndarray


@dataclass(frozen=True)
class PruneConfig:
    alpha: float = 0.0
    stages: int = 1
    entangle_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 <= self.entangle_prob <= 1.0:
            raise ConfigError(f"entangle_prob must be in [0, 1], got {self.entangle_prob}")
        check_int("stages", self.stages, 1)
        check_int("seed", self.seed)


@dataclass(frozen=True)
class PruneResult:
    mask: RetainMask
    pruned_weights: DenseTensor
    achieved_sparsity: float
    per_stage_sparsity: list[float] = field(default_factory=list)


def _smallest_k(x: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k smallest entries of x, ties broken lowest index
    first: the same set as np.argsort(x, kind="stable")[:k], in O(n).

    The k-th smallest value lam is the calibrated threshold; every entry
    below it is taken, then the first entries equal to it fill the count.
    """
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    lam = np.partition(x, k - 1)[k - 1]
    below = np.flatnonzero(x < lam)
    ties = np.flatnonzero(x == lam)[: k - below.size]
    return np.concatenate([below, ties])


def entangle(mask: RetainMask, entangle_prob: float, seed) -> RetainMask:
    """One propagation pass: each retained neighbor of a pruned weight is
    independently pruned with probability entangle_prob. Non-cascading: only
    weights pruned in the input mask propagate.

    Neighbors lie in the same trailing H x W plane of a 4-axis tensor (steps
    -W, +W, -1, +1: up, down, left, right), otherwise along the last axis
    (steps -1, +1). One uniform draw is taken per (pruned weight, retained
    neighbor) pair, in pruned flat index order, then direction order; archive
    byte-identity rests on this order.
    """
    if not 0.0 <= entangle_prob <= 1.0:
        raise ConfigError(f"entangle_prob must be in [0, 1], got {entangle_prob}")
    if entangle_prob == 0.0:
        return mask.copy()
    flat_in = mask.ravel()
    if mask.ndim == 4:
        h, w = mask.shape[2:]
        steps = np.array([-w, w, -1, 1])
    else:
        h, w = 1, mask.shape[-1]
        steps = np.array([-1, 1])
    # in-plane bound of each direction, by index: -W and -1 coincide when W == 1
    rows, cols = np.indices((h, w))
    inside = (rows > 0, rows < h - 1, cols > 0, cols < w - 1)[-steps.size :]
    n, k = flat_in.size, steps.size
    pruned = (flat_in == 0).reshape(-1, h * w)
    kept = flat_in == 1
    # pairs[p, d]: pruned p has a retained neighbor p + steps[d]; its flat
    # nonzero ids p * k + d come in the draw order
    pairs = np.zeros((n, k), dtype=bool)
    for d, (step, ok) in enumerate(zip(steps.tolist(), inside)):
        src = (pruned & ok.ravel()).ravel()
        if step > 0:
            pairs[: n - step, d] = src[: n - step] & kept[step:]
        else:
            pairs[-step:, d] = src[-step:] & kept[: n + step]
    ids = np.flatnonzero(pairs)
    draws = np.random.default_rng(seed).random(ids.size)
    hit = ids[draws < entangle_prob]
    out = flat_in.copy()
    out[hit // k + steps[hit % k]] = 0
    return out.reshape(mask.shape)


def iterative_prune(w: DenseTensor, cfg: PruneConfig) -> PruneResult:
    """Multi-stage pruning toward cumulative sparsity alpha, linear schedule.

    Stage t targets round(alpha * t/stages * N) pruned weights; the
    threshold is recalibrated over the survivors each stage, and an
    entanglement pass follows each stage's threshold mask. Masks only ever
    lose ones. Deterministic given cfg.seed.
    """
    n = w.size
    flat_w = w.data.ravel()
    mask = np.ones(n, dtype=np.uint8)
    per_stage: list[float] = []
    for stage in range(1, cfg.stages + 1):
        target_total = _round_half_up(cfg.alpha * stage / cfg.stages * n)
        survivors = np.flatnonzero(mask == 1)
        k_add = target_total - (n - survivors.size)
        mask[survivors[_smallest_k(np.abs(flat_w[survivors]), k_add)]] = 0
        if cfg.entangle_prob > 0.0:
            stage_seed = np.random.SeedSequence([cfg.seed & 0xFFFFFFFFFFFFFFFF, stage])
            mask = entangle(mask.reshape(w.shape), cfg.entangle_prob, stage_seed).ravel()
        per_stage.append(1.0 - float(mask.sum()) / n)
    shaped = mask.reshape(w.shape)
    pruned = DenseTensor(w.data * shaped)
    return PruneResult(
        mask=shaped,
        pruned_weights=pruned,
        achieved_sparsity=per_stage[-1],
        per_stage_sparsity=per_stage,
    )


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))
