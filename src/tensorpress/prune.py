"""Probabilistic magnitude pruning with entanglement-style neighbor propagation.

The pipeline per stage: importance = |w| over the surviving weights, a
threshold calibrated so the cumulative pruned count tracks a linear schedule,
then one non-cascading pass that prunes retained neighbors of freshly pruned
weights with a fixed probability. The paper thresholds softmax(|w|); softmax
is monotone, so the threshold is applied to |w| directly, which also keeps
apart magnitudes that float64 softmax rounds to equal values. Ties at the
threshold are pruned lowest flat index first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
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
        if self.stages < 1:
            raise ConfigError(f"stages must be >= 1, got {self.stages}")


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


def _neighbor_pairs(mask: RetainMask) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of (pruned weight, adjacent weight) pairs.

    For 4-axis tensors adjacency is the 4-neighborhood in the trailing H x W
    plane of the same filter; otherwise it is +-1 along the last axis. Pairs
    are ordered by pruned flat index, then by a fixed direction order, so the
    random draw sequence is reproducible.
    """
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


def entangle(mask: RetainMask, entangle_prob: float, seed) -> RetainMask:
    """One propagation pass: each retained neighbor of a pruned weight is
    independently pruned with probability entangle_prob. Non-cascading: only
    weights pruned in the input mask propagate."""
    if not 0.0 <= entangle_prob <= 1.0:
        raise ConfigError(f"entangle_prob must be in [0, 1], got {entangle_prob}")
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
    pruned = DenseTensor(w.data * shaped, name=w.name)
    return PruneResult(
        mask=shaped,
        pruned_weights=pruned,
        achieved_sparsity=per_stage[-1],
        per_stage_sparsity=per_stage,
    )


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))
