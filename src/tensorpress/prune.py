"""Probabilistic magnitude pruning with entanglement-style neighbor propagation.

The pipeline per stage: importance = |w| over the surviving weights, a
threshold calibrated so the cumulative pruned count tracks a linear schedule,
then one non-cascading pass that prunes retained neighbors of pruned weights
with a fixed probability. That pass takes one uniform draw per (pruned weight,
retained in-plane neighbor) pair, so a seed fixes the mask.

The pairs are enumerated pruned-major: by pruned flat index, then in
direction order up, down, left, right (left, right only, off 4-axis tensors).
Archive byte-identity rests on that enumeration, not on how it is computed:
entangle packs each weight's retained-neighbor flags into a uint8 direction
code and lists the pairs from the codes of the pruned weights, but any
computation of the same pair sequence takes the same draws.

iterative_prune keeps one bool keep-mask for all stages and updates it in
place, never copied; the result's mask is it, reshaped. Threshold picks
are always the smallest survivors, since entanglement removes only survivors,
which rank above the picks of the stage that ran it. So a stage's keep-mask is
one comparison of the whole |w| array against its threshold, with only
entangled weights marked, at -inf.

The paper thresholds softmax(|w|); softmax is monotone, so the threshold is
applied to |w| directly, which also keeps apart magnitudes that float64
softmax rounds to equal values. Ties at the threshold are pruned lowest flat
index first.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_int, check_real
from .tensors import DenseTensor

# Bool retain tensor, True = kept, False = pruned; same shape as the weights.
RetainMask = np.ndarray


@dataclass(frozen=True)
class PruneConfig:
    alpha: float = 0.0
    stages: int = 1
    entangle_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_real("alpha", self.alpha, "[0, 1)")
        check_real("entangle_prob", self.entangle_prob, "[0, 1]")
        check_int("stages", self.stages, 1)
        check_int("seed", self.seed)


@dataclass(frozen=True)
class PruneResult:
    mask: RetainMask
    pruned_weights: DenseTensor
    achieved_sparsity: float
    per_stage_sparsity: list[float] = field(default_factory=list)


def check_stages(stages: int, n: int) -> None:
    """Raise ConfigError unless stages <= n, the layer's weight count: more
    stages than weights cannot each prune a weight, and iterative_prune runs
    one loop pass per stage, so a huge count would never finish."""
    if stages > n:
        raise ConfigError(f"stages must be <= the layer's {n} weights, got {reprlib.repr(stages)}")


def _steps(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Flat index steps to a weight's neighbors, in direction order."""
    return (-shape[3], shape[3], -1, 1) if len(shape) == 4 else (-1, 1)


# _BITS[c, d]: bit d of direction code c
_BITS = (np.arange(16)[:, None] >> np.arange(4) & 1).astype(bool)


@functools.lru_cache(maxsize=8)
def _in_plane(shape: tuple[int, ...]) -> np.ndarray:
    """Read-only uint8 table of a mask shape: bit d of entry i is set where
    entangle's step d from flat index i stays in i's plane (-W and -1
    coincide when W == 1, the bound tells them apart)."""
    h, w = shape[2:] if len(shape) == 4 else (1, shape[-1])
    rows, cols = np.indices((h, w))
    inside = (rows > 0, rows < h - 1, cols > 0, cols < w - 1)[-len(_steps(shape)) :]
    plane = np.zeros(h * w, dtype=np.uint8)
    for d, ok in enumerate(inside):
        plane |= ok.ravel().astype(np.uint8) << d
    table = np.tile(plane, math.prod(shape) // plane.size)
    table.flags.writeable = False
    return table


def entangle(keep: np.ndarray, shape: tuple[int, ...], entangle_prob: float,
             seed) -> np.ndarray:
    """One propagation pass on the flat bool keep-mask of a tensor of this
    shape: each retained neighbor of a pruned weight is independently pruned
    with probability entangle_prob. Non-cascading: only weights pruned in the
    input mask propagate. Each hit is cleared in keep, in place; returns their
    flat indices.

    Neighbors lie in the same trailing H x W plane of a 4-axis tensor (steps
    -W, +W, -1, +1: up, down, left, right), otherwise along the last axis
    (steps -1, +1). One uniform draw is taken per (pruned weight, retained
    neighbor) pair, in pruned flat index order, then direction order; archive
    byte-identity rests on this order.
    """
    kept = keep.view(np.uint8)
    steps = _steps(shape)
    n, k = keep.size, len(steps)
    # code[i]: bit d set where weight i + steps[d] is retained and in i's
    # plane, left at 0 unless weight i is pruned; built last direction first,
    # doubling (a fast shift by one) before each direction's bit is or-ed in
    code = np.zeros(n, dtype=np.uint8)
    for step in reversed(steps):
        np.add(code, code, out=code)
        lo, hi = max(-step, 0), n - max(step, 0)
        np.bitwise_or(code[lo:hi], kept[lo + step : hi + step], out=code[lo:hi])
    np.bitwise_and(code, _in_plane(shape), out=code)
    np.multiply(code, ~keep, out=code)
    # pairs[i, d]: pruned weight p[i] has a retained neighbor p[i] + steps[d];
    # the flat nonzero ids i * k + d come in the draw order
    p = np.flatnonzero(code != 0)
    pairs = _BITS[:, :k].take(code.take(p), axis=0)
    ids = np.flatnonzero(pairs)
    draws = np.random.default_rng(seed).random(ids.size)
    hit = ids.take(np.flatnonzero(draws < entangle_prob))
    hits = p.take(hit // k) + np.take(steps, hit % k)
    keep[hits] = False
    return hits


def iterative_prune(w: DenseTensor, cfg: PruneConfig) -> PruneResult:
    """Multi-stage pruning toward cumulative sparsity alpha, linear schedule.

    Stage t targets round(alpha * t/stages * N) pruned weights; the threshold
    lam is recalibrated over the survivors each stage, and an entanglement
    pass follows each stage's threshold mask. Masks only ever lose ones.
    Deterministic given cfg.seed. Raises ConfigError where cfg.stages exceeds
    the weight count (check_stages), and ValueError on NaN or infinite
    weights; compress rejects both before any stage runs.

    lam is the target-th smallest entry of the |w| array in which entangled
    weights are -inf. A stage's pruned weights are the target smallest
    entries of that array, so it keeps |w| > lam, and where ties at lam make
    that prune too many, the highest-index ties are kept again. A stage whose
    target entanglement has already met runs no threshold.
    """
    n = w.size
    check_stages(cfg.stages, n)
    magnitude = np.abs(w.data.ravel())
    if not np.isfinite(magnitude.max()):
        raise ValueError("iterative_prune needs finite weights, got NaN or inf")
    keep = np.ones(n, dtype=bool)
    kept = n
    per_stage: list[float] = []
    for stage in range(1, cfg.stages + 1):
        target = _round_half_up(cfg.alpha * stage / cfg.stages * n)
        if target > n - kept:
            lam = np.partition(magnitude, target - 1)[target - 1]
            np.greater(magnitude, lam, out=keep)
            excess = n - np.count_nonzero(keep) - target
            if excess:
                keep[np.flatnonzero(magnitude == lam)[-excess:]] = True
        if cfg.entangle_prob > 0.0:
            stage_seed = np.random.SeedSequence([cfg.seed & 0xFFFFFFFFFFFFFFFF, stage])
            magnitude[entangle(keep, w.shape, cfg.entangle_prob, stage_seed)] = -np.inf
        kept = np.count_nonzero(keep)
        per_stage.append(1.0 - kept / n)
    mask = keep.reshape(w.shape)
    pruned = DenseTensor(w.data * mask)
    return PruneResult(
        mask=mask,
        pruned_weights=pruned,
        achieved_sparsity=per_stage[-1],
        per_stage_sparsity=per_stage,
    )


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))
