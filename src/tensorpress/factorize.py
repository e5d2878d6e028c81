"""Annealing-style low-rank factorization W ~ W1 @ W2.

Gradient descent on the squared Frobenius reconstruction loss with a
geometrically decaying step size (the annealing schedule) and backtracking:
a step that would increase the loss is retried with the step halved, so
accepted iterates are monotone in loss.

The residual W1 @ W2 - W of the accepted candidate is carried into the next
iteration, so one iteration costs three m x n x r products: the two gradients
and the candidate product (one more for each step halving).

Gradients, candidate factors and residuals are fresh arrays. Only the squares
each loss sums go to a buffer made once per call, which spares a library process
page faults on every candidate (README, Performance).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError, check_int, check_real
from .tensors import DenseTensor

MAX_HALVINGS = 20


@dataclass(frozen=True)
class AnnealConfig:
    rank: int | None = None          # checked only when given; factorize needs it
    init_scale: float | None = None  # default 1/sqrt(max(m, n)) at run time
    eta0: float | None = None        # default 0.5 / ||W||_F at run time
    decay: float = 0.999
    max_iters: int = 2000
    rel_tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.rank is not None:
            check_int("rank", self.rank, 1)
        if self.init_scale is not None:
            check_real("init_scale", self.init_scale, "(0, inf)")
        if self.eta0 is not None:
            check_real("eta0", self.eta0, "(0, inf)")
        check_real("decay", self.decay, "(0, 1]")
        check_int("max_iters", self.max_iters, 1)
        check_real("rel_tol", self.rel_tol, "(0, inf]")
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class FactorPair:
    w1: DenseTensor  # m x r
    w2: DenseTensor  # r x n
    final_loss: float
    loss_trace: list[float] = field(default_factory=list)


def _as_matrices(w, w1, w2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = w.data if isinstance(w, DenseTensor) else np.asarray(w)
    b = w1.data if isinstance(w1, DenseTensor) else np.asarray(w1)
    c = w2.data if isinstance(w2, DenseTensor) else np.asarray(w2)
    if a.ndim != 2 or b.ndim != 2 or c.ndim != 2:
        raise ShapeError("frobenius_loss needs three matrices")
    m, n = a.shape
    if b.shape[0] != m or c.shape[1] != n or b.shape[1] != c.shape[0]:
        raise ShapeError(
            f"shapes not conformable: W {a.shape}, W1 {b.shape}, W2 {c.shape}"
        )
    return (a.astype(np.float64), b.astype(np.float64), c.astype(np.float64))


def frobenius_loss(w, w1, w2) -> float:
    """Squared Frobenius norm of W - W1 @ W2."""
    a, b, c = _as_matrices(w, w1, w2)
    return float(np.sum((a - b @ c) ** 2))


def _gradients(resid, w1, w2) -> tuple[np.ndarray, np.ndarray]:
    """(2 R W2^T, 2 W1^T R) for the residual R = W1 @ W2 - W."""
    # a power-of-two scale is exact: the same bits as (2 * resid) @ w2.T
    g1 = resid @ w2.T
    g1 *= 2.0
    g2 = w1.T @ resid
    g2 *= 2.0
    return g1, g2


def check_rank(rank: int, m: int, n: int, where: str = "") -> None:
    """Raise ConfigError, its message led by where, unless rank is an integer
    >= 1 and a rank-`rank` factor pair fits an m x n matrix."""
    check_int(f"{where}rank", rank, 1)
    if rank > min(m, n):
        raise ConfigError(f"{where}rank {reprlib.repr(rank)} exceeds min(m, n) = {min(m, n)}")


def anneal_factorize(w: DenseTensor, cfg: AnnealConfig) -> FactorPair:
    """Fit W ~ W1 @ W2 by decaying-step gradient descent. Deterministic given seed."""
    if len(w.shape) != 2:
        raise ShapeError(f"anneal_factorize needs a 2-axis tensor, got {len(w.shape)}")
    m, n = w.shape
    check_rank(cfg.rank, m, n)
    a = w.data.astype(np.float64)
    norm = float(np.linalg.norm(a))
    if norm == 0:  # W = 0 is its own fit, which no descent from random factors reaches
        w1, w2 = DenseTensor(np.zeros((m, cfg.rank))), DenseTensor(np.zeros((cfg.rank, n)))
        return FactorPair(w1=w1, w2=w2, final_loss=0.0, loss_trace=[0.0])
    init_scale = cfg.init_scale if cfg.init_scale is not None else 1.0 / np.sqrt(max(m, n))
    eta0 = cfg.eta0 if cfg.eta0 is not None else 0.5 / norm
    if np.isinf(2.0 * init_scale):  # the initial draw's range overflows, as the loss would
        raise DivergenceError(0)

    rng = np.random.default_rng(cfg.seed)
    w1 = rng.uniform(-init_scale, init_scale, (m, cfg.rank))
    w2 = rng.uniform(-init_scale, init_scale, (cfg.rank, n))

    # a diverging run overflows to inf or nan, which the loss check below turns
    # into DivergenceError; numpy's warnings on the way there say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        # resid = w1 @ w2 - a is handed on from the accepted candidate
        resid = w1 @ w2
        resid -= a
        sq = np.empty_like(resid)
        loss = float(np.sum(np.square(resid, out=sq)))
        trace = [loss]
        for t in range(cfg.max_iters):
            eta = eta0 * cfg.decay**t
            g1, g2 = _gradients(resid, w1, w2)
            accepted = False
            for _ in range(MAX_HALVINGS + 1):
                cand1 = w1 - eta * g1
                cand2 = w2 - eta * g2
                cand_resid = cand1 @ cand2
                cand_resid -= a
                cand_loss = float(np.sum(np.square(cand_resid, out=sq)))
                if not np.isfinite(cand_loss):
                    raise DivergenceError(t)
                if cand_loss <= loss:
                    accepted = True
                    break
                eta /= 2.0
            if not accepted:
                break
            improvement = (loss - cand_loss) / loss if loss > 0 else 0.0
            w1, w2, resid, loss = cand1, cand2, cand_resid, cand_loss
            trace.append(loss)
            if improvement < cfg.rel_tol:
                break
    out1, out2 = DenseTensor(w1), DenseTensor(w2)
    # final_loss reflects the f32 factors actually returned
    return FactorPair(
        w1=out1,
        w2=out2,
        final_loss=frobenius_loss(w, out1, out2),
        loss_trace=trace,
    )
