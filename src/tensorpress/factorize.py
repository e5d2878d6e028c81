"""Annealing-style low-rank factorization W ~ W1 @ W2.

Gradient descent on the squared Frobenius reconstruction loss with a
geometrically decaying step size (the annealing schedule) and backtracking:
a step that would increase the loss is retried with the step halved, so
accepted iterates are monotone in loss.

The descent starts from a given factor pair, such as the (U diag(sigma), V^T)
a rank-r SVD stores, or else from uniform random factors drawn from the seed.
It stops once ||W1 @ W2 - W||_F <= 2^-24 ||W||_F, the f32 floor, checked
before the first iteration and after each one: past it the returned f32
factors cannot fit better. By Eckart-Young a truncated SVD's pair already fits
its own rank-r product to the rounding of its f32 entries, so from that start
no iteration runs.

The residual W1 @ W2 - W of the accepted candidate is carried into the next
iteration, so one iteration costs three m x n x r products: the two gradients
and the candidate product (one more for each step halving).

Gradients, candidate factors and residuals are fresh arrays. Only the squares
each loss sums go to a buffer made once per call, which spares a library process
page faults on every candidate (README, Performance). W is converted to float64
once. A call that takes no step from a start of f32 DenseTensors of the fitted
shapes returns those tensors themselves, with the loss it measured at the floor
check as final_loss; any other call forms the final_loss of the f32 factors it
returns in the loop's residual and square buffers, not in new m x n arrays.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError, check_int, check_real
from .tensors import DenseTensor

MAX_HALVINGS = 20
# the f32 unit roundoff: a fit within FLOOR * ||W||_F is as close as f32 factors come
FLOOR = 2.0**-24


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
        raise ShapeError("W, W1 and W2 must be matrices")
    m, n = a.shape
    if b.shape[0] != m or c.shape[1] != n or b.shape[1] != c.shape[0]:
        raise ShapeError(
            f"shapes not conformable: W {a.shape}, W1 {b.shape}, W2 {c.shape}"
        )
    # asarray: a float64 W, as anneal_factorize passes it, is not copied
    return tuple(np.asarray(x, dtype=np.float64) for x in (a, b, c))


def _loss(a, w1, w2, resid, sq) -> float:
    """||w1 @ w2 - a||_F^2 formed in resid and sq, the same bits as
    np.sum((a - w1 @ w2) ** 2)."""
    np.matmul(w1, w2, out=resid)
    resid -= a
    return float(np.sum(np.square(resid, out=sq)))


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


def anneal_factorize(w: DenseTensor, cfg: AnnealConfig, start=None) -> FactorPair:
    """Fit W ~ W1 @ W2 by decaying-step gradient descent from start, a factor
    pair (m x k, k x n) cut or zero-padded to cfg.rank, or, if start is None,
    from random factors drawn from cfg.seed. Stops at the f32 floor, at
    cfg.rel_tol or after cfg.max_iters iterations. Deterministic given its
    arguments.

    A call that takes no step from a start of f32 DenseTensors of shapes
    (m, cfg.rank) and (cfg.rank, n) returns those tensor objects, with the
    loss measured at the floor check as final_loss. Any other call returns
    new f32 factors, whose loss it forms in the loop's residual and square
    buffers."""
    if len(w.shape) != 2:
        raise ShapeError(f"anneal_factorize needs a 2-axis tensor, got {len(w.shape)}")
    m, n = w.shape
    check_rank(cfg.rank, m, n)
    a = w.data.astype(np.float64)
    own = False  # whether start's own tensors are the factors of a no-step return
    if start is not None:  # its leading cfg.rank columns and rows, or all, then zeros
        _, b, c = _as_matrices(a, *start)
        k = min(cfg.rank, b.shape[1])
        w1, w2 = np.zeros((m, cfg.rank)), np.zeros((cfg.rank, n))
        w1[:, :k], w2[:k] = b[:, :k], c[:k]
        own = b.shape[1] == cfg.rank and all(isinstance(x, DenseTensor) for x in start)
    norm = float(np.linalg.norm(a))
    if norm == 0:  # W = 0 is its own fit, which no descent from random factors reaches
        w1, w2 = DenseTensor(np.zeros((m, cfg.rank))), DenseTensor(np.zeros((cfg.rank, n)))
        return FactorPair(w1=w1, w2=w2, final_loss=0.0, loss_trace=[0.0])
    eta0 = cfg.eta0 if cfg.eta0 is not None else 0.5 / norm
    if start is None:
        init_scale = cfg.init_scale if cfg.init_scale is not None else 1.0 / np.sqrt(max(m, n))
        if np.isinf(2.0 * init_scale):  # the initial draw's range overflows, as the loss would
            raise DivergenceError(0)
        rng = np.random.default_rng(cfg.seed)
        w1 = rng.uniform(-init_scale, init_scale, (m, cfg.rank))
        w2 = rng.uniform(-init_scale, init_scale, (cfg.rank, n))
    floor_loss = (FLOOR * norm) ** 2

    # a diverging run overflows to inf or nan, which the loss check below turns
    # into DivergenceError; numpy's warnings on the way there say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        # resid = w1 @ w2 - a is handed on from the accepted candidate
        resid, sq = np.empty((m, n)), np.empty((m, n))
        loss = _loss(a, w1, w2, resid, sq)
        trace = [loss]
        for t in range(cfg.max_iters):
            if loss <= floor_loss:  # before the first iteration and after each one
                break
            eta = eta0 * cfg.decay**t
            g1, g2 = _gradients(resid, w1, w2)
            accepted = False
            for _ in range(MAX_HALVINGS + 1):
                cand1 = w1 - eta * g1
                cand2 = w2 - eta * g2
                cand_resid = np.empty((m, n))
                cand_loss = _loss(a, cand1, cand2, cand_resid, sq)
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
    if own and len(trace) == 1:  # no step: the loss was measured on start's own f32 values
        return FactorPair(w1=start[0], w2=start[1], final_loss=loss, loss_trace=trace)
    out1, out2 = DenseTensor(w1), DenseTensor(w2)
    # final_loss reflects the f32 factors actually returned
    b, c = (np.asarray(x.data, dtype=np.float64) for x in (out1, out2))
    return FactorPair(w1=out1, w2=out2, final_loss=_loss(a, b, c, resid, sq), loss_trace=trace)
