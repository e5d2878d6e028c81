"""Annealing-style low-rank factorization W ~ W1 @ W2.

Gradient descent on the squared Frobenius reconstruction loss with a
geometrically decaying step size (the annealing schedule) and backtracking:
a step that would increase the loss is retried with the step halved, so
accepted iterates are monotone in loss.

The residual W1 @ W2 - W of the accepted candidate is carried into the next
iteration, so one iteration costs three m x n x r products: the two gradients
and the candidate product (one more for each step halving). The loop allocates
nothing per iteration: residuals, gradients and candidate factors live in
buffers made once per call, which each product and update writes with out=.
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
    rank: int
    init_scale: float | None = None  # default 1/sqrt(max(m, n)) at run time
    eta0: float | None = None        # default 0.5 / ||W||_F at run time
    decay: float = 0.999
    max_iters: int = 2000
    rel_tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
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


def _gradients(resid, w1, w2, g1, g2) -> tuple[np.ndarray, np.ndarray]:
    """(2 R W2^T, 2 W1^T R) for the residual R = W1 @ W2 - W, written into g1
    and g2, which are returned."""
    # a power-of-two scale is exact: the same bits as (2 * resid) @ w2.T
    np.matmul(resid, w2.T, out=g1)
    g1 *= 2.0
    np.matmul(w1.T, resid, out=g2)
    g2 *= 2.0
    return g1, g2


def check_rank(rank: int, m: int, n: int, where: str = "") -> None:
    """Raise ConfigError, its message led by where, unless a rank-`rank` factor
    pair fits an m x n matrix."""
    if rank > min(m, n):
        raise ConfigError(f"{where}rank {reprlib.repr(rank)} exceeds min(m, n) = {min(m, n)}")


def compressed_matrix(f: FactorPair) -> DenseTensor:
    """The replacement matrix W_c = W1 @ W2."""
    return DenseTensor(f.w1.data.astype(np.float64) @ f.w2.data.astype(np.float64))


def anneal_factorize(w: DenseTensor, cfg: AnnealConfig) -> FactorPair:
    """Fit W ~ W1 @ W2 by decaying-step gradient descent. Deterministic given seed."""
    if len(w.shape) != 2:
        raise ShapeError(f"anneal_factorize needs a 2-axis tensor, got {len(w.shape)}")
    m, n = w.shape
    check_rank(cfg.rank, m, n)
    a = w.data.astype(np.float64)
    norm = float(np.linalg.norm(a))
    init_scale = cfg.init_scale if cfg.init_scale is not None else 1.0 / np.sqrt(max(m, n))
    eta0 = cfg.eta0 if cfg.eta0 is not None else (0.5 / norm if norm > 0 else 0.5)

    rng = np.random.default_rng(cfg.seed)
    w1 = rng.uniform(-init_scale, init_scale, (m, cfg.rank))
    w2 = rng.uniform(-init_scale, init_scale, (cfg.rank, n))

    # resid = w1 @ w2 - a is handed on from the accepted candidate; the
    # candidate residual and its squares go to the reused buffers spare and sq,
    # the gradients to g1, g2 and the candidate factors to cand1, cand2, which
    # trade places with w1, w2 on acceptance.
    resid = w1 @ w2
    resid -= a
    spare = np.empty_like(resid)
    sq = np.empty_like(resid)
    g1, cand1 = np.empty_like(w1), np.empty_like(w1)
    g2, cand2 = np.empty_like(w2), np.empty_like(w2)
    loss = float(np.sum(np.square(resid, out=sq)))
    trace = [loss]
    for t in range(cfg.max_iters):
        eta = eta0 * cfg.decay**t
        _gradients(resid, w1, w2, g1, g2)
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            # w - eta * g, in the buffer the product eta * g fills
            np.subtract(w1, np.multiply(eta, g1, out=cand1), out=cand1)
            np.subtract(w2, np.multiply(eta, g2, out=cand2), out=cand2)
            cand_resid = np.matmul(cand1, cand2, out=spare)
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
        w1, cand1, w2, cand2, loss = cand1, w1, cand2, w2, cand_loss
        resid, spare = cand_resid, resid
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
