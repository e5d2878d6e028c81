"""Leading singular triples of the flattened weight matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensors import DenseTensor


@dataclass(frozen=True)
class SvdFactors:
    u: DenseTensor      # m x r
    sigma: np.ndarray   # r, non-increasing, >= 0: f64 from svd
    v: DenseTensor      # n x r

    @property
    def rank(self) -> int:
        return len(self.sigma)


def svd(w_f: DenseTensor, rank: int | None = None) -> SvdFactors:
    """The leading `rank` singular triples of a 2-axis tensor, all min(m, n)
    of them if rank is None, with a deterministic sign convention.

    They come from an exact eigensolve of the float64 Gram matrix of the
    shorter side, a a^T (a^T a for a tall a), whose top-`rank` eigenvectors
    are u (v for a tall a). The other side is a^T u (a v): its column norms are
    sigma, and its columns scaled to unit norm are v (u), a zero column where
    sigma is 0. So u diag(sigma) v^T is u u^T a, the projection of a onto the
    leading subspace, whose error is never below Eckart-Young's. Float64
    squares of f32 weights resolve sigma down to about 1.5e-8 sigma_1, below
    the f32 rounding of the stored factors."""
    if len(w_f.shape) != 2:
        raise ShapeError(f"svd needs a 2-axis tensor, got {len(w_f.shape)} axes")
    a = w_f.data.astype(np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("svd input contains non-finite entries")
    k = min(a.shape)
    r = k if rank is None else rank
    if not 1 <= r <= k:
        raise ConfigError(f"rank {r} out of range [1, {k}]")
    tall = a.shape[0] > a.shape[1]
    short = a.T if tall else a  # k x max(m, n)
    _, vecs = np.linalg.eigh(short @ short.T)  # eigenvalues ascending
    x = vecs[:, ::-1][:, :r]
    y = short.T @ x
    sigma = np.linalg.norm(y, axis=0)
    y = np.divide(y, sigma, out=np.zeros_like(y), where=sigma > 0)
    order = np.argsort(-sigma, kind="stable")  # norms of near-equal eigenvalues may swap
    x, y, sigma = x[:, order], y[:, order], sigma[order]
    u, v = _fix_signs(*((y, x) if tall else (x, y)))
    return SvdFactors(u=DenseTensor(u), sigma=sigma, v=DenseTensor(v))


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negate, in place, each column pair whose u column's first nonzero entry
    is negative; an all-zero column's argmax is its row 0, a zero, so it stays."""
    first = (u != 0).argmax(axis=0)
    flip = u[first, np.arange(u.shape[1])] < 0
    np.negative(u, out=u, where=flip)
    np.negative(v, out=v, where=flip)
    return u, v

