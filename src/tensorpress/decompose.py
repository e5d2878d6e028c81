"""SVD of the flattened weight matrix, rank truncation, and reconstruction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensors import DenseTensor


@dataclass(frozen=True)
class SvdFactors:
    u: DenseTensor      # m x r
    sigma: np.ndarray   # r, non-increasing, >= 0: f64 from svd, f32 as an archive stores it
    v: DenseTensor      # n x r

    @property
    def rank(self) -> int:
        return len(self.sigma)


def svd(w_f: DenseTensor) -> SvdFactors:
    """Full SVD of a 2-axis tensor, rank min(m, n), deterministic sign convention."""
    if len(w_f.shape) != 2:
        raise ShapeError(f"svd needs a 2-axis tensor, got {len(w_f.shape)} axes")
    a = w_f.data.astype(np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("svd input contains non-finite entries")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    v = vt.T
    u, v = _fix_signs(u, v)
    return SvdFactors(u=DenseTensor(u), sigma=s, v=DenseTensor(v))


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negate, in place, each column pair whose u column's first nonzero entry
    is negative; an all-zero column's argmax is its row 0, a zero, so it stays."""
    first = (u != 0).argmax(axis=0)
    flip = u[first, np.arange(u.shape[1])] < 0
    np.negative(u, out=u, where=flip)
    np.negative(v, out=v, where=flip)
    return u, v


def truncate(f: SvdFactors, r: int) -> SvdFactors:
    """Keep the leading r singular triples."""
    if not 1 <= r <= f.rank:
        raise ConfigError(f"rank {r} out of range [1, {f.rank}]")
    if r == f.rank:
        return f
    return SvdFactors(
        u=DenseTensor(f.u.data[:, :r]),
        sigma=f.sigma[:r],
        v=DenseTensor(f.v.data[:, :r]),
    )


def reconstruct(f: SvdFactors) -> DenseTensor:
    """The m x n matrix u @ diag(sigma) @ v.T, rounded to f32."""
    u, v = f.u.data, f.v.data
    if u.shape[1] != len(f.sigma) or v.shape[1] != len(f.sigma):
        raise ShapeError(
            f"inconsistent factors: u {u.shape}, v {v.shape}, {len(f.sigma)} sigmas"
        )
    return DenseTensor((u.astype(np.float64) * f.sigma) @ v.astype(np.float64).T)
