"""Leading singular triples of the flattened weight matrix."""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .factorize import check_rank
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
    shorter side, a a^T (a^T a for a tall a), that builds its top-`rank`
    eigenvectors alone (LAPACK's dsyevr, in numpy's own LAPACK): they are u
    (v for a tall a). The other side is a^T u (a v): its column norms are
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
    r = min(a.shape) if rank is None else rank
    check_rank(r, *a.shape)
    tall = a.shape[0] > a.shape[1]
    short = a.T if tall else a  # k x max(m, n)
    x = _leading_eigenvectors(short, r)
    y = short.T @ x
    sigma = np.linalg.norm(y, axis=0)
    y = np.divide(y, sigma, out=np.zeros_like(y), where=sigma > 0)
    order = np.argsort(-sigma, kind="stable")  # norms of near-equal eigenvalues may swap
    x, y, sigma = x[:, order], y[:, order], sigma[order]
    u, v = _fix_signs(*((y, x) if tall else (x, y)))
    return SvdFactors(u=DenseTensor(u), sigma=sigma, v=DenseTensor(v))


def linked_symbol(name: str):
    """The C function `name` of the BLAS/LAPACK library numpy.linalg is linked
    to, or None where numpy's linalg module cannot be opened or that library
    has no such symbol. Every ctypes lookup goes through here, so svd's dsyevr
    and pipeline's openblas_set_num_threads_local come from the same
    OpenBLAS, and the pool's one-thread cap covers the eigensolve too."""
    try:
        from numpy.linalg import _umath_linalg

        return getattr(ctypes.CDLL(_umath_linalg.__file__), name)
    except (ImportError, OSError, AttributeError):
        return None


@functools.cache
def _dsyevr():
    """LAPACKE_dsyevr of numpy's PyPI wheels (scipy-openblas64, 64-bit ints),
    typed, or None where numpy links another LAPACK (MKL, Accelerate, a
    32-bit-int OpenBLAS) and svd takes np.linalg.eigh's full set instead."""
    f = linked_symbol("scipy_LAPACKE_dsyevr64_")
    if f is None:
        return None
    i64, ptr, char, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char, ctypes.c_double
    f.argtypes = [ctypes.c_int, char, char, char, i64, ptr, i64, dbl, dbl, i64, i64, dbl,
                  ptr, ptr, ptr, i64, ptr]
    f.restype = i64
    return f


LAPACK_COL_MAJOR = 102  # LAPACKE's matrix_layout for Fortran-order arrays


def _leading_eigenvectors(short: np.ndarray, r: int) -> np.ndarray:
    """The k x r eigenvectors of the r largest eigenvalues of the float64 Gram
    matrix short short^T of a k x n float64 short, as columns, largest first.

    They come from LAPACK's dsyevr with RANGE='I' (IL = k - r + 1, IU = k),
    which builds only those r, called through ctypes, so the GIL is released
    and layers on the pool's threads solve at once. Where numpy's LAPACK has
    no known dsyevr, np.linalg.eigh builds all k and r are kept."""
    g = short @ short.T  # C-contiguous and symmetric, so its own column-major form
    k = len(g)
    dsyevr = _dsyevr()
    if dsyevr is None:
        return np.linalg.eigh(g)[1][:, ::-1][:, :r]  # eigenvalues ascending
    found = np.zeros(1, dtype=np.int64)
    values = np.empty(k)
    z = np.empty((r, k))  # column-major k x r: row j is eigenvector j
    support = np.empty(2 * r, dtype=np.int64)
    info = dsyevr(LAPACK_COL_MAJOR, b"V", b"I", b"L", k, g.ctypes.data, k, 0.0, 0.0,
                  k - r + 1, k, 0.0, found.ctypes.data, values.ctypes.data,
                  z.ctypes.data, k, support.ctypes.data)
    if info or found[0] != r:
        raise np.linalg.LinAlgError(
            f"dsyevr returned {found[0]} of {r} eigenvectors (info {info})")
    return z[::-1].T  # eigenvalues ascending


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negate, in place, each column pair whose u column's first nonzero entry
    is negative; an all-zero column's argmax is its row 0, a zero, so it stays."""
    first = (u != 0).argmax(axis=0)
    flip = u[first, np.arange(u.shape[1])] < 0
    np.negative(u, out=u, where=flip)
    np.negative(v, out=v, where=flip)
    return u, v

