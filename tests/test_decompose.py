import numpy as np
import pytest
from scipy.linalg import eigh

from tensorpress.decompose import _fix_signs, reconstruct, svd, truncate
from tensorpress.errors import ConfigError, ShapeError
from tensorpress.tensors import DenseTensor, as_matrix


def random_matrix(m, n, seed):
    return DenseTensor(np.random.default_rng(seed).standard_normal((m, n)))


def test_diagonal_singular_values():
    f = svd(DenseTensor(np.diag([3.0, 2.0])))
    assert list(f.sigma) == pytest.approx([3.0, 2.0])


def test_sigma_is_the_f64_array_svd_returns():
    f = svd(random_matrix(5, 3, 1))
    assert isinstance(f.sigma, np.ndarray)
    assert f.sigma.dtype == np.float64 and f.sigma.shape == (3,)
    assert isinstance(truncate(f, 2).sigma, np.ndarray)


def test_zero_matrix():
    f = svd(DenseTensor(np.zeros((3, 4))))
    assert all(s == 0 for s in f.sigma)


def test_orthonormality_and_reconstruction():
    w = random_matrix(8, 6, 0)
    f = svd(w)
    r = len(f.sigma)
    u = f.u.data.astype(np.float64)
    v = f.v.data.astype(np.float64)
    assert np.abs(u.T @ u - np.eye(r)).max() < 1e-5
    assert np.abs(v.T @ v - np.eye(r)).max() < 1e-5
    recon = reconstruct(f).data
    rel = np.linalg.norm(w.data - recon) / np.linalg.norm(w.data)
    assert rel < 1e-5


def test_sigma_matches_gram_eigenvalue_oracle():
    w = random_matrix(8, 6, 1)
    f = svd(w)
    a = w.data.astype(np.float64)
    eigvals = eigh(a.T @ a, eigvals_only=True)[::-1]
    eigvals = np.clip(eigvals, 0, None)
    sig2 = np.asarray(f.sigma) ** 2
    assert np.allclose(sig2, eigvals[: len(sig2)], rtol=1e-4)


def test_svd_input_validation():
    with pytest.raises(ShapeError):
        svd(DenseTensor(np.ones((2, 2, 2))))
    with pytest.raises(ValueError):
        svd(DenseTensor(np.array([[np.nan, 1.0]], dtype=np.float32)))


def test_truncate_full_rank_identity():
    f = svd(random_matrix(5, 5, 2))
    assert truncate(f, 5) is f


def test_truncate_top_singular_value():
    f = truncate(svd(DenseTensor(np.diag([3.0, 2.0]))), 1)
    assert list(f.sigma) == pytest.approx([3.0])
    assert f.u.shape == (2, 1)
    assert f.v.shape == (2, 1)


def test_truncate_range_errors():
    f = svd(random_matrix(4, 4, 3))
    for bad in (0, 5, -1):
        with pytest.raises(ConfigError):
            truncate(f, bad)


def test_eckart_young_tail():
    w = random_matrix(10, 10, 4)
    f = svd(w)
    a = w.data.astype(np.float64)
    total = float(np.sum(np.asarray(f.sigma) ** 2))
    for r in (1, 4, 7):
        recon = reconstruct(truncate(f, r)).data.astype(np.float64)
        err2 = float(np.sum((a - recon) ** 2))
        tail = float(np.sum(np.asarray(f.sigma[r:]) ** 2))
        assert abs(err2 - tail) < 1e-6 * total


def test_rank1_outer_product_reconstruction():
    from tensorpress.decompose import SvdFactors

    f = SvdFactors(
        u=DenseTensor(np.array([[1.0], [0.0]])),
        sigma=np.array([2.0]),
        v=DenseTensor(np.array([[0.0], [1.0]])),
    )
    assert reconstruct(f).data.tolist() == [[0.0, 2.0], [0.0, 0.0]]


def test_reconstruct_shape_mismatch():
    from tensorpress.decompose import SvdFactors

    f = SvdFactors(
        u=DenseTensor(np.ones((2, 2))),
        sigma=np.array([1.0]),
        v=DenseTensor(np.ones((2, 2))),
    )
    with pytest.raises(ShapeError):
        reconstruct(f)


def test_conv_tensor_round_trip_shape():
    # a conv layer is decomposed as its flattened C_out x (C_in*H*W) matrix,
    # and reconstruct gives that matrix back
    w = DenseTensor(np.random.default_rng(5).standard_normal((4, 3, 2, 2)))
    recon = reconstruct(truncate(svd(DenseTensor(as_matrix(w.data))), 2))
    assert recon.shape == (4, 12)


def test_spectral_bound_power_iteration():
    w = random_matrix(20, 16, 6)
    f = svd(w)
    r = 5
    resid = w.data.astype(np.float64) - reconstruct(truncate(f, r)).data.astype(np.float64)
    # power iteration on resid^T resid estimates the top singular value
    rng = np.random.default_rng(0)
    x = rng.standard_normal(16)
    for _ in range(500):
        x = resid.T @ (resid @ x)
        x /= np.linalg.norm(x)
    top = np.linalg.norm(resid @ x)
    assert top == pytest.approx(f.sigma[r], rel=1e-3)


def test_sign_convention_deterministic():
    w = random_matrix(6, 6, 8)
    f = svd(w)
    for j in range(len(f.sigma)):
        col = f.u.data[:, j]
        nz = np.flatnonzero(col)
        if nz.size:
            assert col[nz[0]] >= 0


def fix_signs_loop(u, v):
    """Column-by-column reference for _fix_signs."""
    u, v = u.copy(), v.copy()
    for j in range(u.shape[1]):
        nz = np.flatnonzero(u[:, j])
        if nz.size and u[nz[0], j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, v


@pytest.mark.parametrize("seed", range(5))
def test_fix_signs_matches_loop(seed):
    rng = np.random.default_rng(seed)
    m, n, r = 7, 5, 12
    u, v = rng.standard_normal((m, r)), rng.standard_normal((n, r))
    u[:3, 0] = 0.0                # leading zeros, then a negative entry
    u[3, 0] = -1.0
    u[:, 1] = 0.0                 # all-zero column: left as it is
    u[:2, 2] = [-0.0, 0.0]        # -0.0 counts as zero
    u[2, 2] = -2.0
    u[:, 3] = [-0.0] * (m - 1) + [3.0]
    u[0, 4], u[0, 5] = -1e-300, 1e-300
    want_u, want_v = fix_signs_loop(u, v)
    got_u, got_v = _fix_signs(u, v)
    assert got_u.tobytes() == want_u.tobytes()
    assert got_v.tobytes() == want_v.tobytes()
    assert got_u[3, 0] == 1.0 and got_u[2, 2] == 2.0 and not got_u[:, 1].any()
