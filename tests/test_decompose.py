import numpy as np
import pytest
from scipy.linalg import eigh

from tensorpress import decompose as dec
from tensorpress.decompose import SvdFactors, _fix_signs, svd
from tensorpress.errors import ConfigError, ShapeError
from tensorpress.tensors import DenseTensor, as_matrix


def random_matrix(m, n, seed):
    return DenseTensor(np.random.default_rng(seed).standard_normal((m, n)))


def product(f: SvdFactors) -> np.ndarray:
    """The m x n matrix (u sigma) v^T of svd's triples, in float64."""
    return (f.u.data.astype(np.float64) * f.sigma) @ f.v.data.astype(np.float64).T


def test_diagonal_singular_values():
    f = svd(DenseTensor(np.diag([3.0, 2.0])))
    assert list(f.sigma) == pytest.approx([3.0, 2.0])


def test_sigma_is_the_f64_array_svd_returns():
    w = random_matrix(5, 3, 1)
    f = svd(w)
    assert isinstance(f.sigma, np.ndarray)
    assert f.sigma.dtype == np.float64 and f.sigma.shape == (3,)
    assert isinstance(svd(w, 2).sigma, np.ndarray)


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
    recon = product(f)
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


def test_truncate_top_singular_value():
    f = svd(DenseTensor(np.diag([3.0, 2.0])), 1)
    assert list(f.sigma) == pytest.approx([3.0])
    assert f.u.shape == (2, 1)
    assert f.v.shape == (2, 1)


def test_eckart_young_tail():
    w = random_matrix(10, 10, 4)
    f = svd(w)
    a = w.data.astype(np.float64)
    total = float(np.sum(np.asarray(f.sigma) ** 2))
    for r in (1, 4, 7):
        err2 = float(np.sum((a - product(svd(w, r))) ** 2))
        tail = float(np.sum(np.asarray(f.sigma[r:]) ** 2))
        assert abs(err2 - tail) < 1e-6 * total


def test_conv_tensor_round_trip_shape():
    # a conv layer is decomposed as its flattened C_out x (C_in*H*W) matrix,
    # and its triples multiply back to that matrix
    w = DenseTensor(np.random.default_rng(5).standard_normal((4, 3, 2, 2)))
    assert product(svd(DenseTensor(as_matrix(w.data)), 2)).shape == (4, 12)


def test_spectral_bound_power_iteration():
    w = random_matrix(20, 16, 6)
    r = 5
    resid = w.data.astype(np.float64) - product(svd(w, r))
    # power iteration on resid^T resid estimates the top singular value
    rng = np.random.default_rng(0)
    x = rng.standard_normal(16)
    for _ in range(500):
        x = resid.T @ (resid @ x)
        x /= np.linalg.norm(x)
    top = np.linalg.norm(resid @ x)
    assert top == pytest.approx(svd(w).sigma[r], rel=1e-3)


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


# svd against LAPACK's full SVD as an independent oracle. u and v are f32; the
# side svd computes as a^T u (a v for a tall a) is orthonormal over the columns
# whose sigma the float64 Gram matrix resolves, above sqrt(eps64) sigma_1
RESOLVED = 1.5e-8
SHAPES = {"square": (24, 24), "tall": (30, 9), "wide": (7, 26), "conv": (6, 2, 3, 3)}


def check_against_oracle(a, f, r):
    a = a.astype(np.float64)
    m, n = a.shape
    s = np.linalg.svd(a, compute_uv=False)
    top = s[0]
    assert f.rank == r and f.u.shape == (m, r) and f.v.shape == (n, r)
    assert f.sigma.dtype == np.float64
    assert np.abs(f.sigma - s[:r]).max() <= 1e-10 * top
    assert np.all(f.sigma >= 0) and np.all(np.diff(f.sigma) <= 0)
    u, v = f.u.data.astype(np.float64), f.v.data.astype(np.float64)
    assert np.isfinite(u).all() and np.isfinite(v).all()
    resolved = f.sigma > RESOLVED * top
    for side in (u, v):
        cols = side[:, resolved]
        assert np.abs(cols.T @ cols - np.eye(cols.shape[1])).max(initial=0) < 1e-5
    # the eigenvector side is orthonormal in every column
    eig = v if m > n else u
    assert np.abs(eig.T @ eig - np.eye(r)).max() < 1e-5
    for j in range(r):  # sign convention: u's first nonzero entry is positive
        nz = np.flatnonzero(u[:, j])
        assert nz.size == 0 or u[nz[0], j] > 0


@pytest.mark.parametrize("rank", ["below", "equal", None])
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_svd_matches_lapack_oracle(shape, rank):
    w = DenseTensor(as_matrix(np.random.default_rng(11).standard_normal(shape)))
    k = min(w.shape)
    r = {"below": k // 3, "equal": k, None: None}[rank]
    f = svd(w, r)
    check_against_oracle(w.data, f, r or k)
    # the leading r triples are those of the full set
    full = svd(w)
    np.testing.assert_allclose(f.sigma, full.sigma[: f.rank], rtol=1e-12)
    np.testing.assert_allclose(f.u.data, full.u.data[:, : f.rank], atol=1e-6)
    np.testing.assert_allclose(f.v.data, full.v.data[:, : f.rank], atol=1e-6)


@pytest.mark.parametrize("shape", [(12, 9), (9, 12)], ids=["tall", "wide"])
def test_svd_exactly_low_rank_input_past_its_rank(shape):
    # integer factors make the rank-3 product exact in f32
    rng = np.random.default_rng(12)
    a = rng.integers(-3, 4, (shape[0], 3)) @ rng.integers(-3, 4, (3, shape[1]))
    w = DenseTensor(a)
    f = svd(w, 5)
    check_against_oracle(w.data, f, 5)
    assert np.count_nonzero(f.sigma > RESOLVED * f.sigma[0]) == 3
    assert np.abs(product(f) - a).max() <= 1e-5 * np.abs(a).max()


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3, 3)])
def test_svd_zero_matrix_gives_zero_columns(shape):
    w = DenseTensor(np.zeros(shape))
    f = svd(w, 2)
    assert f.sigma.tolist() == [0.0, 0.0]
    # the side computed from a^T u (a v) is zero, never NaN; the other is orthonormal
    computed, eig = (f.u, f.v) if shape[0] > shape[1] else (f.v, f.u)
    assert not computed.data.any()
    assert np.abs(eig.data.T @ eig.data - np.eye(2)).max() < 1e-5
    assert not product(f).any()


@pytest.mark.parametrize("r", [4, 20, 35, 40])
def test_svd_ill_conditioned_error_within_f32_floor_of_optimal(r):
    # sigma_i from 1 down to 1e-12: below sqrt(eps64) sigma_1 the Gram matrix
    # resolves no single triple, and the column norms there come out of order,
    # yet sigma is sorted and the product u u^T a stays within the f32 floor
    # of the optimal tail
    rng = np.random.default_rng(13)
    q1, _ = np.linalg.qr(rng.standard_normal((48, 40)))
    q2, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    w = DenseTensor((q1 * np.logspace(0, -12, 40)) @ q2.T)
    a = w.data.astype(np.float64)
    s = np.linalg.svd(a, compute_uv=False)
    f = svd(w, r)
    assert np.all(f.sigma >= 0) and np.all(np.diff(f.sigma) <= 0)
    err = np.linalg.norm(a - product(f))
    tail = np.sqrt(np.sum(s[r:] ** 2))
    assert err <= tail + 2.0**-24 * np.linalg.norm(a)


def test_svd_rank_out_of_range():
    # factorize.check_rank's rule: an integer other than a bool, 1 <= rank <= min(m, n)
    w = random_matrix(4, 6, 14)
    for bad, message in [(0, r"rank must be >= 1, got 0"), (-1, r"rank must be >= 1, got -1"),
                         (5, r"rank 5 exceeds min\(m, n\) = 4"),
                         (True, "rank must be an integer, got True"),
                         (2.0, r"rank must be an integer, got 2\.0")]:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            svd(w, bad)
    got, want = svd(w, np.int64(2)), svd(w, 2)
    assert got.rank == 2 and got.sigma.tobytes() == want.sigma.tobytes()


# svd's eigensolve has two routes: LAPACK's dsyevr from numpy's own LAPACK,
# building only the r leading eigenvectors, and, where numpy links no known
# dsyevr, np.linalg.eigh's full set
@pytest.fixture(params=["dsyevr", "eigh"])
def route(request, monkeypatch):
    if request.param == "eigh":
        monkeypatch.setattr(dec, "_dsyevr", lambda: None)
    elif dec._dsyevr() is None:
        pytest.skip("numpy's LAPACK exports no known dsyevr")
    return request.param


def route_cases():
    """(name, matrix, r): tall, wide and square at r = 1, k // 3 and k (dsyevr's
    all-eigenvalues branch at IL = 1, IU = k), the zero matrix, and an exactly
    rank-3 input asked for 5."""
    rng = np.random.default_rng(15)
    for shape in [(30, 9), (7, 26), (24, 24)]:
        a = rng.standard_normal(shape)
        k = min(shape)
        for r in sorted({1, k // 3, k}):
            yield f"{shape[0]}x{shape[1]}-r{r}", a, r
    yield "zero", np.zeros((6, 8)), 3
    yield "rank3", (rng.integers(-3, 4, (12, 3)) @ rng.integers(-3, 4, (3, 9))).astype(float), 5


ROUTE_CASES = list(route_cases())


@pytest.mark.parametrize("a,r", [c[1:] for c in ROUTE_CASES], ids=[c[0] for c in ROUTE_CASES])
def test_svd_routes_match_oracle_and_eckart_young(route, a, r):
    w = DenseTensor(a)
    f = svd(w, r)
    check_against_oracle(w.data, f, r)
    # the rank-r fit's error is the optimal tail, at criterion 4's tolerance
    x = w.data.astype(np.float64)
    s = np.linalg.svd(x, compute_uv=False)
    err2 = float(np.sum((x - product(f)) ** 2))
    assert abs(err2 - float(np.sum(s[r:] ** 2))) <= 1e-6 * max(float(np.sum(s**2)), 1e-12)


@pytest.mark.parametrize("shape,r", [((64, 40), 7), ((20, 90), 20), ((48, 48), 48)])
def test_svd_routes_store_the_same_f32_pair(shape, r, monkeypatch):
    # decompose stores (u diag(sigma), v^T) in f32: both routes give that pair
    # to 1e-6 relative
    if dec._dsyevr() is None:
        pytest.skip("numpy's LAPACK exports no known dsyevr")
    w = random_matrix(*shape, 16)

    def stored():
        f = svd(w, r)
        return DenseTensor(f.u.data * f.sigma).data, f.v.data.T

    fast = stored()
    monkeypatch.setattr(dec, "_dsyevr", lambda: None)
    for x, y in zip(fast, stored()):
        assert np.linalg.norm(x - y) <= 1e-6 * np.linalg.norm(y)


def test_numpy_openblas_takes_the_dsyevr_route():
    # numpy's PyPI wheels link scipy-openblas, which exports LAPACKE's dsyevr:
    # there svd must not drop to the eigh fallback unnoticed
    lapack = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("lapack", {})
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {lapack.get('name')!r}, not scipy-openblas")
    assert dec._dsyevr() is not None


def test_dsyevr_failure_raises(monkeypatch):
    # a nonzero info from LAPACK is an error, never eigenvectors left unwritten
    monkeypatch.setattr(dec, "_dsyevr", lambda: lambda *args: 1)
    with pytest.raises(np.linalg.LinAlgError, match=r"0 of 2 eigenvectors \(info 1\)"):
        svd(random_matrix(5, 4, 17), 2)
