"""The shared P1 Gauss-point kernel and the damped Newton method.

What is verified:
  1. At eps = 0 the smoothed dissipation is the plain dissipation, bit for
     bit, and for eps > 0 it matches a direct per-point evaluation.
  2. Gradient and tridiagonal Hessian agree with central differences of the
     value and of the gradient at lam in {0.01, 1, 10} and eps in {1e-1,
     1e-6}; lam = 10 is where (k - g g') / R cancels most.
  3. The value-only path returns the same f, bit for bit, as the path that
     goes on to form the derivatives, and forming them leaves it unchanged.
  4. The Newton method forms derivatives only at accepted iterates: line
     search trial points cost one evaluate() each.  A start already on the
     merit's roundoff floor returns after that one evaluation.  A step
     whose linear solve breaks down, or meets a non-finite system, raises
     SolverError carrying the current measure, not the solve's
     LinAlgError or ValueError.
  5. The general tridiagonal solve gives scipy.linalg.solve_banded's bits,
     pivoting included, and rejects non-finite systems.
  6. The shared Gauss(3) rule equals both spellings of the rule mapped to
     [0, 1], 0.5 (x + 1) and (x + 1) / 2, is the package generator's
     gauss_legendre(3) and refuses writes.
  7. The fixed-sum Newton step is the dense null-space Newton step, keeps
     the sum, and a single unknown is already stationary; the SPD banded
     solve handles tridiagonal, pentadiagonal and 1x1 systems.
  8. The banded solves call the LAPACK numpy loads, and give scipy's ptsv
     and pbsv bits: n = 1, 2 and 513, a pentadiagonal _constrained_newton
     system, and the diagonal lift after a failed first factorization.  A
     non-finite right-hand side raises ValueError, a singular general
     tridiagonal system numpy.linalg.LinAlgError.  Threads solving at the
     same size do not share argument blocks.
  9. Where numpy exports no LAPACK symbol, the solves go through scipy's
     wrappers, with the same bits.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stripshear import Field, SolverError, _p1, dissipation, make_mesh
from stripshear._p1 import (
    GAUSS3_POINTS,
    GAUSS3_WEIGHTS,
    SmoothedDissipation,
    _constrained_newton,
    convex_newton,
    damped_newton,
    gauss_legendre,
    mass_vector,
    solve_banded_spd,
    solve_tridiagonal,
)

N_CELLS = 16


def _field(mesh, with_zero_patch):
    r = mesh.nodes
    d = np.sin(3.0 * math.pi * r + 0.4) + 0.3 * np.cos(5.0 * r)
    if with_zero_patch:
        d[5:9] = 0.0
    return d


def _direct_value(d, mesh, lam, eps):
    """Per-point loop over cells and Gauss points, the definition itself."""
    total = 0.0
    for i in range(mesh.n_cells):
        a, b = d[i], d[i + 1]
        ls = lam * (b - a) / mesh.dr
        for t, w in zip(GAUSS3_POINTS, GAUSS3_WEIGHTS):
            u = a + t * (b - a)
            total += w * (math.sqrt(u * u + ls * ls + eps * eps) - eps)
    return mesh.dr * total


@pytest.mark.parametrize("lam", [0.0, 0.01, 1.0, 10.0])
def test_zero_smoothing_is_the_dissipation(lam):
    mesh = make_mesh(N_CELLS)
    rng = np.random.default_rng(3)
    psi = SmoothedDissipation(mesh, lam)
    for d in (_field(mesh, True), rng.standard_normal(N_CELLS + 1)):
        assert psi.value(d, 0.0) == dissipation(Field(mesh, d), lam)


@pytest.mark.parametrize("lam", [0.01, 1.0, 10.0])
@pytest.mark.parametrize("eps", [1e-1, 1e-6])
def test_value_matches_direct_evaluation(lam, eps):
    mesh = make_mesh(N_CELLS)
    d = _field(mesh, eps > 1e-3)
    value = SmoothedDissipation(mesh, lam).value(d, eps)
    assert abs(value - _direct_value(d, mesh, lam, eps)) <= 1e-13 * max(1.0, value)


def _dense(banded):
    H = np.diag(banded[1])
    H += np.diag(banded[0, 1:], 1) + np.diag(banded[0, 1:], -1)
    return H


@pytest.mark.parametrize("lam", [0.01, 1.0, 10.0])
@pytest.mark.parametrize("eps", [1e-1, 1e-6])
def test_derivatives_match_central_differences(lam, eps):
    # the zero patch puts Gauss points in the eps-dominated corner; at
    # eps = 1e-6 that corner is far narrower than any usable step, so the
    # field stays away from it there
    mesh = make_mesh(N_CELLS)
    psi = SmoothedDissipation(mesh, lam)
    d = _field(mesh, eps > 1e-3)
    g, banded = psi.grad_hess(psi.radius(d, eps))
    H = _dense(banded)

    def central(h):
        g_fd = np.empty_like(d)
        H_fd = np.empty((d.size, d.size))
        for j in range(d.size):
            e_j = np.zeros_like(d)
            e_j[j] = h
            g_fd[j] = (psi.value(d + e_j, eps) - psi.value(d - e_j, eps)) / (2 * h)
            gp = psi.grad_hess(psi.radius(d + e_j, eps))[0]
            gm = psi.grad_hess(psi.radius(d - e_j, eps))[0]
            H_fd[:, j] = (gp - gm) / (2 * h)
        return g_fd, H_fd

    # Richardson-extrapolated central differences: at lam = 10 the slope
    # factor lam / dr = 80 makes the plain O(h^2) error dominate
    (g1, H1), (g2, H2) = central(2e-5), central(1e-5)
    g_fd = (4.0 * g2 - g1) / 3.0
    H_fd = (4.0 * H2 - H1) / 3.0

    assert np.max(np.abs(g - g_fd)) <= 1e-8 * np.max(np.abs(g))
    # per row, against its largest entry: the roundoff of the differenced
    # gradient (entries up to lam / dr) sets the floor in the small rows;
    # off the band both vanish, the Hessian is tridiagonal
    scale = np.max(np.abs(H), axis=1, keepdims=True)
    assert np.max(np.abs(H - H_fd) / scale) <= 1e-6


@pytest.mark.parametrize("lam", [0.01, 1.0, 10.0])
def test_value_only_path_is_bit_identical(lam):
    mesh = make_mesh(64)
    psi = SmoothedDissipation(mesh, lam)
    d = np.random.default_rng(7).standard_normal(65)
    d[20:30] = 0.0
    for eps in (1e-1, 1e-6, 1e-11):
        f_value_only = psi.value(d, eps)
        rad = psi.radius(d, eps)
        f_full = psi.total(rad)
        psi.grad_hess(rad)
        assert f_value_only == f_full
        assert psi.total(rad) == f_full  # derivatives leave the state intact


def test_newton_forms_derivatives_only_at_accepted_iterates():
    # a strictly convex objective with a stiff smoothed dissipation term,
    # started far enough out that the first Newton steps get damped
    mesh = make_mesh(32)
    psi = SmoothedDissipation(mesh, 1.0)
    m = mass_vector(mesh)
    eps, mu = 1e-3, 1.5
    evaluated, differentiated = [], []

    def evaluate(x):
        rad = psi.radius(x, eps)
        f = psi.total(rad) + 0.5 * float(x @ x) - mu * float(m @ x)
        evaluated.append(x)
        return f, (x, rad)

    def derivatives(state):
        x, rad = state
        differentiated.append(x)
        g, H = psi.grad_hess(rad)
        g += x - mu * m
        H[1] += 1.0
        fscale = psi.total(rad) + 0.5 * float(x @ x) + mu * float(m @ np.abs(x))
        return convex_newton(g, H, fscale)

    x0 = np.full(33, 40.0)
    x, gnorm = damped_newton(x0, evaluate, derivatives, 1e-9, 100)
    assert gnorm <= 1e-9
    assert len(evaluated) > len(differentiated)  # some trials were rejected
    # every derivative call reuses the state of an evaluated point, once
    # per accepted iterate
    assert differentiated[0] is evaluated[0]
    assert all(any(x_d is x_e for x_e in evaluated) for x_d in differentiated)
    assert len(differentiated) == len({id(x_d) for x_d in differentiated})


def test_newton_returns_at_once_on_the_roundoff_floor():
    # the Newton decrement of the start is below the merit's floor, though
    # the measure is far above tol: no representable step can do better
    evaluated, solved = [], []

    def evaluate(x):
        evaluated.append(x)
        return 1.0, x

    def derivatives(x):
        def newton_step():
            solved.append(x)
            return np.full_like(x, -1e-20), -1e-20, 1e-16

        return 1.0, newton_step

    x0 = np.ones(5)
    x, measure = damped_newton(x0, evaluate, derivatives, 1e-9, 100)
    assert x is x0 and measure == 1.0
    assert len(evaluated) == 1 and len(solved) == 1


def test_newton_turns_a_failed_step_solve_into_a_solver_error():
    def evaluate(x):
        return 1.0, x

    def derivatives(x):
        def newton_step():
            off = np.zeros(x.size - 1)
            solve_tridiagonal(off, np.zeros(x.size), off, np.ones(x.size))  # singular

        return 0.25, newton_step

    with pytest.raises(SolverError, match="singular") as info:
        damped_newton(np.ones(4), evaluate, derivatives, 1e-9, 100)
    assert info.value.residual == 0.25
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def non_finite(x):
        def newton_step():
            off = np.full(x.size - 1, math.nan)
            solve_tridiagonal(off, np.full(x.size, math.nan), off, np.ones(x.size))

        return 0.5, newton_step

    with pytest.raises(SolverError, match="infs or NaNs") as info:
        damped_newton(np.ones(4), evaluate, non_finite, 1e-9, 100)
    assert info.value.residual == 0.5
    assert type(info.value.__cause__) is ValueError


def _diagonals(ab):
    """(sub, diag, sup) of a matrix in scipy's solve_banded((1, 1)) layout."""
    return ab[2, :-1], ab[1], ab[0, 1:]


def test_tridiagonal_solve_matches_scipy_bit_for_bit():
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(3)
    for _ in range(20):
        ab = rng.standard_normal((3, 33))
        ab[2] *= 3.0  # subdiagonal often larger than the diagonal: pivoting
        rhs = rng.standard_normal(33)
        x = solve_tridiagonal(*_diagonals(ab), rhs)
        assert x.tobytes() == solve_banded((1, 1), ab, rhs).tobytes()
    ab[1, 5] = math.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_tridiagonal(*_diagonals(ab), rhs)


def test_gauss3_is_the_shared_rule():
    x, w = np.polynomial.legendre.leggauss(3)
    assert np.array_equal(GAUSS3_POINTS, (x + 1.0) / 2.0)
    assert np.array_equal(GAUSS3_POINTS, 0.5 * (x + 1.0))
    assert np.array_equal(GAUSS3_WEIGHTS, w / 2.0)
    assert GAUSS3_POINTS is gauss_legendre(3)[0]
    assert GAUSS3_WEIGHTS is gauss_legendre(3)[1]
    for arr in gauss_legendre(3) + gauss_legendre(256):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def _dense_upper_banded(ab):
    """Symmetric dense matrix of an upper banded array (solveh_banded layout)."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    A = np.zeros((n, n))
    for k in range(kd + 1):
        for j in range(kd - k, n):
            A[j - (kd - k), j] = A[j, j - (kd - k)] = ab[k, j]
    return A


@pytest.mark.parametrize("rows, n", [(2, 17), (3, 17), (2, 1), (3, 1)])
def test_spd_banded_solve(rows, n):
    rng = np.random.default_rng(rows * 100 + n)
    ab = rng.uniform(-1.0, 1.0, (rows, n))
    ab[-1] = 2.0 * rows + rng.uniform(0.0, 1.0, n)  # diagonally dominant
    rhs = rng.standard_normal(n)
    x = solve_banded_spd(ab, rhs)
    assert np.allclose(_dense_upper_banded(ab) @ x, rhs, rtol=0.0, atol=1e-13)


def test_constrained_newton_step_is_the_null_space_step():
    rng = np.random.default_rng(11)
    n = 9
    H = np.empty((2, n))
    H[1] = rng.uniform(2.0, 3.0, n)
    H[0] = rng.uniform(-0.9, 0.9, n)
    g = rng.standard_normal(n)
    measure, newton_step = _constrained_newton(g, H, 1.0)
    step, slope, floor = newton_step()

    Z = np.eye(n)[:, :-1] - np.eye(n)[:, 1:]  # z_j = e_j - e_{j+1}
    Hd = _dense_upper_banded(H)
    expected = Z @ np.linalg.solve(Z.T @ Hd @ Z, -Z.T @ g)
    assert measure == float(np.max(np.abs(Z.T @ g)))
    assert np.allclose(step, expected, rtol=0.0, atol=1e-12)
    assert abs(step.sum()) <= 1e-13
    assert slope == pytest.approx(float(g @ step), rel=1e-12) and slope < 0.0
    assert floor == 1e-15


def test_constrained_newton_single_unknown_is_stationary():
    measure, _ = _constrained_newton(np.array([3.0]), np.array([[0.0], [2.0]]), 1.0)
    assert measure == 0.0


# ------------------------------------------------- LAPACK, scipy as the oracle


def _scipy_lapack():
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("ptsv", "gtsv", "pbsv"), (np.empty(1),))


def _scipy_spd_solve(ab, rhs):
    """scipy's solve of an upper banded SPD system: (x, info)."""
    ptsv, _, pbsv = _scipy_lapack()
    if ab.shape[0] == 2 and rhs.size > 1:
        return ptsv(ab[1], ab[0, 1:], rhs)[2:]
    return pbsv(ab, rhs)[1:]


def _spd_tridiagonal(rng, n):
    ab = np.empty((2, n))
    ab[0] = rng.uniform(-1.0, 1.0, n)
    ab[0, 0] = 0.0
    ab[1] = rng.uniform(2.0, 3.0, n)  # diagonally dominant
    return ab


def test_solves_use_numpys_lapack():
    assert _p1._numpy_lapack() is not None
    assert _p1.LinAlgError is np.linalg.LinAlgError


@pytest.mark.parametrize("n", [1, 2, 513])
def test_spd_solve_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        ab = _spd_tridiagonal(rng, n)
        rhs = rng.standard_normal(n)
        x, info = _scipy_spd_solve(ab, rhs)
        assert info == 0
        assert solve_banded_spd(ab, rhs).tobytes() == x.tobytes()


def test_pentadiagonal_solve_matches_scipy_bit_for_bit(monkeypatch):
    # the reduced Hessian _constrained_newton forms, as it passes it on
    systems = []
    solve = _p1.solve_banded_spd

    def record(S, rhs):
        x = solve(S, rhs)
        systems.append((S.copy(), rhs.copy(), x))
        return x

    monkeypatch.setattr(_p1, "solve_banded_spd", record)
    rng = np.random.default_rng(17)
    H = _spd_tridiagonal(rng, 65)
    _constrained_newton(rng.standard_normal(65), H, 1.0)[1]()
    (S, rhs, x), = systems
    assert S.shape == (3, 64)
    ref, info = _scipy_spd_solve(S, rhs)
    assert info == 0 and x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [2, 513])
def test_diagonal_lift_matches_scipy_bit_for_bit(n):
    # the Neumann Laplacian is singular: the last pivot is exactly 0
    ab = np.empty((2, n))
    ab[0] = -1.0
    ab[0, 0] = 0.0
    ab[1] = 2.0
    ab[1, [0, -1]] = 1.0
    rhs = np.random.default_rng(n).standard_normal(n)
    assert _scipy_spd_solve(ab, rhs)[1] == n
    lifted = ab.copy()
    lifted[1] += 1e-14 * (1.0 + np.abs(ab[1]))
    ref, info = _scipy_spd_solve(lifted, rhs)
    assert info == 0
    assert solve_banded_spd(ab, rhs).tobytes() == ref.tobytes()


def test_solves_reject_non_finite_and_singular_systems():
    rng = np.random.default_rng(5)
    for n in (1, 2, 513):
        rhs = rng.standard_normal(n)
        rhs[-1] = math.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_banded_spd(_spd_tridiagonal(rng, n), rhs)
    diag = np.array([1.0, 2.0, 0.0, 3.0, 4.0])  # a zero column
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_tridiagonal(np.zeros(4), diag, np.zeros(4), np.ones(5))


@pytest.mark.parametrize(
    "k, ordinal",
    [(1, "1st"), (2, "2nd"), (3, "3rd"), (4, "4th"), (11, "11th"), (12, "12th"),
     (13, "13th"), (21, "21st"), (22, "22nd"), (23, "23rd")],
)
def test_breakdown_names_the_minor_by_its_ordinal(k, ordinal):
    banded = np.zeros((2, 25))
    banded[1] = 1.0
    banded[1, k - 1] = -1.0  # the leading minor of order k is the first not PD
    with pytest.raises(np.linalg.LinAlgError) as exc:
        solve_banded_spd(banded, np.ones(25))
    assert str(exc.value) == f"{ordinal} leading minor not positive definite"


def test_threads_keep_their_own_argument_blocks():
    rng = np.random.default_rng(23)
    systems = [(_spd_tridiagonal(rng, 257), rng.standard_normal(257)) for _ in range(64)]
    serial = [solve_banded_spd(ab, rhs).tobytes() for ab, rhs in systems]

    def solve_all(shift):
        order = systems[shift:] + systems[:shift]
        return [solve_banded_spd(ab, rhs).tobytes() for ab, rhs in order * 20]

    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(solve_all, (0, 32)))
    assert results[0] == serial * 20
    assert results[1] == (serial[32:] + serial[:32]) * 20


def test_fallback_to_scipy_gives_the_same_bits(monkeypatch):
    import scipy.linalg

    rng = np.random.default_rng(29)
    spd = [_spd_tridiagonal(rng, n) for n in (1, 2, 33)]
    penta = np.vstack([rng.uniform(-0.5, 0.5, (2, 33)), rng.uniform(3.0, 4.0, 33)])
    general = rng.standard_normal((3, 33))
    rhs = {n: rng.standard_normal(n) for n in (1, 2, 33)}

    def solve_all():
        out = [solve_banded_spd(ab, rhs[ab.shape[1]]) for ab in spd]
        out.append(solve_banded_spd(penta, rhs[33]))
        out.append(solve_tridiagonal(*_diagonals(general), rhs[33]))
        return [x.tobytes() for x in out]

    native = solve_all()
    looked_up = []
    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def spy(names, arrays):
        looked_up.append(names)
        return get_lapack_funcs(names, arrays)

    monkeypatch.setattr(_p1, "_SPELLINGS", ("no_such_d{}_",))
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", spy)
    assert _p1._numpy_lapack() is None
    routines = _p1._lapack_routines()
    assert looked_up == [("ptsv", "gtsv", "pbsv")]
    for name, routine in zip(("_PTSV", "_GTSV", "_PBSV"), routines):
        monkeypatch.setattr(_p1, name, routine)
    assert solve_all() == native
