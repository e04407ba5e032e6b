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
     LinAlgError or ValueError.  The floor is the only exit above tol: a
     direction that does not descend, a line search that cannot move x and
     a spent budget each raise SolverError, even where the decrement lies
     within a thousand floors.
  5. The general tridiagonal solve gives scipy.linalg.solve_banded's bits,
     pivoting included, and rejects non-finite systems.
  6. The shared Gauss(3) rule equals both spellings of the rule mapped to
     [0, 1], 0.5 (x + 1) and (x + 1) / 2, is the package generator's
     gauss_legendre(3) and refuses writes.
  7. The fixed-sum Newton step is the dense null-space Newton step, keeps
     the sum, and a single unknown is already stationary; the SPD banded
     solve handles tridiagonal, pentadiagonal and 1x1 systems.
  8. The banded solves call the LAPACK numpy loads, and give scipy's ptsv
     and pbsv bits: n = 1, 2 and 513, a pentadiagonal constrained_newton
     system, and the diagonal lift after a failed first factorization.  A
     non-finite right-hand side raises ValueError, a singular general
     tridiagonal system numpy.linalg.LinAlgError.  Threads solving at the
     same size do not share argument blocks.
  9. Where numpy exports no LAPACK symbol, the solves go through scipy's
     wrappers, with the same bits.
 10. The power-law flux F = R^(m-1) (w u, l): at m = 0, w = 1 its vector
     and symmetric tridiagonal Jacobian are grad_hess's gradient and
     Hessian to a few ulps, and at m in {0.05, 0.5} with a non-uniform w
     its Jacobian, not symmetric there, agrees with central differences of
     the vector.
 11. One banded layout, scipy.linalg.solve_banded's ab with equal
     bandwidths: energy_banded, the Gram band, grad_hess, power_flux at
     w = 1 and w != 1 and the visco step's Jacobian have 3 rows and
     banded_matvec gives their dense products; the built ones hold 0.0 in
     their corners, and a NaN there does not reach the general solve.
     The symmetric ones, constrained_newton's 5-row reduced Hessian
     included, mirror their upper half bit for bit, and the SPD solve
     returns the same bits with NaN below the diagonal row.
"""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stripshear import Field, SolverError, _p1, dissipation, make_mesh
from stripshear._p1 import (
    GAUSS3_POINTS,
    GAUSS3_WEIGHTS,
    SmoothedDissipation,
    constrained_newton,
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


def _dense(ab):
    """Dense matrix of a band of 2u + 1 rows (scipy's solve_banded layout)."""
    u, n = ab.shape[0] // 2, ab.shape[1]
    A = np.zeros((n, n))
    for k in range(ab.shape[0]):
        for j in range(n):
            if 0 <= j + k - u < n:  # ab[u + i - j, j] = a[i, j]
                A[j + k - u, j] = ab[k, j]
    return A


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


@pytest.mark.parametrize("lam", [0.0, 0.01, 1.0, 10.0])
@pytest.mark.parametrize("eps", [1e-1, 1e-6])
def test_power_flux_at_m_zero_is_grad_hess(lam, eps):
    mesh = make_mesh(N_CELLS)
    psi = SmoothedDissipation(mesh, lam)
    rad = psi.radius(_field(mesh, True), eps)
    g, banded = psi.grad_hess(rad)
    flux, jacobian = psi.power_flux(rad, 0.0, np.ones_like(rad.u))
    J = jacobian()
    assert np.array_equal(J[2, :-1], J[0, 1:])  # symmetric at w = 1
    # the sums of a few terms each, rounded in another order
    ulps = 4.0 * np.finfo(float).eps
    assert np.max(np.abs(flux - g)) <= ulps * np.max(np.abs(g))
    assert np.max(np.abs(J[1] - banded[1])) <= ulps * np.max(np.abs(banded[1]))
    assert np.max(np.abs(J[0, 1:] - banded[0, 1:])) <= ulps * np.max(np.abs(banded[1]))


@pytest.mark.parametrize("m", [0.05, 0.5])
@pytest.mark.parametrize("lam", [0.01, 1.0, 10.0])
def test_power_flux_jacobian_matches_central_differences(m, lam):
    mesh = make_mesh(N_CELLS)
    psi = SmoothedDissipation(mesh, lam)
    d = _field(mesh, False)
    eps = 1e-6
    w = _p1.at_points(1.5 + np.cos(2.0 * mesh.nodes))[0]  # positive, non-uniform
    banded = psi.power_flux(psi.radius(d, eps), m, w)[1]()
    assert not np.allclose(banded[2, :-1], banded[0, 1:])  # w weights u alone
    J = _dense(banded)

    def central(h):
        J_fd = np.empty((d.size, d.size))
        for j in range(d.size):
            e_j = np.zeros_like(d)
            e_j[j] = h
            fp = psi.power_flux(psi.radius(d + e_j, eps), m, w)[0]
            fm = psi.power_flux(psi.radius(d - e_j, eps), m, w)[0]
            J_fd[:, j] = (fp - fm) / (2 * h)
        return J_fd

    J_fd = (4.0 * central(1e-5) - central(2e-5)) / 3.0  # Richardson, as above
    scale = np.max(np.abs(J), axis=1, keepdims=True)
    assert np.max(np.abs(J - J_fd) / scale) <= 1e-6


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
    x, gnorm = damped_newton(x0, evaluate, derivatives, 1e-9)
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
    x, measure = damped_newton(x0, evaluate, derivatives, 1e-9)
    assert x is x0 and measure == 1.0
    assert len(evaluated) == 1 and len(solved) == 1


def test_newton_turns_a_failed_step_solve_into_a_solver_error():
    def evaluate(x):
        return 1.0, x

    def derivatives(x):
        def newton_step():
            solve_tridiagonal(np.zeros((3, x.size)), np.ones(x.size))  # singular

        return 0.25, newton_step

    with pytest.raises(SolverError, match="singular") as info:
        damped_newton(np.ones(4), evaluate, derivatives, 1e-9)
    assert info.value.residual == 0.25
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def non_finite(x):
        def newton_step():
            solve_tridiagonal(np.full((3, x.size), math.nan), np.ones(x.size))

        return 0.5, newton_step

    with pytest.raises(SolverError, match="infs or NaNs") as info:
        damped_newton(np.ones(4), evaluate, non_finite, 1e-9)
    assert info.value.residual == 0.5
    assert type(info.value.__cause__) is ValueError


@pytest.mark.parametrize("slope", [0.0, 1e-3])
def test_newton_raises_on_a_direction_that_does_not_descend(slope):
    # a decrement -slope/2 <= 0 lies under any floor, but no step along an
    # ascent direction can be judged converged
    def evaluate(x):
        return 1.0, x

    def derivatives(x):
        def newton_step():
            return np.ones_like(x), slope, 1e-16

        return 1.0, newton_step

    with pytest.raises(SolverError, match="does not descend") as info:
        damped_newton(np.ones(5), evaluate, derivatives, 1e-9)
    assert info.value.residual == 1.0


def test_newton_raises_when_the_line_search_cannot_move_x():
    # every move raises the merit, and the decrement 5e-15 lies within a
    # thousand floors of 1e-16: the search halves t until x + t step == x
    x0 = np.ones(5)

    def evaluate(x):
        return 1.0 + float(np.max(np.abs(x - x0))), x

    def derivatives(x):
        def newton_step():
            return np.ones_like(x), -1e-14, 1e-16

        return 0.5, newton_step

    with pytest.raises(SolverError, match="stalled") as info:
        damped_newton(x0, evaluate, derivatives, 1e-9)
    assert info.value.residual == 0.5


def test_newton_raises_when_the_budget_is_spent(monkeypatch):
    # each step lowers the merit, the measure never reaches tol and the
    # decrement 5e-15 lies within a thousand floors of 1e-16
    budget = dataclasses.replace(_p1.DEFAULT_OPTIONS, max_newton_iters=3)
    monkeypatch.setattr(_p1, "DEFAULT_OPTIONS", budget)
    evaluated = []

    def evaluate(x):
        evaluated.append(x)
        return float(x[0]), x

    def derivatives(x):
        def newton_step():
            return -np.ones_like(x), -1e-14, 1e-16

        return 0.5, newton_step

    with pytest.raises(SolverError, match="in 3 iterations") as info:
        damped_newton(np.ones(5), evaluate, derivatives, 1e-9)
    assert info.value.residual == 0.5
    assert len(evaluated) == 4  # the start and one full step per iteration


def test_tridiagonal_solve_matches_scipy_bit_for_bit():
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(3)
    for _ in range(20):
        ab = rng.standard_normal((3, 33))
        ab[2] *= 3.0  # subdiagonal often larger than the diagonal: pivoting
        rhs = rng.standard_normal(33)
        x = solve_tridiagonal(ab, rhs)
        assert x.tobytes() == solve_banded((1, 1), ab, rhs).tobytes()
    ab[1, 5] = math.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_tridiagonal(ab, rhs)


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


@pytest.mark.parametrize("rows, n", [(2, 17), (3, 17), (2, 1), (3, 1)])
def test_spd_banded_solve(rows, n):
    # rows = u + 1, the rows of the upper storage; the band has 2u + 1
    rng = np.random.default_rng(rows * 100 + n)
    ab = np.zeros((2 * rows - 1, n))
    ab[:rows] = rng.uniform(-1.0, 1.0, (rows, n))
    ab[rows - 1] = 2.0 * rows + rng.uniform(0.0, 1.0, n)  # diagonally dominant
    for j in range(1, rows):  # subdiagonal j mirrors superdiagonal j
        ab[rows - 1 + j, : n - j] = ab[rows - 1 - j, j:]
    rhs = rng.standard_normal(n)
    x = solve_banded_spd(ab, rhs)
    assert np.allclose(_dense(ab) @ x, rhs, rtol=0.0, atol=1e-13)


def test_constrained_newton_step_is_the_null_space_step():
    rng = np.random.default_rng(11)
    n = 9
    H = np.zeros((3, n))
    H[1] = rng.uniform(2.0, 3.0, n)
    H[0, 1:] = H[2, :-1] = rng.uniform(-0.9, 0.9, n)[1:]
    g = rng.standard_normal(n)
    measure, newton_step = constrained_newton(g, H, 1.0)
    step, slope, floor = newton_step()

    Z = np.eye(n)[:, :-1] - np.eye(n)[:, 1:]  # z_j = e_j - e_{j+1}
    Hd = _dense(H)
    expected = Z @ np.linalg.solve(Z.T @ Hd @ Z, -Z.T @ g)
    assert measure == float(np.max(np.abs(Z.T @ g)))
    assert np.allclose(step, expected, rtol=0.0, atol=1e-12)
    assert abs(step.sum()) <= 1e-13
    assert slope == pytest.approx(float(g @ step), rel=1e-12) and slope < 0.0
    assert floor == 1e-15


def test_constrained_newton_single_unknown_is_stationary():
    H = np.array([[0.0], [2.0], [0.0]])
    measure, _ = constrained_newton(np.array([3.0]), H, 1.0)
    assert measure == 0.0


# ------------------------------------------------- LAPACK, scipy as the oracle


def _scipy_lapack():
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("ptsv", "gtsv", "pbsv"), (np.empty(1),))


def _scipy_spd_solve(ab, rhs):
    """scipy's solve of a banded SPD system from its upper rows 0..u: (x, info)."""
    ptsv, _, pbsv = _scipy_lapack()
    if ab.shape[0] == 3 and rhs.size > 1:
        return ptsv(ab[1], ab[0, 1:], rhs)[2:]
    return pbsv(ab[: ab.shape[0] // 2 + 1], rhs)[1:]


def _spd_tridiagonal(rng, n):
    ab = np.zeros((3, n))
    ab[0] = rng.uniform(-1.0, 1.0, n)
    ab[0, 0] = 0.0
    ab[1] = rng.uniform(2.0, 3.0, n)  # diagonally dominant
    ab[2, :-1] = ab[0, 1:]
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
    # the reduced Hessian constrained_newton forms, as it passes it on
    systems = []
    solve = _p1.solve_banded_spd

    def record(S, rhs):
        x = solve(S, rhs)
        systems.append((S.copy(), rhs.copy(), x))
        return x

    monkeypatch.setattr(_p1, "solve_banded_spd", record)
    rng = np.random.default_rng(17)
    H = _spd_tridiagonal(rng, 65)
    constrained_newton(rng.standard_normal(65), H, 1.0)[1]()
    (S, rhs, x), = systems
    assert S.shape == (5, 64)
    ref, info = _scipy_spd_solve(S, rhs)
    assert info == 0 and x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [2, 513])
def test_diagonal_lift_matches_scipy_bit_for_bit(n):
    # the Neumann Laplacian is singular: the last pivot is exactly 0
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = -1.0
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
    banded = np.zeros((3, 5))
    banded[1] = [1.0, 2.0, 0.0, 3.0, 4.0]  # a zero column
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_tridiagonal(banded, np.ones(5))


@pytest.mark.parametrize(
    "k, ordinal",
    [(1, "1st"), (2, "2nd"), (3, "3rd"), (4, "4th"), (11, "11th"), (12, "12th"),
     (13, "13th"), (21, "21st"), (22, "22nd"), (23, "23rd")],
)
def test_breakdown_names_the_minor_by_its_ordinal(k, ordinal):
    banded = np.zeros((3, 25))
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
    penta = np.zeros((5, 33))
    penta[:2] = rng.uniform(-0.5, 0.5, (2, 33))
    penta[2] = rng.uniform(3.0, 4.0, 33)
    penta[3, :-1], penta[4, :-2] = penta[1, 1:], penta[0, 2:]
    general = rng.standard_normal((3, 33))
    rhs = {n: rng.standard_normal(n) for n in (1, 2, 33)}

    def solve_all():
        out = [solve_banded_spd(ab, rhs[ab.shape[1]]) for ab in spd]
        out.append(solve_banded_spd(penta, rhs[33]))
        out.append(solve_tridiagonal(general, rhs[33]))
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


# --------------------------------------------------------- one banded layout


def test_every_matrix_is_in_the_one_band_layout(monkeypatch):
    # scipy.linalg.solve_banded's ab with equal bandwidths u: 2u + 1 rows,
    # the diagonal in row u, 0.0 in the corners no entry reaches; symmetric
    # matrices fill both halves, and the SPD solve reads rows 0..u alone
    from stripshear import PhysicalParams
    from stripshear.viscoplastic import _balance

    mesh = make_mesh(N_CELLS)
    psi = SmoothedDissipation(mesh, 1.0)
    d = _field(mesh, False)
    rad = psi.radius(d, 1e-6)
    S = 1.5 + np.cos(2.0 * mesh.nodes)  # positive, non-uniform strength
    A = _p1.energy_banded(mesh, 2.0, 0.5)
    g, H = psi.grad_hess(rad)
    symmetric = {
        "energy_banded": A,
        "gram": psi.gram,
        "grad_hess": H,
        "power_flux at w = 1": psi.power_flux(rad, 0.3, np.ones_like(rad.u))[1](),
    }
    built = {
        **symmetric,
        "power_flux at w != 1": psi.power_flux(rad, 0.3, _p1.at_points(S)[0])[1](),
    }
    for name, ab in built.items():
        assert ab.shape == (3, N_CELLS + 1) and ab[0, 0] == ab[2, -1] == 0.0, name

    # the visco step's Jacobian, on the interior columns of its bands
    p = PhysicalParams(
        S0=1.0, kappa=1.0, L=0.6, ell=0.8, h=1.0, G=1.0, d0=1.0, m_rate=0.2
    )
    balance = _balance(mesh, 0.3 * (1.0 - mesh.nodes**2), S, 1.7, 0.05, p)
    J = balance(0.5 * d[1:-1], 1e-10)[1]()
    assert J.shape == (3, N_CELLS - 1)
    x = np.random.default_rng(31).standard_normal(N_CELLS + 1)
    for name, ab in {**built, "_balance's Jacobian": J}.items():
        y = _p1.banded_matvec(ab, x[: ab.shape[1]])
        dense = _dense(ab) @ x[: ab.shape[1]]
        assert np.allclose(y, dense, rtol=0.0, atol=1e-13 * np.max(np.abs(dense))), name
    # gtsv reads the three diagonals alone: not the corners
    rhs = x[1:-1]
    corners = J.copy()
    corners[0, 0] = corners[2, -1] = math.nan
    x_corners = solve_tridiagonal(corners, rhs)
    assert x_corners.tobytes() == solve_tridiagonal(J, rhs).tobytes()

    # constrained_newton's reduced Hessian, as it passes it on
    reduced = []
    solve = _p1.solve_banded_spd

    def record(ab, rhs):
        reduced.append(ab)
        return solve(ab, rhs)

    monkeypatch.setattr(_p1, "solve_banded_spd", record)
    constrained_newton(g[1:-1], (H + A)[:, 1:-1], 1.0)[1]()
    monkeypatch.undo()
    (penta,) = reduced
    assert penta.shape == (5, N_CELLS - 2)
    symmetric["constrained_newton"] = penta

    for name, ab in symmetric.items():
        u = ab.shape[0] // 2
        for j in range(1, u + 1):  # subdiagonal j mirrors superdiagonal j
            assert ab[u + j, :-j].tobytes() == ab[u - j, j:].tobytes(), name
        # the dissipation's Hessians are SPD once the elastic band is added
        spd = ab + A if name in ("grad_hess", "power_flux at w = 1") else ab
        rhs = np.random.default_rng(37).standard_normal(spd.shape[1])
        upper = spd.copy()
        upper[u + 1 :] = math.nan
        x_upper = solve_banded_spd(upper, rhs)
        assert x_upper.tobytes() == solve_banded_spd(spd, rhs).tobytes(), name
