"""Piecewise-linear (P1) Gauss-point kernel and solver core shared by the solvers.

One home for what the solvers have in common:

* DEFAULT_OPTIONS, the one read-only solver configuration every solver
  reads: the smoothing schedule, one decade per level from 1e-1 to 1e-11,
  the Newton tolerance 1e-9 with a budget of 100 iterations per level,
  stability_tol 1e-8 and yield_tol 1e-8;
* the package's only Gauss-Legendre generator (gauss_legendre) and the
  one rule every P1 integral uses, Gauss(3) on the reference cell [0, 1]
  (GAUSS3_POINTS, GAUSS3_WEIGHTS); a P1 field's values at its points and
  the assembly of per-cell end sums into nodal vectors;
* the eps-smoothed dissipation of a nodal field,

      Psi_eps(d) = int sqrt(d^2 + lam^2 d_r^2 + eps^2) - eps dr,

  with its gradient and tridiagonal Hessian (eps = 0 is the plain
  dissipation; only the value is defined there), and the viscoplastic
  power-law flux R^(m-1) (w u, l) on the same radii (power_flux);
* the trapezoidal mass vector, the banded matrix mass Mq + stiffness K
  (energy_banded, with banded_matvec), the banded solves (LAPACK, called
  in the library numpy's linalg extension loads) and the damped Newton
  driver of every solver (convex_newton adapts it to minimization,
  constrained_newton to minimization at fixed sum), run level by level
  down a smoothing schedule by ladder.

Clamped problems.  The strip is clamped against plastic flow,
gamma(+-1) = 0.  Every clamped Newton system (increments, viscoplastic
steps, the threshold dual and the stability certificate) is solved for the
interior nodes alone, and clamped rebuilds the nodal field with zero
faces, so the faces are zero by construction.

Stability certificate.  gamma is stable at theta iff
r = theta m - A gamma lies in dPsi(0) = {c(xi) : |xi| <= 1 at every Gauss
point} (c the adjoint of the Gauss-point map v -> (u, lam u_r)).  The last
smoothing level of the step that produced gamma gives xi = (u, lam u_r) / R
with c(xi) = r up to the Newton residual, which a minimum-norm correction
removes; dual_norm returns s = max|xi|, inflated by its roundoff margin
(inf where the margin factor is not positive: xi then certifies nothing).
Psi(d) >= r'd / s for every d, so
the defect max_d [r'd - d'Ad / 2 - Psi(d)] is 0 if s <= 1 and at most
(1 - 1/s)^2 r'A^-1 r / 2 otherwise; the uncorrected xi gives a second
bound, from the Newton residual (incremental's stability_bound takes the
smaller).

Banded matrices.  Every matrix is the ab of scipy.linalg.solve_banded with
equal bandwidths u, 2u + 1 rows with ab[u + i - j, j] = a[i, j]: the
diagonal in row u, superdiagonal k right-aligned in row u - k, subdiagonal k
left-aligned in row u + k and 0.0 in the corners no entry reaches.  Symmetric
bands fill both halves; solve_banded_spd reads rows 0..u (the upper storage
of ptsv and pbsv).  Clamped systems take the interior columns [:, 1:-1].

Gauss-point arrays are laid out (n_points, n_cells), so each quadrature
point is one contiguous row and the per-cell reductions are small matrix
products.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .model import Mesh, SolverError

__all__ = [
    "DEFAULT_OPTIONS",
    "gauss_legendre",
    "SmoothedDissipation",
    "at_points",
    "mass_vector",
    "solve_banded_spd",
    "solve_tridiagonal",
    "convex_newton",
    "constrained_newton",
    "damped_newton",
    "energy_banded",
    "banded_matvec",
    "ladder",
    "clamped",
    "dual_norm",
]


@dataclass(frozen=True)
class _SolverSettings:
    epsilon_schedule: tuple  # smoothing widths, strictly decreasing
    newton_tol: float
    max_newton_iters: int
    stability_tol: float  # largest certified stability defect evolve accepts
    yield_tol: float  # max|gamma| above which detect_yield declares flow


# The one solver configuration, read by every solver in the package.
DEFAULT_OPTIONS = _SolverSettings(
    epsilon_schedule=tuple(10.0 ** (-k) for k in range(1, 12)),
    newton_tol=1e-9,
    max_newton_iters=100,
    stability_tol=1e-8,
    yield_tol=1e-8,
)


def _legendre(n: int, x: np.ndarray) -> tuple:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) / (j + 1)) * x * p1 - (j / (j + 1)) * p0
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights of order n, mapped to [0, 1].

    Newton on the three-term recurrence from Tricomi's initial guesses, for
    the nodes of [-1, 1] in [0, 1) only; the others follow by symmetry.  The
    guesses are within O(n^-4), so two or three steps reach roundoff; the
    weights 2 / ((1 - x^2) P_n'(x)^2) take P_n' at the converged nodes.
    The arrays are cached, so they are returned read-only.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)) * np.cos(
        math.pi * (4 * k - 1) / (4 * n + 2)
    )
    for _ in range(10):
        p, dp = _legendre(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    else:
        raise SolverError(f"Gauss-Legendre nodes of order {n} did not converge")
    w = 2.0 / ((1.0 - x * x) * _legendre(n, x)[1] ** 2)
    x = np.concatenate((-x, x[::-1][n % 2 :]))  # ascending; odd n: one middle
    w = np.concatenate((w, w[::-1][n % 2 :]))
    points, weights = (x + 1.0) * 0.5, w * 0.5
    points.flags.writeable = False
    weights.flags.writeable = False
    return points, weights


# the one rule of every P1 integral: exact through degree 5 on each cell
GAUSS3_POINTS, GAUSS3_WEIGHTS = gauss_legendre(3)
_T = GAUSS3_POINTS[:, None]  # columns: broadcast against (n_cells,) rows
_W = GAUSS3_WEIGHTS[:, None]


def at_points(v: np.ndarray):
    """Values of the P1 field v at the Gauss(3) points of every cell.

    Returns them laid out (n_points, n_cells), with the per-cell
    differences v[i + 1] - v[i] they were formed from.
    """
    diff = v[1:] - v[:-1]
    return v[:-1] + _T * diff, diff


def assemble(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None):
    """Nodal vector of per-cell sums: node i gets left[i] + right[i - 1].

    left[i] and right[i] belong to the left and right ends of cell i; each
    end node has one term (the last is 0.0 + right[-1], the same double).
    """
    if out is None:
        out = np.empty(left.size + 1)
    out[:-1] = left
    out[-1] = 0.0
    out[1:] += right
    return out


class _Radius(NamedTuple):
    u: np.ndarray  # field at the Gauss points, (n_points, n_cells)
    ls: np.ndarray  # lam * slope per cell, (n_cells,)
    R: np.ndarray  # sqrt(u^2 + ls^2 + eps^2), (n_points, n_cells)
    eps: float


class SmoothedDissipation:
    """Value, gradient and banded Hessian of Psi_eps on one (mesh, lam).

    The shape factors (grad_hess) and the weight tables (power_flux) of the
    rule are built once, on first use.  At a Gauss point
    with value u, scaled slope l = lam * d_r and R = sqrt(u^2 + l^2 + eps^2),
    the derivatives of R with respect to the cell's end values are
    g = (c u + e l) / R, with c the P1 shape function and e = -+lam/dr the
    slope factor, and the second derivatives are (k - g g') / R with
    k = c c' + e e'.  The two shape functions sum to one, so the right-end
    g is u / R minus the left-end one.  The Hessian is a (3, n + 1) band
    (module docstring).
    """

    def __init__(self, mesh: Mesh, lam: float):
        self.mesh = mesh
        self.lam = float(lam)
        self.n = mesh.n_cells
        self.dr = mesh.dr
        self.slope_scale = float(lam) / mesh.dr  # e = lam / dr
        self.dw = self.dr * GAUSS3_WEIGHTS

    @cached_property
    def _shape_factors(self):
        """grad_hess's (c_a, k_aa, k_bb, k_ab) at full (n_points, n_cells) size.

        Built on the first grad_hess call, so value-only users never pay
        for them; broadcasting a column costs more than the arithmetic at
        the sizes the solvers use.  power_flux reads _flux_tables instead.
        """
        e = self.slope_scale
        shape = (_T.size, self.n)
        ca = np.broadcast_to(1.0 - _T, shape)  # left shape function
        cb = np.broadcast_to(_T, shape)
        return ca.copy(), ca * ca + e * e, cb * cb + e * e, ca * cb - e * e

    @cached_property
    def gram(self) -> np.ndarray:
        """The dual Gram band energy_banded(mesh, 1.0, lam^2), built on first use."""
        return energy_banded(self.mesh, 1.0, self.lam * self.lam)

    def radius(self, d: np.ndarray, eps: float) -> _Radius:
        """Gauss-point values of the field, its scaled slope and R."""
        u, diff = at_points(d)
        ls = self.slope_scale * diff
        return _Radius(u, ls, np.sqrt(u * u + (ls * ls + eps * eps)), eps)

    def total(self, rad: _Radius) -> float:
        """Psi_eps from the Gauss-point radii."""
        return self.dr * float((_W * (rad.R - rad.eps)).sum())

    def value(self, d: np.ndarray, eps: float) -> float:
        return self.total(self.radius(d, eps))

    def grad_hess(self, rad: _Radius):
        """(gradient, banded Hessian) of Psi_eps at the radii's field, eps > 0."""
        u, ls, R, _ = rad
        ca, kaa, kbb, kab = self._shape_factors
        inv_R = 1.0 / R
        u_R = u * inv_R
        l_R = (self.slope_scale * ls) * inv_R  # e * l / R with e = lam / dr
        terms = np.empty((5,) + R.shape)
        ga = np.multiply(ca, u_R, out=terms[0])
        ga -= l_R
        gb = np.subtract(u_R, ga, out=terms[1])
        for k, g1, g2, out in (
            (kaa, ga, ga, terms[2]),
            (kbb, gb, gb, terms[3]),
            (kab, ga, gb, terms[4]),
        ):
            np.multiply(g1, g2, out=out)
            np.subtract(k, out, out=out)
            out *= inv_R
        ga_c, gb_c, haa_c, hbb_c, hab_c = self.dw @ terms  # per-cell sums

        banded = np.zeros((3, self.n + 1))
        banded[0, 1:] = banded[2, :-1] = hab_c
        assemble(haa_c, hbb_c, out=banded[1])
        return assemble(ga_c, gb_c), banded

    @cached_property
    def _flux_tables(self):
        """power_flux's weight tables (2, 3), (4, 6) and (4, 12), built on first use.

        The P1 shapes c and the slope factors e = s lam / dr (s = -1 at a
        cell's left end, +1 at its right) are constant per Gauss point, so
        every per-cell sum of power_flux weights Gauss-point products by a
        fixed table.  The vector table holds dw c at both ends.  The
        Jacobian tables' rows are the (left, left), (right, right),
        (left, right) and (right, left) entries (band rows 1, 1, 0 and 2);
        at the three points their columns weight R^(m-1) w and R^(m-1) (the
        first table), then R^(m-1) w a^2, R^(m-1) a b, R^(m-1) (w - 1) a b
        and R^(m-1) b^2 with a = u / R and b = lam l / (dr R) (the second,
        which power_flux scales by -(1 - m)).  Writing w u = u + (w - 1) u
        keeps the cross term's weights symmetric outside the (w - 1) column,
        so the band's rows 0 and 2 agree bit for bit where w = 1.
        """
        ca, cb = 1.0 - GAUSS3_POINTS, GAUSS3_POINTS
        dw, e2 = self.dw, self.slope_scale * self.slope_scale
        left, right = (ca, -1.0), (cb, 1.0)
        vector = np.stack((dw * ca, dw * cb))
        jacobian = np.stack([
            np.concatenate((
                dw * (c1 * c2), dw * (e2 * (s1 * s2)), dw * (c1 * c2),
                dw * (c1 * s2 + c2 * s1), dw * (c1 * s2), dw * (s1 * s2),
            ))
            for (c1, s1), (c2, s2) in (
                (left, left), (right, right), (left, right), (right, left)
            )
        ])
        vector.flags.writeable = False
        jacobian.flags.writeable = False
        return vector, jacobian[:, :6], jacobian[:, 6:]

    def power_flux(self, rad: _Radius, m: float, w: np.ndarray):
        """(vector, jacobian) of the power-law flux F = R^(m-1) (w u, l).

        w weights the value channel at each Gauss point (laid out as rad.u).
        The vector is int F . (c, e) dr at every node (grad_hess's gradient
        at m = 0, w = 1): the vector table of _flux_tables against
        R^(m-1) w u, plus e l times the rule's sum of R^(m-1).  jacobian()
        returns its derivative in the nodal values,
        R^(m-1) [w c c' + e e' - (1 - m) (w u c + l e) (u c + l e)' / R^2],
        as a (3, n + 1) band for solve_tridiagonal (symmetric where w = 1,
        not where w varies): six Gauss-point products against the Jacobian
        tables.  Line-search trials never build it.
        """
        u, ls, R, _ = rad
        vector_table, power_table, square_table = self._flux_tables
        terms = np.empty((6,) + R.shape)  # the Jacobian's products, in table order
        Rmw, Rm = terms[0], terms[1]
        np.power(R, m - 1.0, out=Rm)
        np.multiply(Rm, w, out=Rmw)
        el = self.slope_scale * ls  # e * l with e = lam / dr
        fa, fb = vector_table @ (Rmw * u)
        el_Rm = el * (self.dw @ Rm)
        fa -= el_Rm
        fb += el_Rm

        def jacobian():
            # a and b, divided by R before they are multiplied, as R may
            # overflow
            inv_R = 1.0 / R
            a = u * inv_R
            b = el * inv_R
            np.multiply(Rmw * a, a, out=terms[2])
            Rm_b = Rm * b
            np.multiply(Rm_b, a, out=terms[3])
            np.multiply(terms[3], w - 1.0, out=terms[4])
            np.multiply(Rm_b, b, out=terms[5])
            table = np.concatenate((power_table, (m - 1.0) * square_table), axis=1)
            banded = np.zeros((3, self.n + 1))
            aa, bb, banded[0, 1:], banded[2, :-1] = table @ terms.reshape(-1, self.n)
            assemble(aa, bb, out=banded[1])
            return banded

        return assemble(fa, fb), jacobian


def mass_vector(mesh: Mesh) -> np.ndarray:
    """Trapezoidal weights: m @ values is the exact integral of a P1 field."""
    w = np.full(mesh.n_cells + 1, mesh.dr)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# The banded solves call LAPACK's ptsv (SPD tridiagonal), pbsv (SPD band,
# upper storage: row kd is the diagonal, row kd - j holds the j-th
# superdiagonal right-aligned) and gtsv (general tridiagonal, partial
# pivoting) in the LAPACK numpy's linalg extension already loads.  LAPACK
# overwrites its arguments, so the inputs are copied in.
_ROUTINES = ("ptsv", "gtsv", "pbsv")
# exported names, in lookup order: ILP64 with numpy's prefix, ILP64, LP64
_SPELLINGS = ("scipy_d{}_64_", "d{}_64_", "d{}_")


def _numpy_lapack():
    """(ptsv, gtsv, pbsv, Fortran integer type) from numpy's LAPACK, or None."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for spelling in _SPELLINGS:
        try:
            fns = [getattr(lib, spelling.format(name)) for name in _ROUTINES]
        except AttributeError:
            continue
        for fn in fns:
            fn.restype = None
        return (*fns, ctypes.c_int64 if "_64_" in spelling else ctypes.c_int)
    return None


def _block(fn, fint, layout):
    """call(*inputs) -> (x, info): fn on one size, its arguments built once.

    layout lists the Fortran arguments before info: integers (passed by
    reference), one-letter options (bytes, with their hidden lengths
    appended after info) and buffers the inputs are copied into, the last
    of which holds the right-hand side and then the solution.
    """
    info = fint()
    buffers = [a for a in layout if isinstance(a, np.ndarray)]
    x = buffers[-1]
    args = [
        ctypes.c_void_p(a.ctypes.data) if isinstance(a, np.ndarray)
        else ctypes.c_char_p(a) if isinstance(a, bytes)
        else ctypes.byref(fint(a))
        for a in layout
    ]
    args.append(ctypes.byref(info))
    args += [ctypes.c_size_t(len(a)) for a in layout if isinstance(a, bytes)]

    def call(*inputs):
        for buf, a in zip(buffers, inputs):
            buf[...] = a
        fn(*args)
        return x.copy(), info.value

    return call


def _ptsv_layout(d, e, b):
    n = b.size
    return n, 1, np.empty(n), np.empty(n - 1), np.empty(n), n


def _gtsv_layout(dl, d, du, b):
    n = b.size
    return n, 1, np.empty(n - 1), np.empty(n), np.empty(n - 1), np.empty(n), n


def _pbsv_layout(ab, b):
    kd, n = ab.shape[0] - 1, b.size
    return b"U", n, kd, 1, np.empty(ab.shape, order="F"), kd + 1, np.empty(n), n


def _bind(fn, fint, layout):
    """routine(*inputs) -> (x, info) through one block per input shape.

    The blocks are per thread: LAPACK runs with the GIL released, so two
    threads must never share a block's buffers.
    """
    local = threading.local()

    def routine(*inputs):
        try:
            blocks = local.blocks
        except AttributeError:
            blocks = local.blocks = {}
        block = blocks.get(inputs[0].shape)
        if block is None:
            block = blocks[inputs[0].shape] = _block(fn, fint, layout(*inputs))
        return block(*inputs)

    return routine


def _lapack_routines():
    """ptsv, gtsv and pbsv as (*inputs) -> (x, info).

    numpy builds that export no LAPACK (lapack_lite) go through scipy's
    wrappers instead, imported only then.
    """
    found = _numpy_lapack()
    if found is None:
        from scipy.linalg import get_lapack_funcs

        ptsv, gtsv, pbsv = get_lapack_funcs(_ROUTINES, (np.empty(1),))
        return (
            lambda d, e, b: ptsv(d, e, b)[2:],
            lambda dl, d, du, b: gtsv(dl, d, du, b)[3:],
            lambda ab, b: pbsv(ab, b)[1:],
        )
    *fns, fint = found
    layouts = (_ptsv_layout, _gtsv_layout, _pbsv_layout)
    return tuple(_bind(fn, fint, layout) for fn, layout in zip(fns, layouts))


_PTSV, _GTSV, _PBSV = _lapack_routines()

_DIAGONAL_LIFT = 1e-14  # ~50 ulps per pivot: clears one rounded to <= 0
_ARMIJO = 1e-4  # sufficient-decrease share of the linear model (textbook)
_ROUNDOFF = 1e-15  # roundoff of a sum of terms, relative to their magnitudes


def _factor_solve(upper: np.ndarray, rhs: np.ndarray):
    if upper.shape[0] == 2 and rhs.size > 1:  # ptsv needs n >= 2
        return _PTSV(upper[1], upper[0, 1:], rhs)
    return _PBSV(upper, rhs)


def _ordinal(n: int) -> str:
    """n with its English ordinal suffix: 1st, 2nd, 3rd, 4th, 11th, 21st."""
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{'th' if n % 100 in (11, 12, 13) else suffix}"


def solve_banded_spd(banded: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a banded SPD system, lifting the diagonal on breakdown.

    Reads rows 0..u of the symmetric band (module docstring).  Tridiagonal
    systems go to ptsv, as in scipy.linalg.solveh_banded; wider bands and
    single unknowns go to pbsv.
    """
    upper = banded[: banded.shape[0] // 2 + 1]
    x, info = _factor_solve(upper, rhs)
    if info > 0:
        lifted = upper.copy()
        lifted[-1] += _DIAGONAL_LIFT * (1.0 + np.abs(upper[-1]))
        x, info = _factor_solve(lifted, rhs)
        if info > 0:
            raise LinAlgError(f"{_ordinal(info)} leading minor not positive definite")
    if info < 0 or not np.isfinite(x).all():
        raise ValueError("Newton system contains infs or NaNs")
    return x


def solve_tridiagonal(banded: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a general tridiagonal system by gtsv (partial pivoting).

    banded is a (3, n) band (module docstring); gtsv reads rows 2, 1 and 0
    less their unused corners, and only those must be finite.  The result
    is that of scipy.linalg.solve_banded((1, 1), banded, rhs), bit for bit.
    """
    dl, d, du = banded[2, :-1], banded[1], banded[0, 1:]
    if not np.isfinite(np.concatenate((dl, d, du, rhs))).all():
        raise ValueError("Newton system contains infs or NaNs")
    x, info = _GTSV(dl, d, du, rhs)
    if info != 0:
        raise LinAlgError("singular matrix")
    return x


def convex_newton(g: np.ndarray, H: np.ndarray, fscale: float):
    """derivatives(state) of damped_newton for a smooth convex minimization.

    g and H are the gradient and banded SPD Hessian; fscale is the sum of
    the magnitudes of all terms accumulated into f (so cancellation inside
    the sums is counted).  The measure is max|g| and the step is Newton's.
    """
    gnorm = float(np.max(np.abs(g), initial=0.0))

    def newton_step():
        step = solve_banded_spd(H, -g)
        return step, float(g @ step), _ROUNDOFF * fscale

    return gnorm, newton_step


def constrained_newton(g: np.ndarray, H: np.ndarray, fscale: float):
    """derivatives(state) of damped_newton for a convex minimization at fixed sum(x).

    g and H are as in convex_newton.  H need not be definite along the
    constraint's normal (a 1-homogeneous objective is flat along x), so the
    step stays in the null space of the all-ones vector, spanned by
    z_j = e_j - e_{j+1}: the reduced gradient is Z'g and the reduced
    Hessian Z'HZ a 5-row band.  convex_newton minimizes in the reduced
    coordinates p, and the step is Z p.  The measure is max|Z'g| (0 with a
    single unknown, which has no free direction).
    """
    q = g[:-1] - g[1:]
    d, e = H[1], H[0, 1:]  # diagonal, and e[i] couples (i, i + 1)
    S = np.zeros((5, q.size))
    S[2] = d[:-1] + d[1:] - 2.0 * e
    S[1, 1:] = S[3, :-1] = e[:-1] + e[1:] - d[1:-1]
    S[0, 2:] = S[4, :-2] = -e[1:-1]
    gnorm, reduced_step = convex_newton(q, S, fscale)

    def newton_step():
        p, slope, floor = reduced_step()
        step = np.zeros(g.size)  # Z p
        step[:-1] = p
        step[1:] -= p
        return step, slope, floor

    return gnorm, newton_step


def damped_newton(
    x: np.ndarray,
    evaluate: Callable,
    derivatives: Callable,
    tol: float,
) -> tuple[np.ndarray, float]:
    """Drive a stationarity measure below tol by backtracking Newton steps.

    evaluate(x) returns (merit, state) and is all a line-search trial costs.
    derivatives(state) returns (measure, newton_step) at an accepted point;
    newton_step() returns (step, slope, floor): the direction, the merit's
    slope along it and the merit's roundoff floor.  It runs only when
    measure > tol, so a converged point costs no solve.  The budget is
    DEFAULT_OPTIONS.max_newton_iters iterations.  The exits:
    - measure <= tol: the point and its measure;
    - the roundoff floor: the decrement -slope/2 of a descent direction is
      at most the floor, so no representable iterate can still improve the
      merit.  Iterates inside the floor wander, so the best-measure iterate
      seen is returned, with its measure above tol;
    - SolverError in every other case: a step's linear solve breaks down
      (LinAlgError) or meets a non-finite system (the solves' ValueError),
      the floor is not finite (the merit's terms overflow, so no decrement
      can be judged), the direction does not descend (slope >= 0), the line
      search cannot move x, or the budget is spent.
    """
    max_iters = DEFAULT_OPTIONS.max_newton_iters
    merit, state = evaluate(x)
    measure, newton_step = derivatives(state)
    x_best, m_best = x, measure
    for _ in range(max_iters):
        if measure <= tol:
            return x, measure
        try:
            step, slope, floor = newton_step()
        except ValueError as err:  # LinAlgError is a ValueError
            raise SolverError(
                f"Newton step failed: {err} (measure {measure:.3e})", residual=measure
            ) from err
        if not math.isfinite(floor):
            raise SolverError(
                f"Newton merit overflows: roundoff floor {floor} (measure "
                f"{measure:.3e})",
                residual=measure,
            )
        if slope >= 0.0:
            raise SolverError(
                f"Newton direction does not descend (slope {slope:.3e}, measure "
                f"{measure:.3e})",
                residual=measure,
            )
        dec = -0.5 * slope
        if dec <= floor:
            return x_best, m_best
        t = 1.0
        for _ in range(60):
            x_new = x + t * step
            merit_new, state = evaluate(x_new)
            if merit_new <= merit + _ARMIJO * t * slope + floor:
                break
            t *= 0.5
        else:
            x_new = x
        if np.array_equal(x_new, x):
            # the line search stalled, or the damped step underflowed x
            # (merit_new == merit passes through the floor slack)
            raise SolverError(
                f"Newton stalled: decrement {dec:.3e} against floor {floor:.3e} "
                f"(measure {measure:.3e})",
                residual=measure,
            )
        x, merit = x_new, merit_new
        measure, newton_step = derivatives(state)
        if measure < m_best:
            x_best, m_best = x, measure
    if measure <= tol:
        return x, measure
    raise SolverError(
        f"Newton did not reach tolerance {tol:.1e} in {max_iters} iterations "
        f"(measure {measure:.3e})",
        residual=measure,
    )


def energy_banded(mesh: Mesh, mass: float, stiffness: float) -> np.ndarray:
    """The (3, n + 1) band of mass * Mq + stiffness * K.

    Mq is the exact piecewise-linear mass matrix and K the stiffness matrix.
    The increments' energy E = 0.5 x'Ax takes (kappa, kappa Lambda^2); the
    dual Gram matrix c B takes (1, lam^2), B mapping nodal values to
    (u, lam u_r) at the Gauss points and c its adjoint (rule weights
    included), as Gauss(3) integrates both products exactly.
    """
    n = mesh.n_cells
    dr = mesh.dr
    cell_diag = mass * (dr / 3.0) + stiffness * (1.0 / dr)
    cell_off = mass * (dr / 6.0) + stiffness * (-1.0 / dr)
    banded = np.zeros((3, n + 1))
    banded[0, 1:] = banded[2, :-1] = cell_off  # couple nodes (i - 1, i)
    banded[1, :-1] += cell_diag
    banded[1, 1:] += cell_diag
    return banded


def banded_matvec(banded: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The product of a (3, n) band (module docstring) with x."""
    y = banded[1] * x
    y[:-1] += banded[0, 1:] * x[1:]
    y[1:] += banded[2, :-1] * x[:-1]
    return y


# dual_norm's relative inflation of max|xi|, per cell and per unit of
# 1 + lam (from n_cells (1 + lam) = 1e14 on, xi certifies nothing).
# c(xi') reproduces m up to a few ulps of its largest terms,
# about lam |xi'| ~ lam / theta_c per node.  Gauss(3) gives
# Psi(v) >= 0.43 dr sum|v_i| (at least 0.215 dr (|a| + |b|) per cell), so a
# residual delta moves the threshold by at most 2.4 theta_c max|delta| / dr:
# relative to theta_c, of order n_cells (1 + lam) ulps.  The residual
# measured at n_cells = 2048, lam = 100 (5.7e-13 max m) bounds the move by
# 1.4e-10 there, against a shrink of 2.1e-9.
_DUAL_MARGIN = 1e-14


def clamped(x: np.ndarray) -> np.ndarray:
    """Interior values as a nodal field with zero boundary values."""
    full = np.zeros(x.size + 2)
    full[1:-1] = x
    return full


def _dual_field(
    psi: SmoothedDissipation,
    rad,
    g: np.ndarray,
    w: float,
    target: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-point field xi with c(xi) = target, from a smoothed multiplier.

    rad holds the radii of Psi_eps at some field and g the interior entries
    of its gradient, so (u, lam u_r) / R has c = g.  Divided by w it misses
    target by rho = g / w - target, which the minimum-norm field B K^-1 rho
    removes; K is the interior block of psi.gram.  Returns (xi_u, xi_s),
    laid out as rad.u and rad.ls.
    """
    fix = psi.radius(clamped(solve_banded_spd(psi.gram[:, 1:-1], g / w - target)), 0.0)
    wR = w * rad.R
    return rad.u / wR - fix.u, rad.ls / wR - fix.ls


def dual_norm(
    psi: SmoothedDissipation, rad, g: np.ndarray, w: float, target: np.ndarray
) -> float:
    """Certified max|xi| of a Gauss-point field xi with c(xi) = target.

    xi is the multiplier (u, lam u_r) / (w R) of rad and g (as in
    _dual_field) made exact by the minimum-norm correction.  Its max norm
    is divided by 1 - _DUAL_MARGIN n_cells (1 + lam), the roundoff margin
    of c(xi); where that factor is not positive the field certifies
    nothing, and the norm is inf.
    """
    shrink = 1.0 - _DUAL_MARGIN * psi.n * (1.0 + psi.lam)
    if shrink <= 0.0:
        return math.inf
    xi_u, xi_s = _dual_field(psi, rad, g, w, target)
    return float(np.sqrt(xi_u * xi_u + xi_s * xi_s).max()) / shrink


def ladder(x: np.ndarray, make_objective, tol: float, schedule) -> np.ndarray:
    """Damped Newton at every smoothing level of schedule in turn, from x.

    make_objective(eps) returns damped_newton's (evaluate, derivatives).  A
    level that takes no Newton step (damped_newton returns its input) ends
    the descent early: the ladder goes straight to its last level, which
    always runs.
    """
    last = len(schedule) - 1
    k = 0
    while True:
        x_new, _ = damped_newton(x, *make_objective(schedule[k]), tol)
        if k == last:
            return x_new
        k = last if x_new is x else k + 1
        x = x_new
