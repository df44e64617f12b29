"""Oracles and test-only helpers used to freeze and verify expected values.

Most of these deliberately avoid the production code paths: polynomial
companion roots instead of bracketed Brent, high-precision summation
instead of fsum, closed-form spectra instead of Galerkin matrices, the
complex Hermitian Galerkin matrix built from Kronecker products instead of
its real symmetric form, one solve of the whole matrix at every Morse
level instead of the two reflection blocks at w = 1, the "two truncation
levels agree" ladder instead of the certified Morse bracket, a 2000-sample locus
scan for every off-line equilibrium instead of one descent of the amended
potential, a direct quartic-multiplier formula instead of integrated
monodromies, numpy row operations and a scalar right-hand side instead of
the batched one of ``integrate_fundamental``, scipy's ``solve_ivp``
instead of its in-house DOP853 stepper, and numpy calls on a handful of
numbers (``np.polyval`` on scalars, ``einsum`` and axis sums) instead of
the scalar Python spacing-quintic and the column-wise distance-sum kernels,
and the off-line equilibrium's Newton loop one point at a time instead of
its lockstep batch, and a plain one-bracket bisection, one midpoint per
step, instead of the speculative lockstep rounds of ``find_curves``.

The helpers after them (matrix exponential, D-form coefficient path,
spectral distances, symplectic samples, positivity sweep, the K-form
coefficient matrix B(theta) with its rotations, the symmetric four-body
chain, region labels and the nu_w cross-check) are checks only the tests
use.  Some of them drive production code: ``positivity_check`` calls
``morse_index``, ``frame_spectra_agreement`` compares against
``integrate_fundamental``, ``symmetric_four_body`` runs
``restricted_position`` and ``index_monodromy_consistency`` compares
``morse_index`` with ``monodromy.kernel_dimension`` and
``monodromy.circle_jump_sum``, so they test consistency, not independence.

Last come the polygon checks of acceptance criterion C9 (the large-m0
limits): ``PolygonLimitRow`` and ``polygon_limits`` tabulate
``solve_site`` along a list of central-mass ratios, and
``polygon_configuration`` lays the (1+n)-gon and its site out in the plane,
at the circumradius ``polygon_alpha``, so that ``Configuration`` recomputes
mu from the positions.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import toeplitz
from scipy.optimize import brentq, linear_sum_assignment

from erestab import central_config
from erestab.central_config import (
    Configuration,
    MassSystem,
    collinear_three_primaries,
    restricted_position,
    solve_symmetric_y,
)
from erestab.errors import (
    ConvergenceError,
    DegenerateSolutionError,
    DomainError,
    InvariantViolation,
    SingularityError,
)
from erestab.linearization import I2, J4, DMatrix, StabilityParams, spectral_params
from erestab.maslov import (
    DEFAULT_LEVELS,
    KERNEL_TOL_FACTOR,
    IndexResult,
    _norm,
    _reflected_eigenvalues,
    assemble_operator,
    morse_index,
    r_e_fourier_coefficients,
)
from erestab.monodromy import (
    DEFAULT_CIRCLE_TOL,
    DEFAULT_TOL,
    TWO_PI,
    Monodromy,
    circle_jump_sum,
    integrate_fundamental,
    kernel_dimension,
    symplectic_residual,
)
from erestab.polygon_config import BangQuantities, PolygonSystem, Site, solve_site

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def quintic_positive_roots(m1, m2, m3):
    """All positive real roots of the collinear spacing quintic via companion
    eigenvalues (numpy.roots)."""
    coeffs = [
        m3 + m2,
        3 * m3 + 2 * m2,
        3 * m3 + m2,
        -(3 * m1 + m2),
        -(3 * m1 + 2 * m2),
        -(m1 + m2),
    ]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-9 * np.maximum(1.0, np.abs(roots.real))].real
    return np.sort(real[real > 0])


def solve_euler_quintic_polyval(m1, m2, m3):
    """The spacing quintic's root by ``np.polyval`` at every evaluation and a
    grid built on every call: the numpy form that
    ``central_config.solve_euler_quintic`` repeats with Python Horner."""
    if min(m1, m2, m3) <= 0.0:
        raise DomainError("masses must be positive")
    coeffs = central_config.euler_quintic_coefficients(m1, m2, m3)
    deriv = np.polyder(coeffs)
    grid = np.geomspace(1e-8, 100.0, 10_000)
    vals = np.polyval(coeffs, grid)
    flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    if flips.size == 0:
        raise ConvergenceError("no sign change of the quintic on (0, 100)")
    i = int(flips[0])
    x = brentq(
        lambda t: float(np.polyval(coeffs, t)),
        float(grid[i]),
        float(grid[i + 1]),
        xtol=1e-15,
    )
    for _ in range(2):
        x -= float(np.polyval(coeffs, x)) / float(np.polyval(deriv, x))
    scaled = abs(float(np.polyval(coeffs, x))) / float(np.max(np.abs(coeffs)))
    if scaled > 1e-13:
        raise ConvergenceError("quintic root failed the residual check", residual=scaled)
    return float(x)


def massless_sums_numpy(config, point):
    """Offsets d_j = a_j - a, r_j, r_j^3, sum_j m_j / r_j^3 and
    sum_j m_j d_j d_j^T / r_j^5 by numpy array calls: the form that
    ``central_config.massless_sums`` repeats in scalar Python."""
    m = config.masses.array
    diff = config.primary_positions - point[None, :]
    r = np.hypot(diff[:, 0], diff[:, 1])
    if np.any(r < 1e-12):
        raise SingularityError("massless body hit a primary")
    r3 = r**3
    return diff, r, r3, float(np.sum(m / r3)), np.einsum("k,ki,kj->ij", m / r**5, diff, diff)


def amended_potential_numpy(config, point):
    """V, its gradient and Hessian from :func:`massless_sums_numpy`, as
    ``central_config._amended_potential`` formed them by numpy calls."""
    m = config.masses.array
    diff, r, r3, s1, outer = massless_sums_numpy(config, point)
    value = float(np.sum(m / r)) + 0.5 * config.mu * float(point @ point)
    grad = (m[:, None] * diff / r3[:, None]).sum(axis=0) + config.mu * point
    hess = 3.0 * outer - np.eye(2) * s1 + config.mu * np.eye(2)
    return value, grad, hess


def restricted_position_scalar(config, guess=(0.0, 1.0)):
    """The off-line equilibrium's damped Newton iteration one point at a
    time, with V's derivatives from :func:`amended_potential_numpy`: the
    loop ``central_config.restricted_position`` ran before its iterations
    were batched.  Returns the position and the attached ``cc_residual``, or
    raises what that loop raised."""
    a = np.array(guess, dtype=float)

    def residual(x):
        _, _, _, s1, _ = massless_sums_numpy(config, x)  # raises on a primary
        _, grad, hess = amended_potential_numpy(config, x)
        return grad, hess, s1

    grad, hess, s1 = residual(a)
    norm = float(np.max(np.abs(grad)))
    for _ in range(central_config.MAX_ITER):
        if norm < 1e-11:
            break
        step = np.linalg.solve(hess, -grad)
        scale = 1.0
        for _ in range(30):
            trial = a + scale * step
            try:
                t_grad, t_hess, t_s1 = residual(trial)
            except SingularityError:
                scale *= 0.5
                continue
            t_norm = float(np.max(np.abs(t_grad)))
            if t_norm < norm:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "restricted-position Newton stalled (30 halvings without progress)", residual=norm
            )
        a, grad, hess, s1, norm = trial, t_grad, t_hess, t_s1, t_norm
    else:
        raise ConvergenceError(
            f"restricted-position Newton did not converge in {central_config.MAX_ITER} iterations",
            residual=norm,
        )
    if abs(a[1]) < 1e-8:
        raise DegenerateSolutionError(
            "Newton converged to a point on the primaries' line; choose a different guess"
        )
    if abs(config.mu - s1) > 1e-9:
        raise InvariantViolation(
            f"off-line multiplier identity violated: |mu - sum m_j/r^3| = {abs(config.mu - s1):.3e}"
        )
    return a, max(config.cc_residual, float(np.hypot(*grad)))


def offline_equilibrium_scalar(config, guess=(0.0, 1.0)):
    """:func:`restricted_position_scalar`, re-seeded by
    ``central_config.locate_offline_equilibria`` where it fails to converge:
    ``offline_equilibrium`` one point at a time."""
    try:
        return restricted_position_scalar(config, guess)
    except ConvergenceError:
        seed = central_config.locate_offline_equilibria(config, guess)
        return restricted_position_scalar(config, seed)


def bisect_bracket(pred, lo: float, hi: float, resolution: float) -> tuple[float, float]:
    """Plain bisection of one bracket, pred(lo) true and pred(hi) false,
    reading pred at one midpoint per step until the bracket is no wider than
    ``resolution`` or lo and hi are adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not (hi - lo > resolution and lo < mid < hi):
            return lo, hi
        if pred(mid):
            lo = mid
        else:
            hi = mid


def cc_defect_complex(masses, positions, mu, massless=None):
    """Central-configuration defect via complex arithmetic (independent of the
    production vector implementation)."""
    zs = [complex(p[0], p[1]) for p in positions]
    worst = 0.0
    for i, zi in enumerate(zs):
        acc = 0.0 + 0.0j
        for j, zj in enumerate(zs):
            if j == i:
                continue
            acc += masses[j] * (zj - zi) / abs(zj - zi) ** 3
        worst = max(worst, abs(acc + mu * zi))
    if massless is not None:
        zn = complex(massless[0], massless[1])
        acc = sum(m * (z - zn) / abs(z - zn) ** 3 for m, z in zip(masses, zs))
        worst = max(worst, abs(acc + mu * zn))
    return worst


def locus_scan_equilibria(config, samples: int = 2000) -> list[np.ndarray]:
    """All equilibrium positions of the massless body in the open upper half plane.

    For primaries on the x-axis the y-component of the equilibrium equation
    holds exactly on the locus sum_j m_j / |a - a_j|^3 = mu, which is the
    graph of a unique y(x) > 0 wherever the on-axis value exceeds mu (the
    sum is strictly decreasing in y).  Scanning the x-component of the
    equation along that graph finds every off-line equilibrium; mirror
    images below the axis are omitted.  The reference for the descent in
    ``locate_offline_equilibria``.
    """
    m = config.masses.array
    pos = config.primary_positions
    if np.max(np.abs(pos[:, 1])) > 1e-10:
        raise DomainError("locus_scan_equilibria needs primaries on the x-axis")
    xs = pos[:, 0]
    mu = config.mu
    reach = float(np.max(np.abs(xs)) + mu ** (-1.0 / 3.0) + 1.0)

    def h(x, y):
        return float(np.sum(m / ((x - xs) ** 2 + y * y) ** 1.5)) - mu

    def y_on_locus(x):
        if h(x, 1e-9) <= 0.0:
            return None
        hi = 1e-6
        while h(x, hi) > 0.0:
            hi *= 2.0
            if hi > 1e6:
                return None
        return brentq(lambda y: h(x, y), 1e-9, hi, xtol=1e-14)

    def fx_on_locus(x):
        y = y_on_locus(x)
        if y is None:
            return None
        return float(np.sum(m * (xs - x) / ((x - xs) ** 2 + y * y) ** 1.5)) + mu * x

    grid = np.linspace(-reach, reach, samples)
    vals = [fx_on_locus(x) for x in grid]
    found: list[np.ndarray] = []
    for (xa, fa), (xb, fb) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
        if fa is None or fb is None or (fa > 0.0) == (fb > 0.0):
            continue
        xr = brentq(lambda x: fx_on_locus(x), xa, xb, xtol=1e-13)
        yr = y_on_locus(xr)
        if yr is not None:
            found.append(np.array([xr, yr]))
    return found


def hn_highprec(n, x, u, dps=64):
    """Naive term-by-term lattice mean at dps decimal digits."""
    import mpmath as mp

    with mp.workdps(dps):
        x = mp.mpf(x)
        u = mp.mpf(u)
        total = mp.mpf(0)
        for j in range(1, n + 1):
            c = mp.cos(2 * mp.pi * j / n + u)
            total += (1 - x * c) / (1 + x * x - 2 * x * c) ** mp.mpf(1.5)
        return float(total / n)


def symmetric_y_highprec(m2, dps=40):
    """Height parameter of the symmetric chain via mpmath root finding."""
    import mpmath as mp

    with mp.workdps(dps):
        m2 = mp.mpf(m2)

        def f(y):
            val = (1 - m2) / (y * y + 1) ** mp.mpf(1.5) - (1 + 7 * m2) / 8
            if m2 != 0:
                val += m2 / y**3
            return val

        return float(mp.findroot(f, mp.mpf("1.3")))


def routh_beta(m1, m2, m3):
    """Equilateral-family mass parameter 27 (m1 m2 + m2 m3 + m3 m1) / (sum m)^2."""
    return 27.0 * (m1 * m2 + m2 * m3 + m3 * m1) / (m1 + m2 + m3) ** 2


def operator_spectrum_e0(alpha, beta, rho, nmax):
    """Closed-form circular-case operator spectrum on the twisted domain.

    After rotating coordinates the operator becomes autonomous; each twisted
    frequency nu in Z + rho contributes the 2x2 block eigenvalues
    nu^2 + 1 + alpha +- sqrt(beta^2 + 4 nu^2).
    """
    out = []
    for k in range(-nmax, nmax + 1):
        nu = k + rho
        s = math.sqrt(beta * beta + 4.0 * nu * nu)
        out.append(nu * nu + 1.0 + alpha - s)
        out.append(nu * nu + 1.0 + alpha + s)
    return np.sort(out)


# S(t) = (e^{2it} N_plus + e^{-2it} N_minus) / 2
N_PLUS = np.array([[1.0, -1.0j], [-1.0j, -1.0]])
N_MINUS = np.array([[1.0, 1.0j], [1.0j, -1.0]])


def complex_galerkin_operator(p: StabilityParams, rho: float, K: int) -> np.ndarray:
    """Galerkin matrix of the stability operator in the twisted Fourier basis
    e^{i (k + rho) t}.

    Size 2(2K+1), exactly Hermitian; at e = 0 the matrix is banded with
    couplings only at |j - k| in {0, 2}.
    """
    if K < 8:
        raise DomainError("K must be at least 8")
    if p.e > 0.99:
        raise DomainError(f"eccentricity {p.e} exceeds the supported limit 0.99")
    alpha, beta = p.alpha, p.beta
    modes = np.arange(-K, K + 1) + rho
    c = r_e_fourier_coefficients(p.e, 2 * K + 2)

    # scalar Toeplitz blocks: C0[j,k] = c_|j-k|, CP[j,k] = c_|j-k-2|
    idx = np.arange(2 * K + 1)
    c0 = toeplitz(c[idx])
    cp = toeplitz(c[np.abs(idx - 2)], c[idx + 2])
    diag = np.diag(modes**2 - 1.0)

    h = np.kron(diag + (1.0 + alpha) * c0, np.eye(2)).astype(complex)
    h += 0.5 * beta * (np.kron(cp, N_PLUS) + np.kron(cp.T, N_MINUS))
    return h


def kernel_tol(h: np.ndarray) -> float:
    """The kernel band ``morse_index`` sizes from its first level's matrix ``h``."""
    return KERNEL_TOL_FACTOR * _norm(h)


def full_matrix_morse_counts(
    p: StabilityParams, rho: float, levels: tuple[int, ...] = DEFAULT_LEVELS
) -> tuple[int, int, int]:
    """(phi, nu, num_modes) of ``morse_index``'s ladder with every level
    solved as one matrix: no reflection blocks at w = 1."""
    prev = tol = None
    for K in levels:
        h = assemble_operator(p, rho, K)
        if tol is None:
            tol = kernel_tol(h)
        vals = np.linalg.eigvalsh(h)
        counts = (int(np.count_nonzero(vals < -tol)), int(np.count_nonzero(np.abs(vals) <= tol)))
        if counts == prev:
            return (*counts, 2 * K + 1)
        prev = counts
    raise ConvergenceError(f"Morse index did not stabilize up to K={levels[-1]}")


def _ladder_counts(h: np.ndarray, tol: float, reflect: bool) -> tuple[int, int, float, float]:
    vals = _reflected_eigenvalues(h) if reflect else np.linalg.eigvalsh(h)
    phi = int(np.count_nonzero(vals < -tol))
    nu = int(np.count_nonzero(np.abs(vals) <= tol))
    nonkernel = np.abs(vals)[np.abs(vals) > tol]
    gap = float(nonkernel.min()) if nonkernel.size else float("inf")
    return phi, nu, float(vals.min()), gap


def ladder_morse_index(p: StabilityParams, rho: float) -> IndexResult:
    """Stabilized Morse index phi_w and nullity nu_w of the operator.

    The truncation level escalates through DEFAULT_LEVELS until two consecutive
    levels agree on both counts; disagreement at the last level raises a
    convergence error carrying the last two counts.  The kernel band is
    sized once, from the base-level matrix norm: a band that widened with
    the truncation would swallow genuinely small eigenvalues and the counts
    could never stabilize near them.  At w = 1 each level is solved as its
    two reflection blocks.

    This is the heuristic ``morse_index`` used before the certified bracket;
    the tests hold the bracket's (phi, nu) to it.
    """
    prev: tuple[int, int] | None = None
    tol = None
    for K in DEFAULT_LEVELS:
        h = assemble_operator(p, rho, K)
        if tol is None:
            tol = kernel_tol(h)
        phi, nu, min_eig, gap = _ladder_counts(h, tol, rho == 0.0)
        if prev == (phi, nu):
            return IndexResult(
                phi=phi,
                nu=nu,
                num_modes=2 * K + 1,
                min_eigenvalue=min_eig,
                kernel_gap=gap,
            )
        prev = (phi, nu)
    raise ConvergenceError(
        f"Morse index did not stabilize up to K={DEFAULT_LEVELS[-1]}; last counts {prev}"
    )


def monodromy_eigs_e0(lam3, lam4):
    """Circular-case multipliers from the exponent quartic.

    Exponents x solve (lam3 - x^2)(lam4 - x^2) + 4 x^2 = 0; the multipliers
    are exp(2 pi x).
    """
    xs = np.roots([1.0, 0.0, 4.0 - lam3 - lam4, 0.0, lam3 * lam4])
    return np.exp(2.0 * np.pi * xs)


def sorted_eigvals(m):
    """Eigenvalues of ``m`` from the eigenvalues-only LAPACK solve, cast to
    complex and sorted by real, then imaginary part."""
    return tuple(np.sort_complex(np.linalg.eigvals(m)))


def diamond(*blocks):
    """Symplectic direct sum of 2x2 blocks in (Z1, Z2, z1, z2) coordinates."""
    n = len(blocks)
    out = np.zeros((2 * n, 2 * n))
    for i, b in enumerate(blocks):
        idx = [i, i + n]
        out[np.ix_(idx, idx)] = np.asarray(b, dtype=float)
    return out


def rot(a):
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def match_eigs(a, b):
    """Max eigenvalue distance under optimal pairing (independent pairing code)."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    worst = 0.0
    for x in a:
        j = int(np.argmin([abs(x - y) for y in b]))
        worst = max(worst, abs(x - b[j]))
        b.pop(j)
    return worst


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """Dense matrix exponential by scaling and squaring with a Taylor tail.

    Written as an independent oracle for the constant-coefficient (e = 0)
    monodromy; accuracy is limited only by rounding for the small matrices
    used here.
    """
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError("matrix_exponential needs a square matrix")
    norm = float(np.max(np.sum(np.abs(mat), axis=1)))
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    scaled = mat / (2.0**squarings)
    result = np.eye(mat.shape[0])
    term = np.eye(mat.shape[0])
    for k in range(1, 60):
        term = term @ scaled / k
        result = result + term
        if float(np.max(np.abs(term))) < 1e-20 * (1.0 + float(np.max(np.abs(result)))):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def eigenvalue_quadruple_residual(eigenvalues: Sequence[complex]) -> float:
    """How far the set is from closure under w -> 1/w and w -> conj(w)."""
    eigs = np.asarray(eigenvalues, dtype=complex)
    worst = 0.0
    for lam in eigs:
        for image in (1.0 / lam, np.conj(lam)):
            worst = max(worst, float(np.min(np.abs(eigs - image))))
    return worst


def spectral_distance(eigs_a, eigs_b) -> float:
    """Max distance under the optimal pairing of two eigenvalue multisets."""
    a = np.asarray(eigs_a, dtype=complex)
    b = np.asarray(eigs_b, dtype=complex)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def b_matrix_d_form(d: DMatrix, e: float, theta: float) -> np.ndarray:
    """Coefficient matrix carrying the full (undiagonalized) D block."""
    if not 0.0 <= e < 1.0:
        raise DomainError(f"eccentricity must lie in [0, 1), got {e}")
    re = 1.0 / (1.0 + e * math.cos(theta))
    out = np.empty((4, 4))
    out[:2, :2] = I2
    out[:2, 2:] = -J2
    out[2:, :2] = J2
    out[2:, 2:] = I2 - re * d.entries
    return out


def integrate_coefficient_path(
    b_of_theta: Callable[[float], np.ndarray], tol: float = DEFAULT_TOL, t_eval=None
):
    """Generic fundamental-solution integration for an arbitrary B(theta).

    Returns (gamma(2*pi), list of intermediate gamma samples) where the
    samples follow ``t_eval`` (empty when t_eval is None).  Same DOP853
    settings as ``integrate_fundamental``.
    """

    def rhs(theta, y):
        return (J4 @ b_of_theta(theta) @ y.reshape(4, 4)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, TWO_PI),
        np.eye(4).ravel(),
        method="DOP853",
        rtol=tol,
        atol=tol,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise ConvergenceError(f"fundamental-solution integration failed: {sol.message}")
    samples = [sol.y[:, i].reshape(4, 4) for i in range(sol.y.shape[1])] if t_eval is not None else []
    return sol.y[:, -1].reshape(4, 4), samples


def integrate_fundamental_rows(p: StabilityParams, tol: float = DEFAULT_TOL):
    """``integrate_fundamental`` with its earlier right-hand side, which forms
    the rows of J B(theta) gamma as numpy row operations.

    Returns (gamma(2*pi), nfev, step count).  Same DOP853 settings as
    ``integrate_fundamental``, whose right-hand side must reproduce all three
    bit for bit.
    """
    e = p.e
    lam3, lam4 = p.lambda3, p.lambda4

    def rhs(theta, y):
        g0 = 1.0 - lam3 / (1.0 + e * math.cos(theta))
        g1 = 1.0 - lam4 / (1.0 + e * math.cos(theta))
        yy = y.reshape(4, 4)
        return np.concatenate(
            (
                yy[1] - g0 * yy[2],
                -yy[0] - g1 * yy[3],
                yy[0] + yy[3],
                yy[1] - yy[2],
            )
        )

    sol = solve_ivp(
        rhs,
        (0.0, TWO_PI),
        np.eye(4).ravel(),
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=False,
    )
    if not sol.success:
        raise ConvergenceError(f"fundamental-solution integration failed: {sol.message}")
    return sol.y[:, -1].reshape(4, 4), int(sol.nfev), len(sol.t) - 1


def integrate_fundamental_solve_ivp(p: StabilityParams, tol: float = DEFAULT_TOL):
    """The scalar right-hand side ``integrate_fundamental`` had before its
    batched one, stepped by ``scipy.integrate.solve_ivp`` as it was before
    the in-house DOP853.

    Returns (gamma(2*pi), nfev, step count), all three of which
    ``integrate_fundamental`` must reproduce bit for bit.
    """
    e = p.e
    lam3, lam4 = p.lambda3, p.lambda4

    def rhs(theta, y):
        a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = y.tolist()
        den = 1.0 + e * math.cos(theta)
        g0 = 1.0 - lam3 / den
        g1 = 1.0 - lam4 / den
        return np.array(
            (
                b0 - g0 * c0, b1 - g0 * c1, b2 - g0 * c2, b3 - g0 * c3,
                -a0 - g1 * d0, -a1 - g1 * d1, -a2 - g1 * d2, -a3 - g1 * d3,
                a0 + d0, a1 + d1, a2 + d2, a3 + d3,
                b0 - c0, b1 - c1, b2 - c2, b3 - c3,
            )
        )

    sol = solve_ivp(
        rhs,
        (0.0, TWO_PI),
        np.eye(4).ravel(),
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=False,
    )
    if not sol.success:
        raise ConvergenceError(f"fundamental-solution integration failed: {sol.message}")
    return sol.y[:, -1].reshape(4, 4), int(sol.nfev), len(sol.t) - 1


def sample_symplectic_residuals(
    p: StabilityParams, tol: float = DEFAULT_TOL, samples: int = 64
) -> np.ndarray:
    """Symplectic residual of gamma(theta) at evenly spaced theta samples."""
    t_eval = np.linspace(0.0, TWO_PI, samples + 1)
    _, mats = integrate_coefficient_path(lambda t: b_matrix(p, t), tol, t_eval=t_eval)
    return np.array([symplectic_residual(m) for m in mats])


def frame_spectra_agreement(d: DMatrix, e: float, tol: float = DEFAULT_TOL) -> float:
    """Spectral distance between the D-form and K-form monodromies.

    The two coefficient paths are conjugate by a constant symplectic
    rotation, so the distance is pure integration error.
    """
    p = spectral_params(d, e)
    mono = integrate_fundamental(p, tol)
    gamma_d, _ = integrate_coefficient_path(lambda t: b_matrix_d_form(d, e, t), tol)
    return spectral_distance(mono.eigenvalues, np.linalg.eigvals(gamma_d))


def positivity_check(p: StabilityParams, omega_samples: int = 16) -> bool:
    """True when the operator is positive definite at every sampled omega.

    Samples rho = j / omega_samples on a uniform circle grid; positive
    definiteness at all omega certifies hyperbolicity of the monodromy.
    """
    if omega_samples < 16:
        raise DomainError("omega_samples must be at least 16")
    for j in range(omega_samples):
        result = morse_index(p, j / omega_samples)
        if result.phi > 0 or result.nu > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Coefficient matrix, symmetric chain, region labels and the nu_w cross-check
# ---------------------------------------------------------------------------

def rotation(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def spin_matrix(t: float) -> np.ndarray:
    """S(t) = R(t) diag(1, -1) R(t)^T = [[cos 2t, sin 2t], [sin 2t, -cos 2t]]."""
    c, s = math.cos(2.0 * t), math.sin(2.0 * t)
    return np.array([[c, s], [s, -c]])


def k_matrix(p: StabilityParams) -> np.ndarray:
    return np.diag([p.lambda3, p.lambda4])


def b_matrix(p: StabilityParams, theta: float) -> np.ndarray:
    """Coefficient matrix in the rotated-diagonal form, 2*pi-periodic in theta."""
    re = 1.0 / (1.0 + p.e * math.cos(theta))
    out = np.empty((4, 4))
    out[:2, :2] = I2
    out[:2, 2:] = -J2
    out[2:, :2] = J2
    out[2:, 2:] = I2 - re * k_matrix(p)
    return out


def symmetric_four_body(m2: float, guess: Sequence[float] | None = None) -> Configuration:
    """Full symmetric restricted 4-body chain: primaries plus massless body.

    m2 = 0 degenerates to two equal primaries; the middle body is dropped
    rather than stored with zero mass.
    """
    if not 0.0 <= m2 < 1.0:
        raise DomainError(f"m2 must lie in [0, 1), got {m2}")
    m1 = 0.5 * (1.0 - m2)
    if m2 > 0.0:
        config = collinear_three_primaries(MassSystem((m1, m2, m1)))
    else:
        config = Configuration.from_primaries(
            MassSystem((0.5, 0.5)), [(-1.0, 0.0), (1.0, 0.0)]
        )
    y = solve_symmetric_y(m2)
    start = (0.0, y * (1.0 - m2) ** -0.5) if guess is None else guess
    return restricted_position(config, start)


def region_of(beta: float, beta_s: float, beta_m: float, beta_k: float) -> str:
    """Region label I..IV of a beta value relative to the three curves."""
    if beta < beta_s:
        return "I"
    if beta < beta_m:
        return "II"
    if beta < beta_k:
        return "III"
    return "IV"


@dataclass(frozen=True)
class ConsistencyReport:
    """Cross-checks between operator indices and the monodromy spectrum."""

    params: StabilityParams
    omegas: tuple[complex, ...]
    nu_operator: tuple[int, ...]
    nu_monodromy: tuple[int, ...]
    phi_1: int
    phi_m1: int
    jump_from_indices: int
    jump_from_monodromy: int | None

    @property
    def nu_consistent(self) -> bool:
        return self.nu_operator == self.nu_monodromy

    @property
    def jump_consistent(self) -> bool | None:
        if self.jump_from_monodromy is None:
            return None
        return self.jump_from_indices == self.jump_from_monodromy

    @property
    def consistent(self) -> bool:
        return self.nu_consistent and self.jump_consistent is not False


def index_monodromy_consistency(
    p: StabilityParams,
    *,
    tol: float = DEFAULT_TOL,
    circle_tol: float = DEFAULT_CIRCLE_TOL,
    extra_rhos: tuple[float, ...] = (0.1, 0.25),
    monodromy: Monodromy | None = None,
) -> ConsistencyReport:
    """Check nu_w against dim ker(gamma(2*pi) - w I) and the index jump sum.

    The jump check compares phi_{-1} - phi_1 with the total signed splitting
    jump read off the on-circle monodromy eigenvalues; a discrepancy is
    reported in the result, never raised.
    """
    mono = monodromy if monodromy is not None else integrate_fundamental(p, tol)
    omegas = [1.0 + 0.0j, -1.0 + 0.0j] + [cmath.exp(2j * math.pi * r) for r in extra_rhos]
    indices = [morse_index(p, r) for r in (0.0, 0.5, *extra_rhos)]
    phi1, phim1 = indices[0].phi, indices[1].phi
    return ConsistencyReport(
        params=p,
        omegas=tuple(omegas),
        nu_operator=tuple(res.nu for res in indices),
        nu_monodromy=tuple(kernel_dimension(mono, w, circle_tol) for w in omegas),
        phi_1=phi1,
        phi_m1=phim1,
        jump_from_indices=phim1 - phi1,
        jump_from_monodromy=circle_jump_sum(mono, circle_tol),
    )


# ---------------------------------------------------------------------------
# Polygon large-m0 limits (acceptance criterion C9)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolygonLimitRow:
    m0_over_M: float
    rho: float
    a_ratio: float       # A / w^2
    b_ratio: float       # |B| / w^2
    l2: float
    l3: float
    lambda3: float
    lambda4: float


def polygon_limits(n: int, m0_over_M_list, site: Site) -> list[PolygonLimitRow]:
    """Tabulate the site quantities along a list of central-mass ratios."""
    rows = []
    for ratio in m0_over_M_list:
        sys = PolygonSystem.from_mass_ratio(n, float(ratio))
        b = solve_site(sys, site)
        rows.append(
            PolygonLimitRow(
                m0_over_M=float(ratio),
                rho=b.rho,
                a_ratio=b.A / b.omega_sq,
                b_ratio=abs(b.B) / b.omega_sq,
                l2=b.l2,
                l3=b.l3,
                lambda3=b.lambda3,
                lambda4=b.lambda4,
            )
        )
    return rows


def polygon_alpha(sys: PolygonSystem) -> float:
    """Vertex-circle radius alpha = 1/sqrt(M) of the laid-out (1+n)-gon."""
    return 1.0 / math.sqrt(sys.M)


def polygon_configuration(sys: PolygonSystem, bang: BangQuantities) -> Configuration:
    """Explicit planar configuration (vertices, center, massless site).

    Cross-validates the lattice-sum route: the returned Configuration
    recomputes mu = U(a) from the positions, and mu * alpha^3 equals
    omega_sq up to rounding.
    """
    alpha = polygon_alpha(sys)
    verts = alpha * sys.vertices()
    positions = [(v.real, v.imag) for v in verts] + [(0.0, 0.0)]
    masses = MassSystem(tuple([sys.m] * sys.n + [sys.m0]))
    w0 = alpha * bang.rho * complex(math.cos(bang.theta), math.sin(bang.theta))
    return Configuration.from_primaries(masses, positions).with_massless((w0.real, w0.imag))
