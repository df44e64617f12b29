"""Central configurations of collinear primaries and the off-line equilibrium
of a massless body.

All configurations are stored in normalized units: the primaries' center of
mass sits at the origin and sum(m_i |a_i|^2) = 1, so the configuration
multiplier mu equals the potential U(a) of the primaries.  Raw positions
passed to the constructors are recentered and rescaled automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import (
    ConvergenceError,
    DegenerateSolutionError,
    DomainError,
    InvariantViolation,
    SingularityError,
)

SQRT3 = math.sqrt(3.0)

MASS_SUM_TOL = 1e-14
CC_RESIDUAL_TOL = 1e-10
MAX_ITER = 200  # iteration cap of the Moulton and restricted-position solvers


@dataclass(frozen=True)
class MassSystem:
    """Masses of the primaries.  The massless body is never stored here.

    Masses must be positive and sum to one (collinear family convention
    m_1 + ... + m_k = 1; the polygon family's m_0 + n*m = 1 is the same
    constraint).  Use :meth:`normalized` to rescale raw masses.
    """

    masses: tuple[float, ...]

    def __post_init__(self):
        if len(self.masses) < 2:
            raise DomainError("a mass system needs at least two primaries")
        if any(not (m > 0.0) for m in self.masses):
            raise DomainError(f"all primary masses must be positive, got {self.masses}")
        if abs(math.fsum(self.masses) - 1.0) > MASS_SUM_TOL:
            raise DomainError(
                "primary masses must sum to 1; use MassSystem.normalized to rescale"
            )

    @classmethod
    def normalized(cls, masses: Sequence[float]):
        total = math.fsum(float(m) for m in masses)
        if not total > 0.0:
            raise DomainError("total mass must be positive")
        return cls(tuple(float(m) / total for m in masses))

    def __len__(self) -> int:
        return len(self.masses)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.masses, dtype=float)


def potential(masses: np.ndarray, positions: np.ndarray) -> float:
    """Newtonian potential U = sum_{i<j} m_i m_j / |a_i - a_j|."""
    total = 0.0
    k = len(masses)
    for i in range(k):
        for j in range(i + 1, k):
            r = math.hypot(
                positions[i, 0] - positions[j, 0], positions[i, 1] - positions[j, 1]
            )
            if r < 1e-12:
                raise SingularityError(f"primaries {i} and {j} are coincident")
            total += masses[i] * masses[j] / r
    return total


def _attraction(masses: np.ndarray, positions: np.ndarray, point: np.ndarray) -> np.ndarray:
    """sum_j m_j (a_j - p) / |a_j - p|^3 over all primaries."""
    diff = positions - point[None, :]
    r = np.hypot(diff[:, 0], diff[:, 1])
    if np.any(r < 1e-12):
        raise SingularityError("evaluation point coincides with a primary")
    return (masses[:, None] * diff / (r**3)[:, None]).sum(axis=0)


def cc_defect(masses: np.ndarray, positions: np.ndarray, mu: float) -> float:
    """Worst-case norm of the central-configuration equation defect.

    For each primary i the defect is sum_{j!=i} m_j (a_j - a_i)/|a_j - a_i|^3
    + mu a_i.
    """
    worst = 0.0
    k = len(masses)
    for i in range(k):
        others = np.delete(np.arange(k), i)
        f = _attraction(masses[others], positions[others], positions[i])
        worst = max(worst, float(np.hypot(*(f + mu * positions[i]))))
    return worst


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Configuration:
    """A normalized planar central configuration of the primaries.

    ``massless_position`` is None until the equilibrium of the massless body
    has been attached (see :func:`restricted_position`).
    """

    masses: MassSystem
    primary_positions: np.ndarray
    massless_position: np.ndarray | None
    mu: float
    cc_residual: float
    inertia_residual: float

    @classmethod
    def from_primaries(
        cls, masses: MassSystem, positions: Sequence[Sequence[float]]
    ) -> "Configuration":
        """Recenter, rescale and validate a raw configuration.

        Raises ConvergenceError if the recentered/rescaled positions do not
        satisfy the central-configuration equations to within 1e-10.
        """
        m = masses.array
        pos = np.array(positions, dtype=float).reshape(len(masses), 2)
        pos = pos - m @ pos
        inertia = float(np.sum(m * np.sum(pos * pos, axis=1)))
        if not inertia > 0.0:
            raise DomainError("degenerate configuration: zero moment of inertia")
        scale = 1.0 / math.sqrt(inertia)
        pos = pos * scale
        mu = potential(m, pos)
        residual = cc_defect(m, pos, mu)
        if residual > CC_RESIDUAL_TOL:
            raise ConvergenceError(
                "positions do not satisfy the central-configuration equations",
                residual=residual,
            )
        inertia_res = abs(float(np.sum(m * np.sum(pos * pos, axis=1))) - 1.0)
        return cls(
            masses=masses,
            primary_positions=_readonly(pos),
            massless_position=None,
            mu=mu,
            cc_residual=residual,
            inertia_residual=inertia_res,
        )

    def with_massless(self, position: Sequence[float]) -> "Configuration":
        """Attach a massless-body position without renormalizing the primaries.

        ``cc_residual`` becomes the larger of the primaries' defect and the
        norm of the massless body's equilibrium equation, the gradient of the
        amended potential V at ``position``.
        """
        p = np.asarray(position, dtype=float).reshape(2)
        grad = _amended_potential(self, p)[1]
        residual = max(self.cc_residual, float(np.hypot(*grad)))
        return Configuration(
            masses=self.masses,
            primary_positions=self.primary_positions,
            massless_position=_readonly(p),
            mu=self.mu,
            cc_residual=residual,
            inertia_residual=self.inertia_residual,
        )


# ---------------------------------------------------------------------------
# Euler three-body spacing quintic
# ---------------------------------------------------------------------------

def euler_quintic_coefficients(m1: float, m2: float, m3: float) -> np.ndarray:
    """Coefficients (highest degree first) of the collinear spacing quintic.

    The root x is the ratio |q1-q2| / |q2-q3| for bodies ordered
    (m1, m2, m3) from left to right on the line.
    """
    return np.array(
        [
            m3 + m2,
            3.0 * m3 + 2.0 * m2,
            3.0 * m3 + m2,
            -(3.0 * m1 + m2),
            -(3.0 * m1 + 2.0 * m2),
            -(m1 + m2),
        ]
    )


def solve_euler_quintic(m1: float, m2: float, m3: float) -> float:
    """Unique positive root of the collinear spacing quintic.

    By Descartes' rule the coefficient sequence has exactly one sign change,
    so the positive root is unique.  The root is bracketed by a sign scan on
    10^4 log-spaced points of (0, 100) and refined with Brent's method plus
    two Newton polish steps.
    """
    if min(m1, m2, m3) <= 0.0:
        raise DomainError("masses must be positive")
    coeffs = euler_quintic_coefficients(m1, m2, m3)
    deriv = np.polyder(coeffs)
    grid = np.geomspace(1e-8, 100.0, 10_000)
    vals = np.polyval(coeffs, grid)
    exact = np.flatnonzero(vals == 0.0)
    if exact.size:
        x = float(grid[exact[0]])
    else:
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


def collinear_three_primaries(masses: MassSystem) -> Configuration:
    """Collinear central configuration of three primaries ordered left to right."""
    if len(masses) != 3:
        raise DomainError("collinear_three_primaries needs a 3-mass collinear system")
    x = solve_euler_quintic(*masses.masses)
    raw = [(0.0, 0.0), (x, 0.0), (1.0 + x, 0.0)]
    return Configuration.from_primaries(masses, raw)


# ---------------------------------------------------------------------------
# Damped Newton iteration shared by the configuration solvers
# ---------------------------------------------------------------------------

def _damped_newton(residual, newton_step, x: np.ndarray, tol: float, name: str) -> np.ndarray:
    """Solve residual(x) = 0 by Newton steps halved until the max-norm drops.

    ``residual(x)`` returns the residual vector and whatever ``newton_step``
    needs besides it; ``newton_step(x, res, extra)`` returns the full step.
    Each step is halved up to 30 times, and a trial point where ``residual``
    raises SingularityError counts as no progress.  Stops once the max-norm
    is below ``tol``; raises ConvergenceError if 30 halvings do not reduce
    it or MAX_ITER steps do not reach ``tol``.
    """
    res, extra = residual(x)
    norm = float(np.max(np.abs(res)))
    for _ in range(MAX_ITER):
        if norm < tol:
            return x
        step = newton_step(x, res, extra)
        scale = 1.0
        for _ in range(30):
            trial = x + scale * step
            try:
                trial_res, trial_extra = residual(trial)
            except SingularityError:
                scale *= 0.5
                continue
            if np.max(np.abs(trial_res)) < norm:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"{name} stalled (30 halvings without progress)", residual=norm
            )
        x, res, extra = trial, trial_res, trial_extra
        norm = float(np.max(np.abs(res)))
    raise ConvergenceError(f"{name} did not converge in {MAX_ITER} iterations", residual=norm)


# ---------------------------------------------------------------------------
# General collinear configurations (any number of primaries, fixed ordering)
# ---------------------------------------------------------------------------

def _line_positions(masses: np.ndarray, log_gaps: np.ndarray, ordering) -> np.ndarray:
    gaps = np.exp(log_gaps)
    coords = np.concatenate(([0.0], np.cumsum(gaps)))
    x = np.empty(len(masses))
    x[list(ordering)] = coords
    return x - masses @ x


def _line_cc_residual(masses: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Residual of the collinear CC equations with the multiplier fixed to 1;
    # valid because the equation set is scale covariant.
    dx = x[None, :] - x[:, None]
    r = np.abs(dx)
    np.fill_diagonal(r, 1.0)
    force = (masses[None, :] * dx / r**3).sum(axis=1)
    return force + x


def moulton_collinear(
    masses: MassSystem,
    ordering: Sequence[int] | None = None,
) -> Configuration:
    """Collinear central configuration of k >= 2 primaries in a fixed ordering.

    The Moulton count guarantees exactly one configuration per ordering.  The
    solver runs a damped Gauss-Newton iteration on the logarithms of the
    k-1 gap lengths (keeping every gap positive) with the multiplier pinned
    to 1; the result is rescaled to the standard normalization.
    """
    k = len(masses)
    if ordering is None:
        ordering = tuple(range(k))
    if sorted(ordering) != list(range(k)):
        raise DomainError(f"ordering must be a permutation of 0..{k - 1}")
    m = masses.array

    def residual(u):
        return _line_cc_residual(m, _line_positions(m, u, ordering)), None

    def gauss_newton_step(u, res, _):
        h = 1e-7
        jac = np.column_stack(
            [(residual(u + h * d)[0] - residual(u - h * d)[0]) / (2.0 * h) for d in np.eye(k - 1)]
        )
        return np.linalg.lstsq(jac, -res, rcond=None)[0]

    u = _damped_newton(residual, gauss_newton_step, np.zeros(k - 1), 1e-12, "Moulton iteration")
    x = _line_positions(m, u, ordering)
    return Configuration.from_primaries(masses, np.column_stack([x, np.zeros(k)]))


# ---------------------------------------------------------------------------
# Equilibrium of the massless body off the primaries' line
# ---------------------------------------------------------------------------

def _amended_potential(config: Configuration, point: np.ndarray):
    """V(a) = sum_j m_j/|a - a_j| + mu |a|^2 / 2, its gradient and Hessian.

    The gradient sum_j m_j (a_j - a)/|a_j - a|^3 + mu a is the equilibrium
    equation of the massless body and the Hessian is its Jacobian.
    """
    m = config.masses.array
    diff = config.primary_positions - point[None, :]
    r = np.hypot(diff[:, 0], diff[:, 1])
    if np.any(r < 1e-12):
        raise SingularityError("massless body hit a primary")
    r3 = r**3
    value = float(np.sum(m / r)) + 0.5 * config.mu * float(point @ point)
    grad = (m[:, None] * diff / r3[:, None]).sum(axis=0) + config.mu * point
    outer = np.einsum("k,ki,kj->ij", m / r**5, diff, diff)
    hess = 3.0 * outer - np.eye(2) * float(np.sum(m / r3)) + config.mu * np.eye(2)
    return value, grad, hess


def restricted_position(
    config: Configuration, guess: Sequence[float] = (0.0, 1.0)
) -> Configuration:
    """Solve for the off-line equilibrium position of the massless body.

    The position a solves sum_j m_j (a_j - a)/|a_j - a|^3 = -mu a with mu
    fixed by the primaries.  A damped 2D Newton iteration starts from
    ``guess`` (default (0, 1) in normalized units).  At any off-line
    solution the y-component of the equation forces the identity
    mu = sum_j m_j / |a_j - a|^3, which is verified to 1e-9.

    Parameters
    ----------
    config : Configuration
        Valid collinear configuration of the primaries (on the x-axis).
    guess : pair of floats
        Starting point; must not lie on the primaries' line.
    """
    a = np.asarray(guess, dtype=float).reshape(2)
    if abs(a[1]) < 1e-12:
        raise DomainError("guess must lie off the primaries' line")
    a = _damped_newton(
        lambda x: _amended_potential(config, x)[1:],
        lambda x, f, jac: np.linalg.solve(jac, -f),
        a,
        1e-11,
        "restricted-position Newton",
    )
    if abs(a[1]) < 1e-8:
        raise DegenerateSolutionError(
            "Newton converged to a point on the primaries' line; "
            "choose a different guess"
        )
    diff = config.primary_positions - a[None, :]
    r = np.hypot(diff[:, 0], diff[:, 1])
    mu_check = float(np.sum(config.masses.array / r**3))
    if abs(config.mu - mu_check) > 1e-9:
        raise InvariantViolation(
            f"off-line multiplier identity violated: |mu - sum m_j/r^3| = "
            f"{abs(config.mu - mu_check):.3e}"
        )
    return config.with_massless(a)


def locate_offline_equilibria(
    config: Configuration, guess: Sequence[float] = (0.0, 1.0)
) -> np.ndarray:
    """An off-line equilibrium of the massless body in the upper half plane.

    Descends the amended potential V (see :func:`_amended_potential`) by an
    exact-Hessian trust region from ``guess`` mirrored into y > 0.  For
    primaries on the x-axis the Hessian of V at an off-line equilibrium is
    mu D with eigenvalues lambda_3 + lambda_4 = 3 and
    lambda_3 - lambda_4 = 3 |sum_j m_j z_j^2 / r_j^5| / mu <= 3, where z_j
    is a - a_j as a complex number and r_j = |z_j|.  So every off-line
    equilibrium is a local minimum of V, while the on-line ones,
    where Newton degenerates, are saddles a descent leaves.  Raises
    DegenerateSolutionError if the descent still ends on the line.
    """
    if np.max(np.abs(config.primary_positions[:, 1])) > 1e-10:
        raise DomainError("locate_offline_equilibria needs primaries on the x-axis")
    start = np.array([guess[0], abs(guess[1])], dtype=float)
    res = minimize(
        lambda a: _amended_potential(config, a)[:2],
        start,
        jac=True,
        hess=lambda a: _amended_potential(config, a)[2],
        method="trust-exact",
        options={"gtol": 1e-10},
    )
    x, y = res.x
    if abs(y) < 1e-8:
        raise DegenerateSolutionError("the descent ended on the primaries' line")
    return np.array([x, abs(y)])


def offline_equilibrium(config: Configuration, guess: Sequence[float] = (0.0, 1.0)) -> Configuration:
    """Robust off-line equilibrium: Newton first, a descent of V as fallback.

    Tries :func:`restricted_position` from ``guess``; if the iteration
    degenerates onto the primaries' line, re-seeds it at the minimum of the
    amended potential that :func:`locate_offline_equilibria` descends to
    from the guess.
    """
    try:
        return restricted_position(config, guess)
    except ConvergenceError:
        return restricted_position(config, locate_offline_equilibria(config, guess))


def solve_symmetric_y(m2: float) -> float:
    """Height parameter y of the massless body for the symmetric 4-body chain.

    For primaries (m1, m2, m1) with m1 = (1 - m2)/2 the massless body sits at
    (0, y (1 - m2)^(-1/2)) where y solves

        (1 - m2)/(y^2 + 1)^(3/2) + m2/y^3 = (1 + 7 m2)/8.

    y decreases strictly from sqrt(3) at m2 = 0 toward 1 as m2 -> 1.
    """
    if not 0.0 <= m2 < 1.0:
        raise DomainError(f"m2 must lie in [0, 1), got {m2}")
    rhs = (1.0 + 7.0 * m2) / 8.0

    def g(y):
        val = (1.0 - m2) / (y * y + 1.0) ** 1.5 - rhs
        if m2:
            val += m2 / y**3
        return val

    y = brentq(g, 1.0 - 1e-9, SQRT3 + 1e-6, xtol=1e-15)
    return float(min(max(y, 1.0), SQRT3))
