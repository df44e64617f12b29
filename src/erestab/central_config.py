"""Central configurations of collinear primaries and the off-line equilibrium
of a massless body.

All configurations are stored in normalized units: the primaries' center of
mass sits at the origin and sum(m_i |a_i|^2) = 1, so the configuration
multiplier mu equals the potential U(a) of the primaries.  Raw positions
passed to the constructors are recentered and rescaled automatically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSolutionError,
    DomainError,
    ErestabError,
    InvariantViolation,
    SingularityError,
    caught,
    unwrap,
)

SQRT3 = math.sqrt(3.0)

MASS_SUM_TOL = 1e-14
CC_RESIDUAL_TOL = 1e-10
MAX_ITER = 200  # iteration cap of the Moulton and restricted-position solvers
HIT_PRIMARY = "massless body hit a primary"


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


def cc_defect(masses: np.ndarray, positions: np.ndarray, mu: float) -> float:
    """Worst-case norm of the central-configuration equation defect.

    For each primary i the defect is sum_{j!=i} m_j (a_j - a_i)/|a_j - a_i|^3
    + mu a_i.  The j = i term is a zero offset over distance 1.  The sum over
    j runs in index order along a strided axis of a C-ordered array.
    """
    positions = np.ascontiguousarray(positions, dtype=float)
    diff = positions[None, :, :] - positions[:, None, :]
    r = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(r, 1.0)
    if np.any(r < 1e-12):
        raise SingularityError("evaluation point coincides with a primary")
    force = (masses[None, :, None] * diff / (r**3)[..., None]).sum(axis=1)
    defect = force + mu * positions
    return float(np.max(np.hypot(defect[:, 0], defect[:, 1])))


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
        return _attach_massless(self, p, _config_derivatives(self, p)[0])


def _attach_massless(config: Configuration, p: np.ndarray, grad: np.ndarray) -> Configuration:
    residual = max(config.cc_residual, float(np.hypot(*grad)))
    return replace(config, massless_position=_readonly(p), cc_residual=residual)


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


@functools.cache
def _scan_grid() -> np.ndarray:
    """The quintic's sign-scan points: 10^4 log-spaced on [1e-8, 100]."""
    grid = np.geomspace(1e-8, 100.0, 10_000)
    grid.setflags(write=False)
    return grid


def _horner(coeffs: list[float], x: float) -> float:
    """The polynomial ``coeffs`` (highest degree first) at x by Horner's rule,
    with np.polyval's operations in its order, so with its bits."""
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def solve_euler_quintic(m1: float, m2: float, m3: float) -> float:
    """Unique positive root of the collinear spacing quintic.

    By Descartes' rule the coefficient sequence has exactly one sign change,
    so the positive root is unique.  The root is bracketed by a sign scan on
    10^4 log-spaced points of (0, 100) and refined with Brent's method plus
    two Newton polish steps.

    Only the sign scan is a numpy array operation (one ``np.polyval`` over
    the grid, built on first use); Brent's callback, the polish and the
    residual check evaluate the quintic on Python floats by :func:`_horner`,
    which rounds as ``np.polyval`` on a scalar does at a fraction of its
    per-call cost.
    """
    from scipy.optimize import brentq

    if not all(0.0 < m < math.inf for m in (m1, m2, m3)):
        raise DomainError(f"masses must be positive and finite, got {(m1, m2, m3)}")
    coeffs = euler_quintic_coefficients(m1, m2, m3)
    grid = _scan_grid()
    vals = np.polyval(coeffs, grid)
    flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    if flips.size == 0:
        raise ConvergenceError("no sign change of the quintic on (0, 100)")
    i = int(flips[0])
    c = coeffs.tolist()
    deriv = [ci * (len(c) - 1 - k) for k, ci in enumerate(c[:-1])]
    x = brentq(lambda t: _horner(c, t), float(grid[i]), float(grid[i + 1]), xtol=1e-15)
    for _ in range(2):
        x -= _horner(c, x) / _horner(deriv, x)
    scaled = abs(_horner(c, x)) / max(abs(ci) for ci in c)
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

def _damped_newton(
    residual, newton_step, x: np.ndarray, args: tuple, tol: float, name: str
) -> list:
    """Solve residual(x) = 0 from every starting point of the batch ``x``
    (points, n) by Newton steps halved until the max-norm drops.

    ``residual(x, *a)`` evaluates the rows of ``x``, ``a`` being ``args``
    cut to the points still iterating, as ``_dop853`` cuts its own: it
    returns their residual rows, a tuple of arrays with a row per point that
    ``newton_step`` needs besides them, and the mask of the points that hit
    a primary there.  ``newton_step(x, res, extra)`` returns full steps.
    Each point has its own step, scale, halvings and iteration count: each
    step is halved up to 30 times, and a trial that hits a primary counts as
    no progress for its point only.  A round evaluates one trial of every
    point still iterating, so each point takes the steps it would take
    alone, bit for bit.

    Returns, per point, (x, res, extra) of its last evaluation once the
    max-norm is below ``tol`` (the last point evaluated is always the one
    returned), or the error that ended it: SingularityError if it starts on
    a primary, ConvergenceError if 30 halvings do not reduce the max-norm or
    MAX_ITER steps do not reach ``tol``.
    """
    out: list = [None] * len(x)
    rows = np.arange(len(x))  # the points still iterating, in batch order
    x = np.array(x, dtype=float)
    res, extra, hit = residual(x, *args)
    for i in np.flatnonzero(hit):
        out[i] = SingularityError(HIT_PRIMARY)
    norm = np.max(np.abs(res), axis=1)
    step = np.empty_like(x)
    scale = np.ones(len(x))
    iters, halvings = np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=int)
    fresh = ~hit  # the point is at the top of a Newton step
    while True:
        capped = fresh & (iters == MAX_ITER)
        done = fresh & ~capped & (norm < tol)
        stalled = ~fresh & (halvings == 30)
        for j in np.flatnonzero(capped | done | stalled):
            if done[j]:
                out[rows[j]] = (x[j], res[j], tuple(e[j] for e in extra))
            elif capped[j]:
                out[rows[j]] = ConvergenceError(
                    f"{name} did not converge in {MAX_ITER} iterations", residual=float(norm[j])
                )
            else:
                out[rows[j]] = ConvergenceError(
                    f"{name} stalled (30 halvings without progress)", residual=float(norm[j])
                )
        stay = ~(hit | capped | done | stalled)
        if not stay.any():
            return out
        if not stay.all():
            rows, x, res, norm, step, scale, iters, halvings, fresh, hit = (
                a[stay] for a in (rows, x, res, norm, step, scale, iters, halvings, fresh, hit)
            )
            extra, args = tuple(e[stay] for e in extra), tuple(a[stay] for a in args)
        if fresh.all():
            step = newton_step(x, res, extra)
            scale[:] = 1.0
            halvings[:] = 0
        elif fresh.any():
            step[fresh] = newton_step(x[fresh], res[fresh], tuple(e[fresh] for e in extra))
            scale[fresh] = 1.0
            halvings[fresh] = 0
        trial = x + scale[:, None] * step
        trial_res, trial_extra, trial_hit = residual(trial, *args)
        trial_norm = np.max(np.abs(trial_res), axis=1)
        fresh = ~trial_hit & (trial_norm < norm)
        if fresh.all():
            x, res, extra, norm = trial, trial_res, trial_extra, trial_norm
        else:
            x[fresh], res[fresh], norm[fresh] = trial[fresh], trial_res[fresh], trial_norm[fresh]
            for e, t in zip(extra, trial_extra):
                e[fresh] = t[fresh]
            scale[~fresh] *= 0.5
            halvings[~fresh] += 1
        iters[fresh] += 1


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

    def line_residual(u):
        return _line_cc_residual(m, _line_positions(m, u, ordering))

    def residual(u):
        return line_residual(u[0])[None], (), np.zeros(1, dtype=bool)

    def gauss_newton_step(u, res, extra):
        h, v = 1e-7, u[0]
        jac = np.column_stack([
            (line_residual(v + h * d) - line_residual(v - h * d)) / (2.0 * h) for d in np.eye(k - 1)
        ])
        return np.linalg.lstsq(jac, -res[0], rcond=None)[0][None]

    solved = _damped_newton(
        residual, gauss_newton_step, np.zeros((1, k - 1)), (), 1e-12, "Moulton iteration"
    )
    u = unwrap(solved[0])[0]
    x = _line_positions(m, u, ordering)
    return Configuration.from_primaries(masses, np.column_stack([x, np.zeros(k)]))


# ---------------------------------------------------------------------------
# Equilibrium of the massless body off the primaries' line
# ---------------------------------------------------------------------------

def _check_guess(guess: Sequence[float]) -> np.ndarray:
    a = np.asarray(guess, dtype=float)
    if a.shape != (2,):
        raise DomainError(f"guess must be a pair (x, y), got {guess!r}")
    if not (math.isfinite(a[0]) and math.isfinite(a[1])):
        raise DomainError(f"guess must be finite, got {tuple(a.tolist())}")
    return a


def massless_sums(positions: np.ndarray, masses: np.ndarray, points: np.ndarray):
    """Distance sums of the massless body at a batch of points: with the
    offsets d_j = a_j - a of the primaries at ``positions`` (points, k, 2),
    masses ``masses`` (points, k), a = ``points`` (points, 2) and r_j =
    |d_j|, the array of r_j, s1 = sum_j m_j / r_j^3, the force
    sum_j m_j d_j / r_j^3 as (fx, fy) and the outer sum
    sum_j m_j d_j d_j^T / r_j^5 as ((xx, xy), (yx, yy)), one entry per
    point: the sums V's derivatives, the multiplier identity and D are built
    from.  The last item is the mask of the points closer than 1e-12 to a
    primary, whose sums mean nothing.  Without the leading axis the inputs
    are one point, and so are the outputs.

    ``np.hypot``, ``r**3`` and ``r**5`` are elementwise, and each sum is
    formed column by column in index order, ``0.0 + t_1 + ... + t_k``, the
    IEEE operations of a scalar ``+=`` loop and of ``einsum``, and so with
    their bits whatever else the batch holds.  An outer term is
    (w_j d_ji) d_jk with w_j = m_j / r_j^5, as ``einsum`` multiplies, so xy
    and yx may differ in the last bit.  numpy's ``sum`` adds in index order
    only below eight terms, so s1 of eight or more primaries is
    ``np.sum``'s over the last axis.
    """
    diff = positions - points[..., None, :]
    dx, dy = diff[..., 0], diff[..., 1]
    r = np.hypot(dx, dy)
    hit = (r < 1e-12).any(axis=-1)
    if hit.any():  # a distance of 1 keeps the point's garbage finite
        r = np.where(hit[..., None], 1.0, r)
    r3, r5 = r**3, r**5
    s1 = fx = fy = xx = xy = yx = yy = 0.0
    # primary j's terms: floats for one point, column j for a batch
    for mj, dxj, dyj, q3, q5 in zip(masses.T, dx.T, dy.T, r3.T, r5.T):
        s1 = s1 + mj / q3
        fx = fx + mj * dxj / q3
        fy = fy + mj * dyj / q3
        w = mj / q5
        xx = xx + w * dxj * dxj
        xy = xy + w * dxj * dyj
        yx = yx + w * dyj * dxj
        yy = yy + w * dyj * dyj
    if masses.shape[-1] >= 8:
        s1 = np.sum(masses / r3, axis=-1)
    return r, s1, (fx, fy), ((xx, xy), (yx, yy)), hit


def _derivatives(positions: np.ndarray, masses: np.ndarray, mu, points: np.ndarray):
    """Gradient of V (see :func:`_amended_potential`) at a batch of
    ``points``, then its Hessian, s1 and r from :func:`massless_sums`, and
    the mask of the points on a primary: the residual of the off-line
    equilibrium's Newton iteration and what its step, its multiplier
    identity and V's value read.  ``mu`` is each point's multiplier.

    The Hessian is 3 outer - s1 I + mu I entry by entry, as numpy formed it,
    so it keeps the outer sum's asymmetry in the last bit.
    """
    r, s1, (fx, fy), ((xx, xy), (yx, yy)), hit = massless_sums(positions, masses, points)
    grad = np.empty(points.shape)
    grad[..., 0] = fx + mu * points[..., 0]
    grad[..., 1] = fy + mu * points[..., 1]
    hess = np.empty(points.shape + (2,))
    hess[..., 0, 0] = 3.0 * xx - s1 + mu
    hess[..., 0, 1] = 3.0 * xy
    hess[..., 1, 0] = 3.0 * yx
    hess[..., 1, 1] = 3.0 * yy - s1 + mu
    return grad, (hess, s1, r), hit


def _config_derivatives(config: Configuration, point: np.ndarray):
    """:func:`_derivatives` at one point of ``config``; raises
    SingularityError if the point hits a primary."""
    grad, extra, hit = _derivatives(config.primary_positions, config.masses.array, config.mu, point)
    if hit:
        raise SingularityError(HIT_PRIMARY)
    return grad, extra


def _amended_potential(config: Configuration, point: np.ndarray):
    """V(a) = sum_j m_j/|a - a_j| + mu |a|^2 / 2, its gradient and Hessian.

    The gradient sum_j m_j (a_j - a)/|a_j - a|^3 + mu a is the equilibrium
    equation of the massless body and the Hessian is its Jacobian.  Only the
    descent of :func:`locate_offline_equilibria` reads the value.
    """
    grad, (hess, _, r) = _config_derivatives(config, point)
    value = float(np.sum(config.masses.array / r)) + 0.5 * config.mu * float(point @ point)
    return value, grad, hess


def stack_by_size(configs: Sequence[Configuration]) -> list:
    """``configs`` grouped by their number k of primaries, in order of first
    appearance: per group its indices into ``configs`` and the primaries'
    positions (points, k, 2), masses (points, k) and multipliers (points,),
    the batch inputs of :func:`massless_sums` and :func:`_derivatives`."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault(len(c.masses), []).append(i)
    return [
        (
            members,
            np.array([configs[i].primary_positions for i in members]),
            np.array([configs[i].masses.masses for i in members]),
            np.array([configs[i].mu for i in members]),
        )
        for members in groups.values()
    ]


def _equilibrium_residual(x, positions, masses, mu):
    grad, (hess, s1, _), hit = _derivatives(positions, masses, mu, x)
    return grad, (hess, s1), hit


def _equilibrium_step(x, grad, extra):
    return np.linalg.solve(extra[0], -grad[..., None])[..., 0]


def _restricted_positions(configs: Sequence[Configuration], starts: np.ndarray) -> list:
    """The damped Newton iteration of :func:`restricted_position` for each
    configuration from its row of ``starts``, one batch per number of
    primaries: per point its Configuration with the position attached, or
    the ErestabError that ended it."""
    out: list = [None] * len(configs)
    for members, positions, masses, mu in stack_by_size(configs):
        solved = _damped_newton(
            _equilibrium_residual, _equilibrium_step, starts[members], (positions, masses, mu),
            1e-11, "restricted-position Newton",
        )
        for i, outcome in zip(members, solved):
            config = configs[i]
            if isinstance(outcome, ErestabError):
                out[i] = outcome
                continue
            a, grad, (_, mu_check) = outcome
            if abs(a[1]) < 1e-8:
                out[i] = DegenerateSolutionError(
                    "Newton converged to a point on the primaries' line; "
                    "choose a different guess"
                )
            elif abs(config.mu - mu_check) > 1e-9:
                out[i] = InvariantViolation(
                    f"off-line multiplier identity violated: |mu - sum m_j/r^3| = "
                    f"{abs(config.mu - mu_check):.3e}"
                )
            else:
                out[i] = _attach_massless(config, a, grad)
    return out


def _newton_start(guess: Sequence[float]) -> np.ndarray:
    a = _check_guess(guess)
    if abs(a[1]) < 1e-12:
        raise DomainError("guess must lie off the primaries' line")
    return a


def restricted_position(
    config: Configuration, guess: Sequence[float] = (0.0, 1.0)
) -> Configuration:
    """Solve for the off-line equilibrium position of the massless body.

    The position a solves sum_j m_j (a_j - a)/|a_j - a|^3 = -mu a with mu
    fixed by the primaries.  A damped 2D Newton iteration starts from
    ``guess`` (default (0, 1) in normalized units).  At any off-line
    solution the y-component of the equation forces the identity
    mu = sum_j m_j / |a_j - a|^3, which is verified to 1e-9.  This is the
    Newton stage of :func:`offline_equilibria` on one point.

    Parameters
    ----------
    config : Configuration
        Valid collinear configuration of the primaries (on the x-axis).
    guess : pair of floats
        Starting point; must not lie on the primaries' line.
    """
    return unwrap(_restricted_positions([config], _newton_start(guess)[None])[0])


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
    from scipy.optimize import minimize

    if np.max(np.abs(config.primary_positions[:, 1])) > 1e-10:
        raise DomainError("locate_offline_equilibria needs primaries on the x-axis")
    g = _check_guess(guess)
    start = np.array([g[0], abs(g[1])])
    last: list = [None, None]  # the point last evaluated and V's terms there

    def terms(a: np.ndarray):
        # scipy asks for the value and gradient, then the Hessian, at each iterate
        if last[0] is None or last[0].tobytes() != a.tobytes():
            last[:] = a.copy(), _amended_potential(config, a)
        return last[1]

    res = minimize(
        lambda a: terms(a)[:2],
        start,
        jac=True,
        hess=lambda a: terms(a)[2],
        method="trust-exact",
        options={"gtol": 1e-10},
    )
    x, y = res.x
    if abs(y) < 1e-8:
        raise DegenerateSolutionError("the descent ended on the primaries' line")
    return np.array([x, abs(y)])


def _descent_start(config: Configuration, guess: Sequence[float]) -> np.ndarray:
    """The Newton start :func:`locate_offline_equilibria` descends to."""
    return _newton_start(locate_offline_equilibria(config, guess))


def offline_equilibria(
    configs: Sequence[Configuration], guesses: Sequence[Sequence[float]] | None = None
) -> list[Configuration | ErestabError]:
    """:func:`offline_equilibrium` of every configuration of ``configs``,
    each from its guess (default (0, 1) for all), as one batch.

    The Newton iterations run in lockstep rounds, each point with its own
    steps, halvings and stop, so each point's position and residual equal
    its own solve bit for bit.  Points whose Newton iteration fails to
    converge are seeded one at a time by :func:`locate_offline_equilibria`
    from their guesses and solved again, as a second batch.  A point that
    fails gets its ErestabError in its place; the other points are not
    affected.  A number of guesses other than one per configuration, and a
    guess that is not a finite pair or lies on the primaries' line, raise
    DomainError before any work.
    """
    if guesses is None:
        guesses = [(0.0, 1.0)] * len(configs)
    if len(guesses) != len(configs):
        raise DomainError(f"{len(guesses)} guesses for {len(configs)} configurations")
    starts = np.array([_newton_start(g) for g in guesses]).reshape(-1, 2)
    out = _restricted_positions(configs, starts)
    for i, outcome in enumerate(out):
        if isinstance(outcome, ConvergenceError):  # its seed until solved again, or the error
            out[i] = caught(_descent_start, configs[i], guesses[i])
    seeds = {i: seed for i, seed in enumerate(out) if isinstance(seed, np.ndarray)}
    if seeds:
        again = _restricted_positions([configs[i] for i in seeds], np.array(list(seeds.values())))
        for i, outcome in zip(seeds, again):
            out[i] = outcome
    return out


def offline_equilibrium(config: Configuration, guess: Sequence[float] = (0.0, 1.0)) -> Configuration:
    """Robust off-line equilibrium: Newton first, a descent of V as fallback.

    Tries :func:`restricted_position` from ``guess``; if the iteration
    fails to converge, re-seeds it at the minimum of the amended potential
    that :func:`locate_offline_equilibria` descends to from the guess.
    This is :func:`offline_equilibria` on one point.
    """
    return unwrap(offline_equilibria([config], [guess])[0])


def solve_symmetric_y(m2: float) -> float:
    """Height parameter y of the massless body for the symmetric 4-body chain.

    For primaries (m1, m2, m1) with m1 = (1 - m2)/2 the massless body sits at
    (0, y (1 - m2)^(-1/2)) where y solves

        (1 - m2)/(y^2 + 1)^(3/2) + m2/y^3 = (1 + 7 m2)/8.

    y decreases strictly from sqrt(3) at m2 = 0 toward 1 as m2 -> 1.
    """
    from scipy.optimize import brentq

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
