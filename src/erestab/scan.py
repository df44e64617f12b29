"""Parameter sweeps: stability diagrams, separation curves, and thresholds.

Grid scans are deterministic: points are processed in row-major input order
and results carry the settings record that produced them, so re-running a
scan with equal settings reproduces identical output.  Individual point
failures are recorded in the emitted rows and never abort a sweep.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from typing import Sequence

import numpy as np

from .central_config import (
    Configuration,
    MassSystem,
    collinear_three_primaries,
    moulton_collinear,
    offline_equilibrium,
)
from .errors import CurveExtractionError, DomainError, ErestabError
from .linearization import MAX_ECCENTRICITY, StabilityParams, compute_D, spectral_params, symmetric_beta
from .maslov import DEFAULT_LEVELS, morse_index
from .monodromy import (
    DEFAULT_CIRCLE_TOL,
    DEFAULT_TOL,
    MIN_TOL,
    SpectrumVerdict,
    circle_jump_sum,
    classify_spectrum,
    integrate_fundamental,
    kernel_dimension,
)
from .polygon_config import PolygonSystem, Site, solve_site

THETA_BETA_MAX = 9.0
CURVE_E_MAX = 0.95
MSTAR_GRID_STEP = 1e-3


@dataclass(frozen=True)
class ScanSettings:
    """Everything that influences a scan's numbers, hashable for provenance.

    The tolerances are checked here, once, so that a sweep never starts with
    values every one of its points would reject.
    """

    integrator_tol: float = DEFAULT_TOL
    circle_tol: float = DEFAULT_CIRCLE_TOL
    morse_levels: tuple[int, ...] = DEFAULT_LEVELS

    def __post_init__(self) -> None:
        if not self.integrator_tol >= MIN_TOL:
            raise DomainError(
                f"integrator tolerance must be at least {MIN_TOL:g}, got {self.integrator_tol}"
            )
        if not self.circle_tol > 0.0:
            raise DomainError(f"circle tolerance must be positive, got {self.circle_tol}")

    def canonical_json(self) -> str:
        return json.dumps(
            {
                "integrator_tol": repr(self.integrator_tol),
                "circle_tol": repr(self.circle_tol),
                "morse_levels": list(self.morse_levels),
            },
            sort_keys=True,
        )

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


DEFAULT_SETTINGS = ScanSettings()


# ---------------------------------------------------------------------------
# The point pipeline shared by every sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class PointResult:
    """Verdict, multipliers and +-1 Morse indices of one parameter point.

    The indices are None when they were not requested; a failed sweep point
    carries its message in ``error`` and None in every other field.
    """

    verdict: SpectrumVerdict | None = None
    eigenvalues: tuple[complex, ...] | None = None
    sympl_residual: float | None = None
    phi_1: int | None = None
    nu_1: int | None = None
    phi_m1: int | None = None
    nu_m1: int | None = None
    error: str | None = None

    @property
    def stable(self) -> bool:
        return self.verdict is not None and self.verdict.is_stable


def analyze(
    p: StabilityParams, settings: ScanSettings = DEFAULT_SETTINGS, indices: bool = True
) -> PointResult:
    """Monodromy verdict of ``p`` and, with ``indices``, its +-1 Morse indices.

    phi_1 and nu_1 come from the Galerkin operator at w = 1.  phi_{-1} is
    phi_1 plus the Krein-signed jump sum over the upper-semicircle
    multipliers of gamma(2 pi) (Long's splitting numbers), and nu_{-1} is
    dim ker(gamma(2 pi) + I).  The operator at w = -1 is solved instead,
    and its counts reported, when the spectrum cannot decide: the jump sum
    is unresolved, -1 is a multiplier, or dim ker(gamma(2 pi) - I)
    disagrees with nu_1.  Numerical failures propagate as
    :class:`ErestabError`.
    """
    mono = integrate_fundamental(p, settings.integrator_tol)
    out = {
        "verdict": classify_spectrum(mono, settings.circle_tol),
        "eigenvalues": mono.eigenvalues,
        "sympl_residual": mono.symplectic_residual,
    }
    if indices:
        idx1 = morse_index(p, 1.0, settings.morse_levels)
        gamma, tol = mono.gamma_end, settings.circle_tol
        jump = circle_jump_sum(gamma, tol)
        nu_m1 = kernel_dimension(gamma, -1.0, tol)
        if jump is None or nu_m1 > 0 or kernel_dimension(gamma, 1.0, tol) != idx1.nu:
            idxm = morse_index(p, -1.0, settings.morse_levels)
            phi_m1, nu_m1 = idxm.phi, idxm.nu
        else:
            phi_m1 = idx1.phi + jump
        out.update(phi_1=idx1.phi, nu_1=idx1.nu, phi_m1=phi_m1, nu_m1=nu_m1)
    return PointResult(**out)


def collinear_config(
    masses: MassSystem, ordering: Sequence[int] | None = None
) -> Configuration:
    """Collinear central configuration: the spacing quintic for three primaries
    without an ``ordering``, Moulton's solution in ``ordering`` otherwise."""
    if ordering is None and len(masses) == 3:
        return collinear_three_primaries(masses)
    return moulton_collinear(masses, ordering)


def collinear_params(
    masses: MassSystem, e: float, guess: Sequence[float] = (0.0, 1.0)
) -> StabilityParams:
    """Parameters of a collinear chain with the massless body off the line;
    ``guess`` seeds the off-line equilibrium search."""
    config = collinear_config(masses)
    return spectral_params(compute_D(offline_equilibrium(config, guess)), e)


def polygon_params(
    n: int, m0_over_M: float, site: Site, e: float
) -> tuple[StabilityParams, float]:
    """Parameters of a (1+n)-gon equilibrium site, with the site's rho."""
    bang = solve_site(PolygonSystem.from_mass_ratio(n, m0_over_M), site)
    return StabilityParams(bang.lambda3, bang.lambda4, e), bang.rho


def _check_eccentricities(e_values: Sequence[float], e_max: float = MAX_ECCENTRICITY) -> None:
    for e in e_values:
        if not 0.0 <= e <= e_max:
            raise DomainError(f"e {e} outside [0, {e_max}]")


def _point(keys: dict, build, record: type, indices: bool, settings: ScanSettings):
    """Sweep point ``keys`` as a ``record``: ``build(**keys)`` returns the
    point's parameters and the columns it derives from them, which are then
    analyzed.  A failed point keeps only its keys and the message."""
    try:
        p, derived = build(**keys)
        result = analyze(p, settings, indices)
    except ErestabError as exc:
        return record(**keys, error=str(exc))
    return record(**keys, **derived, **vars(result))


def _sweep(build, record: type, keys: list[dict], indices: bool, settings: ScanSettings):
    return [_point(k, build, record, indices, settings) for k in keys]


# ---------------------------------------------------------------------------
# Theta rectangle scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class ScanRecord(PointResult):
    """One point of the (beta, e) rectangle with verdict and indices.

    ``beta`` is the collinear-family parameter 9 - (lambda3 - lambda4)^2
    in [0, 9]; records are immutable once emitted.
    """

    beta: float
    e: float


def _theta_build(beta: float, e: float) -> tuple[StabilityParams, dict]:
    return StabilityParams.from_beta_hls(beta, e), {}


def scan_theta(
    beta_grid: Sequence[float],
    e_grid: Sequence[float],
    settings: ScanSettings = DEFAULT_SETTINGS,
) -> list[ScanRecord]:
    """Verdicts and indices over the parameter rectangle [0, 9] x [0, 0.99].

    One record per grid point, e-major then beta, in the given order.
    """
    for b in beta_grid:
        if not 0.0 <= b <= THETA_BETA_MAX:
            raise DomainError(f"beta {b} outside [0, {THETA_BETA_MAX}]")
    _check_eccentricities(e_grid)
    keys = [{"beta": float(b), "e": float(e)} for e in e_grid for b in beta_grid]
    return _sweep(_theta_build, ScanRecord, keys, True, settings)


# ---------------------------------------------------------------------------
# Separation curves
# ---------------------------------------------------------------------------

class CurveKind(Enum):
    BETA_S = "BetaS"
    BETA_M = "BetaM"
    BETA_K = "BetaK"


@dataclass(frozen=True)
class CurvePoint:
    e: float
    beta: float
    curve: CurveKind
    bracket_width: float
    source: str = "bisection"


def _bisect_boundary(pred, lo: float, hi: float, resolution: float) -> tuple[float, float]:
    """Shrink [lo, hi] with pred(lo) true, pred(hi) false to width <= resolution,
    or until lo and hi are adjacent floats."""
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _beta_grid(coarse_step: float) -> np.ndarray:
    """0, step, 2 step, ... below THETA_BETA_MAX, then THETA_BETA_MAX itself."""
    grid = np.arange(0.0, THETA_BETA_MAX + 0.5 * coarse_step, coarse_step)
    return np.append(grid[grid < THETA_BETA_MAX], THETA_BETA_MAX)


def _first_failure(pred, grid: np.ndarray, resolution: float) -> tuple[float, float] | None:
    """Midpoint and width of the bracket below the first grid point where
    ``pred`` (true at ``grid[0]``) fails, bisected to ``resolution``; None if
    it never fails.  ``pred`` is evaluated in grid order up to that point."""
    for i, b in enumerate(grid):
        if not pred(b):
            lo, hi = _bisect_boundary(pred, float(grid[i - 1]), float(b), resolution)
            return 0.5 * (lo + hi), hi - lo
    return None


def find_curves(
    e_list: Sequence[float],
    beta_resolution: float = 0.01,
    settings: ScanSettings = DEFAULT_SETTINGS,
    coarse_step: float = 0.05,
) -> list[CurvePoint]:
    """Locate the three separation curves at each requested eccentricity.

    For each e the -1 Morse index over beta in [0, 9] is non-increasing and
    drops by one unit at two boundaries (which merge at e = 0); those two
    points are refined by integer-valued bisection and emitted as BetaS
    (smaller) and BetaM (larger).  BetaK is the boundary below which the
    monodromy spectrum keeps intersecting the unit circle; the first grid
    failure is refined under the fine-grid reading of the supremum.

    Rows where the index data does not show the expected structure are
    skipped with a warning.
    """
    if not 0.0 < beta_resolution <= 0.01:
        raise DomainError(f"beta_resolution must lie in (0, 0.01], got {beta_resolution}")
    if not (math.isfinite(coarse_step) and coarse_step > 0.0):
        raise DomainError(f"coarse_step must be positive and finite, got {coarse_step}")
    _check_eccentricities(e_list, CURVE_E_MAX)
    points: list[CurvePoint] = []
    grid = _beta_grid(coarse_step)
    for e in e_list:
        e = float(e)

        @cache
        def phi_m1(beta: float) -> int:
            p = StabilityParams.from_beta_hls(beta, e)
            return morse_index(p, -1.0, settings.morse_levels).phi

        @cache
        def circle_spectrum(beta: float) -> bool:
            p = StabilityParams.from_beta_hls(beta, e)
            return analyze(p, settings, indices=False).verdict.on_circle_count > 0

        try:
            phis = [phi_m1(b) for b in grid]
            if any(b > a for a, b in zip(phis, phis[1:])):
                raise CurveExtractionError(f"phi_-1 not non-increasing at e={e}")
            if phis[0] != 2 or phis[-1] != 0:
                raise CurveExtractionError(
                    f"phi_-1 endpoints ({phis[0]}, {phis[-1]}) != (2, 0) at e={e}"
                )
            # a non-increasing phi_-1 from 2 to 0 leaves each level exactly once
            (b1, w1), (b2, w2) = sorted(
                _first_failure(lambda b: phi_m1(b) >= level, grid, beta_resolution)
                for level in (2, 1)
            )
            points.append(CurvePoint(e, b1, CurveKind.BETA_S, w1))
            points.append(CurvePoint(e, b2, CurveKind.BETA_M, w2))

            if not circle_spectrum(grid[0]):
                raise CurveExtractionError(f"no circle spectrum at beta=0, e={e}")
            beta_k = _first_failure(circle_spectrum, grid, beta_resolution)
            b, w = (float(grid[-1]), 0.0) if beta_k is None else beta_k
            points.append(CurvePoint(e, b, CurveKind.BETA_K, w))
        except ErestabError as exc:
            warnings.warn(f"curve extraction failed at e={e}: {exc}", stacklevel=2)
    return points


# ---------------------------------------------------------------------------
# Four-body mass plane
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class MassScanPoint(PointResult):
    """One cell of the (m1, m3) plane; ``beta`` is the chain's beta_hls."""

    m1: float
    m3: float
    m2: float
    beta: float | None = None


def _mass_build(m1: float, m3: float, m2: float, e: float) -> tuple[StabilityParams, dict]:
    if m1 <= 0.0 or m3 <= 0.0 or m2 <= 0.0:
        raise DomainError("masses must be positive with m1 + m3 < 1")
    p = collinear_params(MassSystem.normalized((m1, m2, m3)), e)
    return p, {"beta": p.beta_hls}


def mass_scan_4body(
    m1_grid: Sequence[float],
    m3_grid: Sequence[float],
    e: float = 0.0,
    settings: ScanSettings = DEFAULT_SETTINGS,
) -> list[MassScanPoint]:
    """Stability layer over the (m1, m3) plane for the restricted 4-body chain.

    For each admissible pair the middle mass is m2 = 1 - m1 - m3 and the
    verdict is computed through the full chain: spacing quintic, off-line
    equilibrium, stability matrix, monodromy.  Emits one point per grid
    cell in m1-major order; inadmissible or failed cells carry an error.
    An ``e`` outside [0, 0.99] raises before any cell is computed.
    """
    _check_eccentricities([e])
    keys = [
        {"m1": float(a), "m3": float(b), "m2": 1.0 - float(a) - float(b)}
        for a in m1_grid
        for b in m3_grid
    ]
    return _sweep(partial(_mass_build, e=float(e)), MassScanPoint, keys, False, settings)


# ---------------------------------------------------------------------------
# Symmetric-family threshold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MstarResult:
    value: float
    bracket_low: float
    bracket_high: float
    monotone: bool
    note: str = ""

    @property
    def bracket_width(self) -> float:
        return self.bracket_high - self.bracket_low


def find_mstar(tolerance: float = 1e-6) -> MstarResult:
    """Critical middle mass of the symmetric chain at e = 0.

    Bisects beta(m2) < 1 (the circular-case stability criterion) on the
    chain y(m2) -> z -> beta = 36 z (1 - z).  The chain is unimodal in m2
    (a hump near m2 ~ 0.09 before the decay to 0), so the grid check
    verifies what the bisection needs: a unique crossing of 1, with beta
    strictly decreasing from the last unstable grid point onward.  If that
    fails, the finest-grid boundary is returned with a warning.
    """
    if not (math.isfinite(tolerance) and tolerance >= 1e-8):
        raise DomainError(f"tolerance must be finite and >= 1e-8, got {tolerance}")
    grid = np.arange(0.0, 1.0 - 1e-9, MSTAR_GRID_STEP)
    betas = np.array([symmetric_beta(m) for m in grid])
    stable = betas < 1.0
    if stable[0] or not stable[-1]:
        raise CurveExtractionError("beta(m2) does not cross 1 on the grid")
    first = int(np.flatnonzero(stable)[0])
    lo, hi = float(grid[first - 1]), float(grid[first])
    single_crossing = bool(np.all(stable[first:]))
    decreasing_past = bool(np.all(np.diff(betas[first - 1 :]) < 0.0))
    if not (single_crossing and decreasing_past):
        warnings.warn(
            "beta(m2) is not monotone through the crossing; "
            "returning the finest-grid boundary",
            stacklevel=2,
        )
        return MstarResult(0.5 * (lo + hi), lo, hi, monotone=False,
                           note="non-monotone chain; grid boundary")
    lo, hi = _bisect_boundary(lambda m: symmetric_beta(m) >= 1.0, lo, hi, tolerance)
    return MstarResult(0.5 * (lo + hi), lo, hi, monotone=True)


# ---------------------------------------------------------------------------
# Polygon verdict table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class PolygonVerdictRecord(PointResult):
    """One (n, m0/M, e, site) cell of the polygon table."""

    n: int
    m0_over_M: float
    e: float
    site: Site
    rho: float | None = None
    lambda3: float | None = None
    lambda4: float | None = None
    alpha: float | None = None
    beta: float | None = None


def _polygon_build(
    n: int, m0_over_M: float, e: float, site: Site
) -> tuple[StabilityParams, dict]:
    p, rho = polygon_params(n, m0_over_M, site, e)
    derived = {"rho": rho, "lambda3": p.lambda3, "lambda4": p.lambda4,
               "alpha": p.alpha, "beta": p.beta}
    return p, derived


def polygon_verdicts(
    n_list: Sequence[int] = (4, 8, 12),
    m0_over_M_list: Sequence[float] = (10.0, 100.0, 1000.0, 10000.0),
    e_list: Sequence[float] = (0.0, 0.1),
    sites: Sequence[Site] = (Site.S1, Site.S2, Site.S3),
    settings: ScanSettings = DEFAULT_SETTINGS,
) -> list[PolygonVerdictRecord]:
    """Verdict and index table over (n, m0/M, e, site) cells.

    Empty lists and an ``e`` outside [0, 0.99] raise before any cell is
    computed.
    """
    if not (n_list and m0_over_M_list and e_list and sites):
        raise DomainError("all sweep lists must be nonempty")
    _check_eccentricities(e_list)
    keys = [
        {"n": int(n), "m0_over_M": float(r), "e": float(e), "site": site}
        for n in n_list
        for r in m0_over_M_list
        for e in e_list
        for site in sites
    ]
    return _sweep(_polygon_build, PolygonVerdictRecord, keys, True, settings)
