"""Parameter sweeps: stability diagrams, separation curves, and thresholds.

Grid scans are deterministic: points are processed in row-major input order
and results carry the settings record that produced them, so re-running a
scan with equal settings reproduces identical output.  A sweep integrates
its points in batches, which give each point the bits of its own
integration.  Individual point failures are recorded in the emitted rows and
never abort a sweep.
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
    offline_equilibria,
    offline_equilibrium,
)
from .errors import CurveExtractionError, DomainError, ErestabError, caught, unwrap
from .linearization import (
    MAX_ECCENTRICITY,
    StabilityParams,
    compute_D,
    compute_Ds,
    spectral_params,
    symmetric_beta,
)
from .maslov import DEFAULT_LEVELS, IndexResult, morse_index
from .monodromy import (
    DEFAULT_CIRCLE_TOL,
    DEFAULT_TOL,
    Monodromy,
    SpectrumVerdict,
    check_circle_tol,
    check_integrator_tol,
    circle_jump_sum,
    classify_spectrum,
    integrate_fundamental,
    integrate_fundamentals,
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

    def __post_init__(self) -> None:
        check_integrator_tol(self.integrator_tol)
        check_circle_tol(self.circle_tol)

    def canonical_json(self) -> str:
        return json.dumps(
            {
                "integrator_tol": repr(self.integrator_tol),
                "circle_tol": repr(self.circle_tol),
                "morse_levels": list(DEFAULT_LEVELS),
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

    phi_1 and nu_1 come from the operator at w = 1, phi_{-1} and nu_{-1} from
    :func:`_minus_one`.  Numerical failures propagate as :class:`ErestabError`.
    """
    return _analyzed(p, integrate_fundamental(p, settings.integrator_tol), settings, indices)


def _analyzed(
    p: StabilityParams, mono: Monodromy, settings: ScanSettings, indices: bool
) -> PointResult:
    """:func:`analyze` of ``p`` with its monodromy ``mono`` already integrated."""
    out = {
        "verdict": classify_spectrum(mono, settings.circle_tol),
        "eigenvalues": mono.eigenvalues,
        "sympl_residual": mono.symplectic_residual,
    }
    if indices:
        idx1 = morse_index(p, 0.0)
        phi_m1, nu_m1 = _minus_one(p, mono, idx1, settings.circle_tol)
        out.update(phi_1=idx1.phi, nu_1=idx1.nu, phi_m1=phi_m1, nu_m1=nu_m1)
    return PointResult(**out)


def _minus_one(
    p: StabilityParams, mono: Monodromy, idx1: IndexResult, circle_tol: float
) -> tuple[int, int]:
    """phi_{-1} and nu_{-1}: phi_1 plus the Krein-signed jump sum over the
    upper-semicircle multipliers of gamma(2 pi) (Long's splitting numbers),
    and dim ker(gamma(2 pi) + I).  Where the spectrum cannot decide (the jump
    sum is unresolved, -1 is a multiplier, or dim ker(gamma(2 pi) - I)
    disagrees with nu_1) the counts of the operator at w = -1 are returned."""
    jump = circle_jump_sum(mono, circle_tol)
    nu_m1 = kernel_dimension(mono, -1.0, circle_tol)
    if jump is None or nu_m1 > 0 or kernel_dimension(mono, 1.0, circle_tol) != idx1.nu:
        idxm = morse_index(p, 0.5)
        return idxm.phi, idxm.nu
    return idx1.phi + jump, nu_m1


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


def _check_nonempty(*grids: Sequence) -> None:
    """Raise unless every grid has a point; reads lengths, so arrays pass."""
    if not all(len(g) for g in grids):
        raise DomainError("all sweep lists must be nonempty")


def _check_finite(name: str, values: Sequence[float]) -> None:
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"{name} {v} is not finite")


def _check_eccentricities(e_values: Sequence[float], e_max: float = MAX_ECCENTRICITY) -> None:
    for e in e_values:
        if not 0.0 <= e <= e_max:
            raise DomainError(f"e {e} outside [0, {e_max}]")


# Sweep points built, integrated and analyzed together: enough to spread
# numpy's cost per call over many points, few enough that the stage arrays
# (13 x 16 doubles per point) and the monodromies of one batch stay small.
SWEEP_BATCH = 1024


def _each(build, batch_keys: list[dict]) -> list:
    """A batch build for :func:`_sweep`, with ``build`` bound: ``build(**key)``
    of each key of the batch in turn, a failure becoming its error."""
    return [caught(build, **k) for k in batch_keys]


def _sweep(keys: list[dict], build, record: type, indices: bool, settings: ScanSettings) -> list:
    """Every sweep point ``keys[i]`` as a ``record``, in order.

    ``build(batch_keys)`` returns, per key of the batch, the point's
    parameters and the columns it derives from them, or the ErestabError of
    its failure.  Batch by batch of ``SWEEP_BATCH`` keys, the points that
    build are integrated together, then each is analyzed.  A point that
    fails to build, to integrate or to be analyzed keeps only its keys and
    its error's message.
    """
    records = []
    for start in range(0, len(keys), SWEEP_BATCH):
        batch_keys = keys[start:start + SWEEP_BATCH]
        built = build(batch_keys)
        monos = iter(integrate_fundamentals(
            [b[0] for b in built if not isinstance(b, ErestabError)], settings.integrator_tol
        ))
        for k, b in zip(batch_keys, built):
            outcome = b if isinstance(b, ErestabError) else next(monos)
            if isinstance(outcome, Monodromy):
                p, derived = b
                outcome = caught(_analyzed, p, outcome, settings, indices)
            if isinstance(outcome, PointResult):
                records.append(record(**k, **derived, **vars(outcome)))
            else:
                records.append(record(**k, error=str(outcome)))
    return records


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
    _check_nonempty(beta_grid, e_grid)
    for b in beta_grid:
        if not 0.0 <= b <= THETA_BETA_MAX:
            raise DomainError(f"beta {b} outside [0, {THETA_BETA_MAX}]")
    _check_eccentricities(e_grid)
    keys = [{"beta": float(b), "e": float(e)} for e in e_grid for b in beta_grid]
    return _sweep(keys, partial(_each, _theta_build), ScanRecord, True, settings)


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


# Levels of bisection per lockstep round.  A round integrates the up to
# 2**BISECT_LEVELS - 1 midpoints those levels of a bracket may read, and
# bisection reads one of them per level: 4 levels cost fewer, larger batches
# than 3 and fewer unread points than 5.
BISECT_LEVELS = 4


def _midpoint(lo: float, hi: float, resolution: float) -> float | None:
    """The midpoint bisection reads inside (lo, hi); None once the bracket is
    no wider than ``resolution`` or ``lo`` and ``hi`` are adjacent floats."""
    mid = 0.5 * (lo + hi)
    return mid if hi - lo > resolution and lo < mid < hi else None


def _bisection_tree(lo: float, hi: float, resolution: float) -> list[float]:
    """Every midpoint the next BISECT_LEVELS steps of bisecting (lo, hi) may
    read, level by level, each computed as :func:`_midpoint` computes it."""
    mids, level = [], [(lo, hi)]
    for _ in range(BISECT_LEVELS):
        below = []
        for a, b in level:
            mid = _midpoint(a, b, resolution)
            if mid is not None:
                mids.append(mid)
                below += [(a, mid), (mid, b)]
        level = below
    return mids


def _bisect_boundaries(searches: list, resolution: float, prepare) -> list:
    """Shrink each bracket of ``searches``, (pred, lo, hi) with pred(lo) true
    and pred(hi) false, to width <= resolution, or until lo and hi are
    adjacent floats.

    The brackets are bisected in lockstep, each one through the same
    midpoints as alone, level by level in search order.  A round covers
    BISECT_LEVELS levels: ``prepare`` first gets the
    :func:`_bisection_tree` of every open bracket, each midpoint those
    levels may read, so that they can be integrated as one batch; the preds
    then read one midpoint per level of each bracket.  Returns, per search,
    (lo, hi) or the ErestabError its pred raised, which ends that search
    only.
    """
    results: list = [None] * len(searches)
    brackets = {i: (lo, hi) for i, (_, lo, hi) in enumerate(searches)}
    while True:
        mids = []
        for i, (lo, hi) in list(brackets.items()):
            tree = _bisection_tree(lo, hi, resolution)
            if tree:
                mids += tree
            else:
                results[i] = brackets.pop(i)
        if not mids:
            return results
        prepare(mids)
        for _ in range(BISECT_LEVELS):
            for i, (lo, hi) in list(brackets.items()):
                mid = _midpoint(lo, hi, resolution)
                if mid is None:
                    results[i] = brackets.pop(i)
                    continue
                below = caught(searches[i][0], mid)
                if isinstance(below, ErestabError):
                    results[i] = below
                    del brackets[i]
                else:
                    brackets[i] = (mid, hi) if below else (lo, mid)


def _bisect_boundary(pred, lo: float, hi: float, resolution: float) -> tuple[float, float]:
    """:func:`_bisect_boundaries` for one bracket."""
    (result,) = _bisect_boundaries([(pred, lo, hi)], resolution, lambda mids: None)
    return unwrap(result)


def _beta_grid(coarse_step: float) -> np.ndarray:
    """0, step, 2 step, ... below THETA_BETA_MAX, then THETA_BETA_MAX itself."""
    grid = np.arange(0.0, THETA_BETA_MAX + 0.5 * coarse_step, coarse_step)
    return np.append(grid[grid < THETA_BETA_MAX], THETA_BETA_MAX)


def _first_failure(pred, grid: np.ndarray) -> tuple | None:
    """(pred, lo, hi) for the grid step below the first grid point where
    ``pred`` (true at ``grid[0]``) fails; None if it never fails.  ``pred`` is
    evaluated in grid order up to that point."""
    for i, b in enumerate(grid):
        if not pred(b):
            return pred, float(grid[i - 1]), float(b)
    return None


def _midpoint_and_width(bracket) -> tuple[float, float]:
    """A bisected bracket as a curve point's beta and width; raises the
    ErestabError that ended its bisection instead."""
    lo, hi = unwrap(bracket)
    return 0.5 * (lo + hi), hi - lo


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

    Both searches read one monodromy per beta.  A row integrates its coarse
    grid in batches of at most SWEEP_BATCH points, then bisects its three
    brackets in lockstep.  Each round integrates, as one batch, every
    midpoint the next BISECT_LEVELS levels of each bracket may read; only
    the midpoints a search reads get their spectrum classified or a Morse
    solve, so a speculative point that is never read, even one that fails
    to integrate, leaves the row as it was.  phi_1 vanishes for beta > 0
    (Hu, Long & Sun 2014): a row checks (phi_1, nu_1) = (0, 0) at beta = 9
    and passes those counts to :func:`_minus_one` everywhere.  Rows where
    the index data does not show the expected structure are skipped with a
    warning.
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
        integrated: dict = {}  # beta -> (params, monodromy), or the error raised

        def integrate(betas) -> None:
            """Integrate the betas not integrated yet, in batches of SWEEP_BATCH."""
            new = [b for b in dict.fromkeys(betas) if b not in integrated]
            for start in range(0, len(new), SWEEP_BATCH):
                batch = new[start:start + SWEEP_BATCH]
                ps = [StabilityParams.from_beta_hls(b, e) for b in batch]
                monos = integrate_fundamentals(ps, settings.integrator_tol)
                for b, p, mono in zip(batch, ps, monos):
                    integrated[b] = mono if isinstance(mono, ErestabError) else (p, mono)

        def monodromy(beta: float) -> tuple[StabilityParams, Monodromy]:
            return unwrap(integrated[beta])

        @cache
        def phi_m1(beta: float) -> int:
            return _minus_one(*monodromy(beta), idx1, settings.circle_tol)[0]

        @cache
        def circle_spectrum(beta: float) -> bool:
            return classify_spectrum(monodromy(beta)[1], settings.circle_tol).on_circle_count > 0

        try:
            idx1 = morse_index(StabilityParams.from_beta_hls(grid[-1], e), 0.0)
            if (idx1.phi, idx1.nu) != (0, 0):
                raise CurveExtractionError(f"phi_1, nu_1 = {idx1.phi}, {idx1.nu} at beta=9, e={e}")
            integrate(grid)
            phis = [phi_m1(b) for b in grid]
            if any(b > a for a, b in zip(phis, phis[1:])):
                raise CurveExtractionError(f"phi_-1 not non-increasing at e={e}")
            if phis[0] != 2 or phis[-1] != 0:
                raise CurveExtractionError(
                    f"phi_-1 endpoints ({phis[0]}, {phis[-1]}) != (2, 0) at e={e}"
                )
            # a non-increasing phi_-1 from 2 to 0 leaves each level exactly once
            searches = [_first_failure(lambda b, level=level: phi_m1(b) >= level, grid)
                        for level in (2, 1)]
            circle = circle_spectrum(grid[0])
            beta_k = _first_failure(circle_spectrum, grid) if circle else None
            if beta_k is not None:
                searches.append(beta_k)
            brackets = _bisect_boundaries(searches, beta_resolution, integrate)
            (b1, w1), (b2, w2) = sorted(_midpoint_and_width(b) for b in brackets[:2])
            points.append(CurvePoint(e, b1, CurveKind.BETA_S, w1))
            points.append(CurvePoint(e, b2, CurveKind.BETA_M, w2))

            if not circle:
                raise CurveExtractionError(f"no circle spectrum at beta=0, e={e}")
            b, w = (float(grid[-1]), 0.0) if beta_k is None else _midpoint_and_width(brackets[2])
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


def _mass_config(m1: float, m3: float, m2: float) -> Configuration:
    if m1 <= 0.0 or m3 <= 0.0 or m2 <= 0.0:
        raise DomainError("masses must be positive with m1 + m3 < 1")
    return collinear_config(MassSystem.normalized((m1, m2, m3)))


def _mass_build(batch_keys: list[dict], e: float) -> list:
    """:func:`collinear_params` of a batch of mass-plane cells: each cell's
    primaries on their own, then the batch's off-line equilibria together
    and its D from one batched distance sum."""
    built = _each(_mass_config, batch_keys)
    todo = [i for i, b in enumerate(built) if isinstance(b, Configuration)]
    for i, config in zip(todo, offline_equilibria([built[i] for i in todo])):
        built[i] = config
    todo = [i for i in todo if isinstance(built[i], Configuration)]
    for i, d in zip(todo, compute_Ds([built[i] for i in todo])):
        p = d if isinstance(d, ErestabError) else caught(spectral_params, d, e)
        built[i] = p if isinstance(p, ErestabError) else (p, {"beta": p.beta_hls})
    return built


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
    Empty grids, a mass that is not finite and an ``e`` outside [0, 0.99]
    raise before any cell is computed.
    """
    _check_nonempty(m1_grid, m3_grid)
    _check_finite("m1", m1_grid)
    _check_finite("m3", m3_grid)
    _check_eccentricities([e])
    keys = [
        {"m1": float(a), "m3": float(b), "m2": 1.0 - float(a) - float(b)}
        for a in m1_grid
        for b in m3_grid
    ]
    return _sweep(keys, partial(_mass_build, e=float(e)), MassScanPoint, False, settings)


# ---------------------------------------------------------------------------
# Symmetric-family threshold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MstarResult:
    value: float
    bracket_low: float
    bracket_high: float

    @property
    def bracket_width(self) -> float:
        return self.bracket_high - self.bracket_low


def find_mstar(tolerance: float = 1e-6) -> MstarResult:
    """Critical middle mass of the symmetric chain at e = 0.

    Bisects beta(m2) < 1 (the circular-case stability criterion) on the
    chain y(m2) -> z -> beta = 36 z (1 - z).  The chain is unimodal in m2
    (a hump near m2 ~ 0.09 before the decay to 0), so the grid check
    verifies what the bisection needs: a unique crossing of 1, with beta
    strictly decreasing from the last unstable grid point onward.  Raises
    CurveExtractionError if the grid fails either check.
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
        raise CurveExtractionError("beta(m2) is not monotone through the crossing")
    lo, hi = _bisect_boundary(lambda m: symmetric_beta(m) >= 1.0, lo, hi, tolerance)
    return MstarResult(0.5 * (lo + hi), lo, hi)


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

    Empty lists, a non-integral ``n``, an m0/M that is not finite and an
    ``e`` outside [0, 0.99] raise before any cell is computed.
    """
    _check_nonempty(n_list, m0_over_M_list, e_list, sites)
    _check_finite("m0/M", m0_over_M_list)
    _check_eccentricities(e_list)
    for n in n_list:
        if not float(n).is_integer():
            raise DomainError(f"n must be an integer, got {n}")
    keys = [
        {"n": int(n), "m0_over_M": float(r), "e": float(e), "site": site}
        for n in n_list
        for r in m0_over_M_list
        for e in e_list
        for site in sites
    ]
    return _sweep(keys, partial(_each, _polygon_build), PolygonVerdictRecord, True, settings)
