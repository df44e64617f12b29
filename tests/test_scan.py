from functools import partial

import numpy as np
import pytest

import erestab.scan
from erestab.errors import DomainError
from erestab.linearization import symmetric_beta
from erestab.maslov import morse_index
from erestab.monodromy import Verdict, classify_spectrum, integrate_fundamental, kernel_dimension
from erestab.linearization import StabilityParams
from erestab.scan import (
    CurveKind,
    ScanSettings,
    analyze,
    find_curves,
    find_mstar,
    mass_scan_4body,
    polygon_params,
    polygon_verdicts,
    scan_theta,
)
from erestab.scan import _beta_grid, _bisect_boundary
from erestab.polygon_config import Site

from oracles import region_of

FAST = ScanSettings(integrator_tol=1e-10, morse_levels=(32, 64, 128, 256))


def by_curve(points, e):
    return {
        p.curve: p.beta for p in points if p.e == e
    }


class TestScanTheta:
    def test_known_verdicts(self):
        records = scan_theta([0.5, 2.0, 9.0], [0.0], FAST)
        verdicts = {r.beta: r.verdict.verdict for r in records}
        assert verdicts[0.5] is Verdict.STRONGLY_LINEARLY_STABLE
        assert not verdicts[2.0].is_stable
        assert not verdicts[9.0].is_stable
        assert all(r.error is None for r in records)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            scan_theta([10.0], [0.0], FAST)
        with pytest.raises(DomainError):
            scan_theta([1.0], [0.995], FAST)

    def test_reproducible(self):
        a = scan_theta([0.4, 1.7], [0.1, 0.5], FAST)
        b = scan_theta([0.4, 1.7], [0.1, 0.5], FAST)
        assert a == b

    def test_row_major_order(self):
        records = scan_theta([0.0, 1.0], [0.0, 0.2], FAST)
        assert [(r.beta, r.e) for r in records] == [
            (0.0, 0.0), (1.0, 0.0), (0.0, 0.2), (1.0, 0.2)
        ]

    def test_indices_emitted(self):
        (rec,) = scan_theta([0.3], [0.2], FAST)
        assert rec.phi_m1 == 2 and rec.phi_1 == 0
        assert rec.nu_1 == 0 and rec.nu_m1 == 0


class TestCurves:
    def test_circular_row(self):
        points = find_curves([0.0], beta_resolution=0.01, settings=FAST)
        betas = by_curve(points, 0.0)
        assert set(betas) == {CurveKind.BETA_S, CurveKind.BETA_M, CurveKind.BETA_K}
        # the two index jumps coincide at e = 0 near beta = 3/4
        assert abs(betas[CurveKind.BETA_S] - 0.75) < 0.03
        assert abs(betas[CurveKind.BETA_M] - 0.75) < 0.03
        # the spectral-escape boundary sits at the circular stability edge
        assert abs(betas[CurveKind.BETA_K] - 1.0) < 0.02
        assert all(p.bracket_width <= 0.01 for p in points)

    def test_tongue_opens_with_eccentricity(self):
        points = find_curves([0.2], beta_resolution=0.01, settings=FAST)
        betas = by_curve(points, 0.2)
        assert betas[CurveKind.BETA_S] < betas[CurveKind.BETA_M] - 0.2
        assert betas[CurveKind.BETA_S] <= betas[CurveKind.BETA_M] <= betas[
            CurveKind.BETA_K
        ] + 0.01

    def test_resolution_halving_moves_points_less_than_coarse_step(self):
        coarse = by_curve(find_curves([0.1], 0.01, FAST), 0.1)
        fine = by_curve(find_curves([0.1], 0.005, FAST), 0.1)
        for kind in coarse:
            assert abs(coarse[kind] - fine[kind]) <= 0.01

    # Each bad value is rejected before any point is computed; a nan resolution
    # would otherwise leave every bracket at the coarse grid width.
    @pytest.mark.parametrize(
        "call",
        [
            partial(find_curves, [0.1], beta_resolution=0.05, settings=FAST),
            partial(find_curves, [0.1], beta_resolution=0.0, settings=FAST),
            partial(find_curves, [0.1], beta_resolution=-0.01, settings=FAST),
            partial(find_curves, [0.1], beta_resolution=float("nan"), settings=FAST),
            partial(find_curves, [0.1], settings=FAST, coarse_step=0.0),
            partial(find_curves, [0.1], settings=FAST, coarse_step=-1.0),
            partial(find_curves, [0.1], settings=FAST, coarse_step=float("nan")),
            partial(find_mstar, float("nan")),
            partial(find_mstar, float("inf")),
        ],
        ids=["beta_resolution-0.05", "beta_resolution-0", "beta_resolution-negative",
             "beta_resolution-nan", "coarse_step-0", "coarse_step-negative",
             "coarse_step-nan", "mstar_tol-nan", "mstar_tol-inf"],
    )
    def test_resolution_validated(self, call):
        with pytest.raises(DomainError):
            call()

    def test_bisection_stops_at_adjacent_floats(self):
        lo, hi = _bisect_boundary(lambda x: x < 0.3, 0.0, 1.0, 1e-300)
        assert lo < 0.3 <= hi and np.nextafter(lo, 1.0) == hi

    @pytest.mark.parametrize("step", [0.05, 0.25, 0.7, 1.0, 2.0, 4.0, 10.0])
    def test_beta_grid_ends_at_nine(self, step):
        grid = _beta_grid(step)
        gaps = np.diff(grid)
        assert grid[0] == 0.0 and grid[-1] == 9.0
        # arange's multiples of the step may overshoot it by a rounding error
        assert np.all(gaps > 0.0) and np.all(gaps <= step * (1.0 + 1e-12))

    @pytest.mark.parametrize("step", [0.05, 1.0])
    def test_beta_grid_unchanged_where_it_reached_nine(self, step):
        """Where arange reaches 9 (the default step and the curves workload's 1.0),
        the grid is arange with its last point clipped to 9, bit for bit."""
        old = np.arange(0.0, 9.0 + 0.5 * step, step)
        old[-1] = min(old[-1], 9.0)
        assert _beta_grid(step).tobytes() == old.tobytes()

    def test_curves_and_mstar_pinned(self):
        """Exact bisection outputs: a refactor of the bisection or of the
        on-circle rule must leave every bit of these unchanged."""
        def row(e, bs, bm, bk):
            w = 0.0078125
            return (
                f"[CurvePoint(e={e}, beta={bs}, curve=<CurveKind.BETA_S: 'BetaS'>, "
                f"bracket_width={w}, source='bisection'), "
                f"CurvePoint(e={e}, beta={bm}, curve=<CurveKind.BETA_M: 'BetaM'>, "
                f"bracket_width={w}, source='bisection'), "
                f"CurvePoint(e={e}, beta={bk}, curve=<CurveKind.BETA_K: 'BetaK'>, "
                f"bracket_width={w}, source='bisection')]"
            )

        assert repr(find_curves([0.0], 0.01, FAST, coarse_step=1.0)) == row(
            0.0, 0.74609375, 0.74609375, 1.00390625
        )
        assert repr(find_curves([0.3], 0.01, FAST, coarse_step=1.0)) == row(
            0.3, 0.36328125, 1.19140625, 1.19140625
        )
        assert repr(find_mstar(1e-6)) == (
            "MstarResult(value=0.85423095703125, bracket_low=0.85423046875, "
            "bracket_high=0.8542314453125, monotone=True, note='')"
        )

    def test_region_agreement_with_verdicts(self):
        e = 0.2
        betas = by_curve(find_curves([e], 0.01, FAST), e)
        bs, bm, bk = (betas[k] for k in (CurveKind.BETA_S, CurveKind.BETA_M, CurveKind.BETA_K))
        grid = [b for b in np.arange(0.05, 9.0, 0.18)
                if min(abs(b - bs), abs(b - bm), abs(b - bk)) > 0.02]
        agree = 0
        for b in grid:
            verdict = classify_spectrum(
                integrate_fundamental(StabilityParams.from_beta_hls(b, e), 1e-10)
            )
            strong = verdict.verdict is Verdict.STRONGLY_LINEARLY_STABLE
            in_stable_region = region_of(b, bs, bm, bk) in ("I", "III")
            agree += strong == in_stable_region
        assert agree >= 0.99 * len(grid)


class TestMassScan:
    def test_threshold_points_on_diagonal(self):
        pts = mass_scan_4body([0.0727], [0.0727], 0.0, FAST)  # m2 = 0.8546 > m*
        assert pts[0].stable
        pts = mass_scan_4body([0.25], [0.25], 0.0, FAST)  # m2 = 0.5, beta > 1
        assert not pts[0].stable and pts[0].beta > 1.0

    def test_symmetry_under_mass_swap(self):
        grid = [0.05, 0.2, 0.35]
        pts = mass_scan_4body(grid, grid, 0.0, FAST)
        table = {(p.m1, p.m3): p.stable for p in pts}
        for a in grid:
            for b in grid:
                assert table[(a, b)] == table[(b, a)]
        # heavy middle mass m2 = 0.9 on the diagonal is stable
        assert table[(0.05, 0.05)]

    def test_inadmissible_cells_recorded(self):
        pts = mass_scan_4body([0.6], [0.6], 0.0, FAST)
        assert pts[0].error is not None
        assert pts[0].verdict is None


class TestMstar:
    def test_value_and_bracket(self):
        res = find_mstar(1e-6)
        assert 0.84 <= res.value <= 0.87
        assert res.bracket_width < 1e-6
        assert res.monotone
        assert res.bracket_low - 0.005 <= 0.854 <= res.bracket_high + 0.005

    def test_beta_straddles_one(self):
        res = find_mstar(1e-6)
        assert symmetric_beta(res.value + 0.01) < 1.0 < symmetric_beta(res.value - 0.01)

    def test_monodromy_agrees_with_beta_criterion(self):
        res = find_mstar(1e-6)
        for dm, expect_stable in ((+0.01, True), (-0.01, False)):
            beta = symmetric_beta(res.value + dm)
            verdict = classify_spectrum(
                integrate_fundamental(StabilityParams.from_beta_hls(beta, 0.0), 1e-10)
            )
            assert verdict.is_stable == expect_stable

    def test_tolerance_validated(self):
        with pytest.raises(DomainError):
            find_mstar(1e-9)


class TestPolygonVerdicts:
    def test_table_shape_and_order(self):
        records = polygon_verdicts([8], [1e3], [0.0, 0.1], [Site.S1, Site.S3], FAST)
        assert [(r.e, r.site) for r in records] == [
            (0.0, Site.S1), (0.0, Site.S3), (0.1, Site.S1), (0.1, Site.S3)
        ]

    def test_heavy_center_verdicts(self):
        records = polygon_verdicts([8], [1e3], [0.0, 0.1], list(Site), FAST)
        for r in records:
            assert r.error is None
            if r.site in (Site.S1, Site.S2):
                assert not r.verdict.is_stable
            else:
                assert r.verdict.is_stable
                assert r.phi_m1 - r.phi_1 == 2

    def test_empty_lists_rejected(self):
        with pytest.raises(DomainError):
            polygon_verdicts([], [10.0], [0.0], [Site.S1], FAST)


def two_solve_indices(p):
    """(phi, nu) at +1 and -1 from two direct Galerkin solves."""
    plus, minus = morse_index(p, 1.0), morse_index(p, -1.0)
    return (plus.phi, plus.nu), (minus.phi, minus.nu)


def indices_of(result):
    return (result.phi_1, result.nu_1), (result.phi_m1, result.nu_m1)


@pytest.fixture
def solved_omegas(monkeypatch):
    """The omegas ``analyze`` passes to the Morse solver, in call order."""
    omegas = []

    def spy(p, omega, levels):
        omegas.append(omega)
        return morse_index(p, omega, levels)

    monkeypatch.setattr(erestab.scan, "morse_index", spy)
    return omegas


class TestIndicesFromMonodromy:
    """``analyze`` solves the operator at w = 1 and reads the w = -1 data off
    the monodromy, falling back to the w = -1 solve where the spectrum
    cannot decide; either way it must match two direct solves."""

    GRID = [StabilityParams.from_beta_hls(b, e)
            for e in (0.0, 0.3, 0.7) for b in (0.5, 1.5, 4.0)]
    POLYGON = [polygon_params(8, 1e3, site, 0.1)[0] for site in (Site.S1, Site.S3)]

    # beta = 0 (nu_1 = 3), the e = 0 tongue tip (nu_-1 = 2) and the two roots
    # of det(gamma(2 pi) + I) at e = 0.3 (nu_-1 = 1)
    FRAGILE = [(0.0, 0.0), (0.75, 0.0), (0.3609005, 0.3), (1.1886708, 0.3)]

    @pytest.mark.parametrize("p", GRID + POLYGON,
                             ids=[f"beta{p.beta_hls:g}-e{p.e:g}" for p in GRID]
                             + ["polygon-S1", "polygon-S3"])
    def test_matches_two_solves(self, p):
        assert indices_of(analyze(p)) == two_solve_indices(p)

    @pytest.mark.parametrize("beta, e", FRAGILE, ids=[f"beta{b}-e{e}" for b, e in FRAGILE])
    def test_fragile_points_solve_at_minus_one(self, beta, e, solved_omegas):
        p = StabilityParams.from_beta_hls(beta, e)
        result = analyze(p)
        assert solved_omegas == [1.0, -1.0]
        assert indices_of(result) == two_solve_indices(p)

    def test_generic_point_solves_once(self, solved_omegas):
        p = StabilityParams.from_beta_hls(0.5, 0.3)
        result = analyze(p)
        assert solved_omegas == [1.0]
        assert indices_of(result) == two_solve_indices(p)

    def test_kernel_disagreement_forces_minus_one_solve(self, solved_omegas, monkeypatch):
        def disagreeing(mat, omega, circle_tol):
            return kernel_dimension(mat, omega, circle_tol) + (omega == 1.0)

        monkeypatch.setattr(erestab.scan, "kernel_dimension", disagreeing)
        p = StabilityParams.from_beta_hls(0.5, 0.3)
        result = analyze(p)
        assert solved_omegas == [1.0, -1.0]
        assert indices_of(result) == two_solve_indices(p)


@pytest.mark.parametrize("e", [2.0, -0.1])
@pytest.mark.parametrize(
    "sweep",
    [
        lambda e: mass_scan_4body([0.1], [0.1], e, FAST),
        lambda e: polygon_verdicts([8], [1e3], [e], [Site.S3], FAST),
        lambda e: find_curves([0.3, e], settings=FAST, coarse_step=1.0),
    ],
    ids=["mass", "polygon", "curves"],
)
def test_sweep_rejects_out_of_range_e(sweep, e):
    with pytest.raises(DomainError):
        sweep(e)


@pytest.mark.parametrize(
    "field, value",
    [("integrator_tol", 1e-14), ("integrator_tol", float("nan")),
     ("circle_tol", 0.0), ("circle_tol", -1e-6), ("circle_tol", float("nan"))],
)
def test_settings_reject_bad_tolerances(field, value):
    with pytest.raises(DomainError):
        ScanSettings(**{field: value})
