import math
import re
import warnings
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

import erestab.scan
from erestab.errors import ConvergenceError, CurveExtractionError, DomainError
from erestab.linearization import symmetric_beta
from erestab.maslov import morse_index
from erestab.monodromy import (
    MIN_TOL,
    Verdict,
    classify_spectrum,
    integrate_fundamental,
    integrate_fundamentals,
    kernel_dimension,
)
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
from erestab.scan import _beta_grid, _bisect_boundaries, _bisect_boundary, _bisection_tree
from erestab.polygon_config import Site

from oracles import bisect_bracket, bisection_tree_level_order, region_of

FAST = ScanSettings(integrator_tol=1e-10)


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

    def test_failed_points_keep_their_rows(self, monkeypatch):
        # beta = 1 fails to build and beta = 2 to integrate (lambda3 = 1e200
        # overflows); the batch around them keeps every row and every bit
        huge = StabilityParams(1e200, 1.0, 0.3)

        def build(beta, e):
            if beta == 1.0:
                raise DomainError("no such point")
            return (huge if beta == 2.0 else StabilityParams.from_beta_hls(beta, e)), {}

        monkeypatch.setattr(erestab.scan, "_theta_build", build)
        records = scan_theta([0.5, 1.0, 2.0, 3.0], [0.3], FAST)
        assert [(r.beta, r.e) for r in records] == [(0.5, 0.3), (1.0, 0.3), (2.0, 0.3), (3.0, 0.3)]
        with pytest.raises(ConvergenceError) as alone:
            integrate_fundamental(huge, FAST.integrator_tol)
        assert records[1].error == "no such point"
        assert records[2].error == str(alone.value)
        assert all(r.verdict is None and r.eigenvalues is None for r in records[1:3])
        assert records[0] == scan_theta([0.5], [0.3], FAST)[0]
        assert records[3] == scan_theta([3.0], [0.3], FAST)[0]
        # the same rows when the sweep runs in batches of three points
        monkeypatch.setattr(erestab.scan, "SWEEP_BATCH", 3)
        assert scan_theta([0.5, 1.0, 2.0, 3.0], [0.3], FAST) == records


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

    def test_lockstep_brackets_see_their_own_midpoints(self):
        # brackets of different widths and depths, a repeated one, one whose
        # pred raises at its first midpoint and one no wider than the
        # resolution; every pred also raises on a midpoint that was not
        # handed to prepare beforehand
        prepared = set()

        def search(log, i, limit, lo, hi, lockstep=False):
            def pred(x):
                if lockstep and x not in prepared:
                    raise AssertionError(f"midpoint {x} read before it was prepared")
                log[i].append(x)
                if i == 3:
                    raise CurveExtractionError("no answer")
                return x < limit
            return pred, lo, hi

        def prepare(mids):
            rounds.append(mids)
            prepared.update(mids)

        specs = [(0.3, 0.0, 1.0), (2.71, 2.0, 3.0), (0.3, 0.0, 1.0), (5.5, 4.0, 8.0),
                 (0.1, 0.0, 0.1 + 1e-3), (0.50000005, 0.5, 0.5 + 1e-7)]
        joint, alone, plain = ([[] for _ in specs] for _ in range(3))
        rounds = []
        together = _bisect_boundaries(
            [search(joint, i, *s, lockstep=True) for i, s in enumerate(specs)], 1e-6, prepare
        )
        for i, s in enumerate(specs):
            if i == 3:
                with pytest.raises(CurveExtractionError):
                    _bisect_boundary(*search(alone, i, *s), 1e-6)
                with pytest.raises(CurveExtractionError):
                    bisect_bracket(*search(plain, i, *s), 1e-6)
                assert isinstance(together[i], CurveExtractionError)
            else:
                assert together[i] == _bisect_boundary(*search(alone, i, *s), 1e-6)
                assert together[i] == bisect_bracket(*search(plain, i, *s), 1e-6)
        assert joint == alone == plain
        # the bracket already at resolution comes back as it went in, unread
        assert together[5] == specs[5][1:] and joint[5] == []
        # a round covers BISECT_LEVELS levels of every bracket still open
        levels = erestab.scan.BISECT_LEVELS
        assert len(rounds) == -(-max(map(len, plain)) // levels) > 1
        assert all(len(mids) <= (2 ** levels - 1) * len(specs) for mids in rounds)

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
                f"bracket_width={w}), "
                f"CurvePoint(e={e}, beta={bm}, curve=<CurveKind.BETA_M: 'BetaM'>, "
                f"bracket_width={w}), "
                f"CurvePoint(e={e}, beta={bk}, curve=<CurveKind.BETA_K: 'BetaK'>, "
                f"bracket_width={w})]"
            )

        assert repr(find_curves([0.0], 0.01, FAST, coarse_step=1.0)) == row(
            0.0, 0.74609375, 0.74609375, 1.00390625
        )
        assert repr(find_curves([0.3], 0.01, FAST, coarse_step=1.0)) == row(
            0.3, 0.36328125, 1.19140625, 1.19140625
        )
        assert repr(find_mstar(1e-6)) == (
            "MstarResult(value=0.85423095703125, bracket_low=0.85423046875, "
            "bracket_high=0.8542314453125)"
        )

    @pytest.mark.parametrize("e, s, m, k", [
        (0.0, (0.746875, 0.006249999999999978), (0.746875, 0.006249999999999978),
         (1.003125, 0.006250000000000089)),
        (0.3, (0.35937500000000006, 0.006249999999999978),
         (1.1906250000000003, 0.006249999999999867), (1.1906250000000003, 0.006249999999999867)),
        (0.6, (0.10312500000000001, 0.0062500000000000056),
         (1.5406250000000001, 0.006250000000000089), (1.5406250000000001, 0.006250000000000089)),
        (0.9, (0.003125, 0.00625),
         (1.4281250000000003, 0.006250000000000089), (1.4281250000000003, 0.006250000000000089)),
    ])
    def test_curves_pinned_at_default_step(self, e, s, m, k):
        """Exact outputs at the default coarse step 0.05, the step of the
        chart, as (beta, bracket_width) of BetaS, BetaM and BetaK."""
        assert repr(find_curves([e], 0.01, FAST)) == "[" + ", ".join(
            f"CurvePoint(e={e}, beta={beta}, curve=<CurveKind.{kind.name}: '{kind.value}'>, "
            f"bracket_width={width})"
            for kind, (beta, width) in zip(CurveKind, (s, m, k))
        ) + "]"

    def test_failed_row_is_dropped_with_warning(self, monkeypatch):
        """A row whose beta = 9 check fails warns, adds no point, and the
        rows after it are extracted as in an unpatched run."""
        clean = find_curves([0.0], 0.01, FAST, coarse_step=1.0)

        def bad_row(p, rho):
            idx = morse_index(p, rho)
            return replace(idx, phi=1) if p.e == 0.3 and rho == 0.0 else idx

        monkeypatch.setattr(erestab.scan, "morse_index", bad_row)
        with pytest.warns(UserWarning, match="curve extraction failed at e="):
            points = find_curves([0.3, 0.0], 0.01, FAST, coarse_step=1.0)
        assert [p for p in points if p.e == 0.3] == []
        assert points == clean

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


def rises_back_above_one(m2: float) -> float:
    """beta(m2) crosses 1 at m2 = 1/3, is back above 1 on [0.5, 0.7) and
    below 1 from there on."""
    return 2.0 - 3.0 * m2 if m2 < 0.5 else (1.5 if m2 < 0.7 else 0.5)


def rises_below_one(m2: float) -> float:
    """beta(m2) crosses 1 once, at m2 = 1/3, then rises below 1 past m2 = 0.5."""
    return 2.0 - 3.0 * m2 if m2 < 0.5 else 0.5 + 0.1 * m2


class TestMstar:
    def test_value_and_bracket(self):
        res = find_mstar(1e-6)
        assert 0.84 <= res.value <= 0.87
        assert res.bracket_width < 1e-6
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

    @pytest.mark.parametrize("chain", [rises_back_above_one, rises_below_one],
                             ids=["second-crossing", "not-decreasing"])
    def test_non_monotone_chain_raises(self, chain, monkeypatch):
        monkeypatch.setattr(erestab.scan, "symmetric_beta", chain)
        with pytest.raises(CurveExtractionError, match="not monotone"):
            find_mstar(1e-6)


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
        # nor is a non-integral n truncated to a polygon it does not name
        with pytest.raises(DomainError, match="integer"):
            polygon_verdicts([8.5], [1000.0], [0.0], [Site.S3], FAST)

    def test_array_lists_accepted(self):
        # The emptiness check reads lengths, so a numpy array is a list here.
        records = polygon_verdicts(np.array([4, 8]), [10.0], [0.0], [Site.S1], FAST)
        assert [(r.n, r.site) for r in records] == [(4, Site.S1), (8, Site.S1)]


def two_solve_indices(p):
    """(phi, nu) at +1 and -1 from two direct Galerkin solves."""
    plus, minus = morse_index(p, 0.0), morse_index(p, 0.5)
    return (plus.phi, plus.nu), (minus.phi, minus.nu)


def indices_of(result):
    return (result.phi_1, result.nu_1), (result.phi_m1, result.nu_m1)


@pytest.fixture
def solved_rhos(monkeypatch):
    """The twists rho ``analyze`` passes to the Morse solver, in call order."""
    rhos = []

    def spy(p, rho):
        rhos.append(rho)
        return morse_index(p, rho)

    monkeypatch.setattr(erestab.scan, "morse_index", spy)
    return rhos


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
    def test_fragile_points_solve_at_minus_one(self, beta, e, solved_rhos):
        p = StabilityParams.from_beta_hls(beta, e)
        result = analyze(p)
        assert solved_rhos == [0.0, 0.5]
        assert indices_of(result) == two_solve_indices(p)

    def test_generic_point_solves_once(self, solved_rhos):
        p = StabilityParams.from_beta_hls(0.5, 0.3)
        result = analyze(p)
        assert solved_rhos == [0.0]
        assert indices_of(result) == two_solve_indices(p)

    def test_kernel_disagreement_forces_minus_one_solve(self, solved_rhos, monkeypatch):
        def disagreeing(mono, omega, circle_tol):
            return kernel_dimension(mono, omega, circle_tol) + (omega == 1.0)

        monkeypatch.setattr(erestab.scan, "kernel_dimension", disagreeing)
        p = StabilityParams.from_beta_hls(0.5, 0.3)
        result = analyze(p)
        assert solved_rhos == [0.0, 0.5]
        assert indices_of(result) == two_solve_indices(p)


class TestCurveSolves:
    """``find_curves`` reads phi_-1 through ``analyze``'s monodromy rule: one
    w = 1 solve per row, at beta = 9, and a w = -1 solve only where the
    spectrum cannot decide."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """(beta, rho) of each Morse solve the scan module makes, in call order."""
        calls = []

        def spy(p, rho):
            calls.append((p.beta_hls, rho))
            return morse_index(p, rho)

        monkeypatch.setattr(erestab.scan, "morse_index", spy)
        return calls

    def test_generic_row_falls_back_only_at_zero(self, solves):
        find_curves([0.3], 0.01, coarse_step=1.0)
        assert solves == [(9.0, 0.0), (0.0, 0.5)]

    def test_circular_row_falls_back_at_tangent_points(self, solves):
        find_curves([0.0], 0.01, coarse_step=1.0)
        assert solves[0] == (9.0, 0.0)
        assert all(rho == 0.5 for _, rho in solves[1:])
        # beta = 0 (nu_1 = 3), the double -1 at 3/4 and the circular edge at 1
        assert sorted(b for b, _ in solves[1:]) == pytest.approx([0.0, 0.75, 1.0], abs=1e-12)


class TestOneDecomposition:
    """gamma(2 pi) is decomposed once per monodromy, when it is built; the
    verdict and the w = -1 rule read that decomposition."""

    @pytest.fixture
    def decompositions(self, monkeypatch):
        """Names of the general eigensolvers numpy is asked for, in call order."""
        calls = []
        for name in ("eig", "eigvals"):
            def spy(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _solver(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    def test_analyze_decomposes_once(self, decompositions):
        analyze(StabilityParams.from_beta_hls(0.5, 0.3))
        assert decompositions == ["eig"]

    def test_find_curves_decomposes_once_per_integration(self, decompositions, monkeypatch):
        integrations = []

        def spy(ps, tol):
            integrations.extend(p.beta_hls for p in ps)
            return integrate_fundamentals(ps, tol)

        monkeypatch.setattr(erestab.scan, "integrate_fundamentals", spy)
        find_curves([0.3], 0.01, coarse_step=1.0)
        assert integrations and len(decompositions) == len(integrations)


class TestBisectionTreePin:
    """The depth-first speculation tree against the level-order one it
    replaced, kept in ``tests/oracles.py``: the same midpoints, as a set, at
    every bracket and in every round."""

    @staticmethod
    def check(lo, hi, resolution):
        tree = _bisection_tree(lo, hi, resolution)
        assert sorted(tree) == sorted(bisection_tree_level_order(lo, hi, resolution))
        assert len(set(tree)) == len(tree) <= 2 ** erestab.scan.BISECT_LEVELS - 1
        return tree

    def test_seeded_random_brackets(self):
        rng = np.random.default_rng(20231)
        sizes = set()
        for _ in range(2000):
            lo = rng.uniform(-10.0, 10.0)
            hi = lo + 10.0 ** rng.uniform(-16.0, 1.0)
            sizes.add(len(self.check(lo, hi, 10.0 ** rng.uniform(-17.0, 1.0))))
        # full trees of every depth, the resolution cutting each level
        assert {2 ** k - 1 for k in range(erestab.scan.BISECT_LEVELS + 1)} <= sizes

    @pytest.mark.parametrize("lo", [0.0, 1.0, -3.5, 1e300])
    @pytest.mark.parametrize("ulps", [1, 2, 3, 5, 8, 15, 16, 17, 40])
    def test_resolutions_down_to_adjacent_floats(self, lo, ulps):
        hi = lo
        for _ in range(ulps):
            hi = np.nextafter(hi, math.inf)
        for resolution in (0.0, 5e-324, (hi - lo) / 8.0, (hi - lo) / 2.0):
            self.check(lo, float(hi), resolution)

    @pytest.mark.parametrize("lo, hi, resolution", [
        (0.0, 0.01, 0.01), (0.5, 0.5 + 1e-7, 1e-6), (2.0, 3.0, 1.0), (1.0, 1.0, 0.0),
    ])
    def test_bracket_at_resolution_has_no_midpoints(self, lo, hi, resolution):
        assert self.check(lo, hi, resolution) == []

    def test_every_round_prepares_the_oracle_set(self, monkeypatch):
        specs = [(0.3, 0.0, 1.0), (2.71, 2.0, 3.0), (math.pi, 3.0, 4.0), (0.1, 0.0, 0.2)]

        def run():
            rounds, reads = [], []

            def search(limit, lo, hi):
                return lambda x: reads.append(x) or x < limit, lo, hi

            results = _bisect_boundaries([search(*s) for s in specs], 1e-12,
                                         lambda mids: rounds.append(set(mids)))
            return results, rounds, reads

        new = run()
        monkeypatch.setattr(erestab.scan, "_bisection_tree", bisection_tree_level_order)
        assert new == run() and len(new[1]) > 1


class TestSpeculativeMidpoints:
    """A bisection round integrates midpoints its walk may never read; only
    the points it reads reach a row."""

    @pytest.fixture
    def row(self, monkeypatch):
        """Runs ``find_curves([0.3, 0.0], 0.01, FAST, coarse_step=1.0)``, the
        integration of each point in ``failing`` replaced by a
        ConvergenceError, and returns its points with the integrated and the
        read StabilityParams of the e = 0.3 row."""
        integrated, read, owner, failing = [], set(), {}, set()
        real_minus_one = erestab.scan._minus_one

        def integrate(ps, tol):
            monos = integrate_fundamentals(ps, tol)
            integrated.extend(p for p in ps if p.e == 0.3)
            owner.update((id(mono), p) for p, mono in zip(ps, monos))
            return [ConvergenceError(f"no monodromy at {p}") if p in failing else mono
                    for p, mono in zip(ps, monos)]

        def minus_one(p, mono, *args):
            read.add(p)
            return real_minus_one(p, mono, *args)

        def classify(mono, circle_tol):
            read.add(owner[id(mono)])
            return classify_spectrum(mono, circle_tol)

        monkeypatch.setattr(erestab.scan, "integrate_fundamentals", integrate)
        monkeypatch.setattr(erestab.scan, "_minus_one", minus_one)
        monkeypatch.setattr(erestab.scan, "classify_spectrum", classify)

        def run(*fail):
            integrated.clear()
            read.clear()
            failing.clear()
            failing.update(fail)
            points = find_curves([0.3, 0.0], 0.01, FAST, coarse_step=1.0)
            return points, list(integrated), {p for p in read if p.e == 0.3}

        return run

    def test_unread_failure_leaves_the_row(self, row):
        clean, integrated, read = row()
        unread = [p for p in integrated if p not in read]
        assert unread and len(read) < len(integrated)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (unread[0], unread[-1]):
                assert row(p)[0] == clean

    def test_read_failure_drops_the_row(self, row):
        clean, integrated, read = row()
        grid = {StabilityParams.from_beta_hls(b, 0.3) for b in _beta_grid(1.0)}
        midpoint = next(p for p in integrated if p in read and p not in grid)
        with pytest.warns(UserWarning, match=re.escape(
                f"curve extraction failed at e=0.3: no monodromy at {midpoint}")):
            points, _, _ = row(midpoint)
        assert points == [p for p in clean if p.e == 0.0]


def test_curve_integration_batches_bounded_by_sweep_batch(monkeypatch):
    """The coarse grid and every bisection round are integrated in batches
    of at most SWEEP_BATCH points, with the bits of one batch."""
    clean = find_curves([0.3], 0.01, FAST, coarse_step=1.0)
    batches = []

    def spy(ps, tol):
        batches.append(len(ps))
        return integrate_fundamentals(ps, tol)

    monkeypatch.setattr(erestab.scan, "integrate_fundamentals", spy)
    monkeypatch.setattr(erestab.scan, "SWEEP_BATCH", 4)
    assert find_curves([0.3], 0.01, FAST, coarse_step=1.0) == clean
    # the 10-point grid as 4 + 4 + 2, then the rounds' midpoints
    assert batches[:3] == [4, 4, 2] and max(batches) == 4


def test_settings_hold_only_the_tolerances():
    assert [f.name for f in fields(ScanSettings)] == ["integrator_tol", "circle_tol"]
    # the digests still hash the Morse levels: the golden CSVs' --tol 1e-10 header
    assert FAST.digest() == "a61192365befe962"
    assert ScanSettings().digest() == "0555f1b57af83578"


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: scan_theta([], [0.0], FAST),
        lambda: scan_theta([1.0], [], FAST),
        lambda: mass_scan_4body([], [0.2], 0.0, FAST),
        lambda: mass_scan_4body([0.2], np.array([]), 0.0, FAST),
        lambda: polygon_verdicts(np.array([], dtype=int), [10.0], [0.0], [Site.S1], FAST),
    ],
    ids=["theta-beta", "theta-e", "mass-m1", "mass-m3", "polygon-n-array"],
)
def test_empty_grid_rejected(sweep):
    with pytest.raises(DomainError, match="nonempty"):
        sweep()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "sweep, name",
    [
        (lambda v: mass_scan_4body([v], [0.2], 0.0, FAST), "m1"),
        (lambda v: mass_scan_4body([0.2], [0.1, v], 0.0, FAST), "m3"),
        (lambda v: polygon_verdicts([8], [1e3, v], [0.0], [Site.S3], FAST), "m0/M"),
    ],
    ids=["mass-m1", "mass-m3", "polygon-ratio"],
)
def test_sweep_rejects_non_finite_values_before_any_cell(sweep, name, value, monkeypatch):
    # such a value used to reach its cell and fail there as "total mass must
    # be positive" or "masses must be positive"; now the sweep names it and
    # builds no cell
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell was computed")

    monkeypatch.setattr(erestab.scan, "collinear_three_primaries", no_cell)
    monkeypatch.setattr(erestab.scan, "solve_site", no_cell)
    with pytest.raises(DomainError, match=f"^{re.escape(name)} {value} is not finite$"):
        sweep(value)


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
     ("integrator_tol", float("inf")),
     ("circle_tol", 0.0), ("circle_tol", -1e-6), ("circle_tol", float("nan")),
     ("circle_tol", float("inf")), ("circle_tol", 1.0), ("circle_tol", 5.0)],
)
def test_settings_reject_bad_tolerances(field, value):
    with pytest.raises(DomainError):
        ScanSettings(**{field: value})


@pytest.mark.parametrize("tol", [0.0, -1.0, 1e-14, float("nan"), float("inf")])
def test_one_integrator_tolerance_rule(tol):
    """The settings and the integrator reject a tolerance by one rule, with
    one message."""
    with pytest.raises(DomainError) as settings:
        ScanSettings(integrator_tol=tol)
    with pytest.raises(DomainError) as integrator:
        integrate_fundamentals([], tol)
    assert str(settings.value) == str(integrator.value)
    assert integrate_fundamentals([], MIN_TOL) == []


@pytest.mark.parametrize("circle_tol", [0.0, -1.0, 1.0, 5.0, float("nan"), float("inf")])
def test_one_circle_tolerance_rule(circle_tol):
    """The settings and the spectrum tests reject a circle tolerance by one
    rule, with one message."""
    with pytest.raises(DomainError) as settings:
        ScanSettings(circle_tol=circle_tol)
    with pytest.raises(DomainError) as spectrum:
        classify_spectrum(integrate_fundamental(StabilityParams.from_beta_hls(1.5, 0.3)), circle_tol)
    assert str(settings.value) == str(spectrum.value)
    assert str(settings.value) == f"circle tolerance must lie in (0, 1), got {circle_tol}"
