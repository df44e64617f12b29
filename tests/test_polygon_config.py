import math

import numpy as np
import pytest

import erestab.polygon_config
from erestab.errors import (
    ConvergenceError,
    DomainError,
    ExistenceError,
    InvariantViolation,
    SingularityError,
)
from erestab.linearization import compute_D
from erestab.polygon_config import (
    _BRACKETS,
    PolygonSystem,
    Site,
    bang_quantities,
    h1,
    hn,
    site_equation,
    solve_site,
)

from oracles import hn_highprec, polygon_alpha, polygon_configuration, polygon_limits


class TestLatticeMeans:
    def test_h1_small_n(self):
        assert h1(1) == 0.0
        assert h1(2) == pytest.approx(0.125, abs=1e-16)
        # (1/12) * (2 / sqrt(3)) = 1 / (3 sqrt 3)
        assert h1(3) == pytest.approx(0.19245008972987526, abs=2e-16)

    def test_h1_matches_highprec(self):
        import mpmath as mp

        for n in (5, 12, 64):
            with mp.workdps(50):
                want = float(
                    sum(1 / mp.sin(j * mp.pi / n) for j in range(1, n)) / (4 * n)
                )
            assert h1(n) == pytest.approx(want, rel=1e-15)

    def test_hn_at_zero_x(self):
        for n in (2, 5, 9):
            assert hn(n, 0.0, 0.3) == pytest.approx(1.0, abs=1e-15)

    def test_hn_shift_periodicity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            x = rng.uniform(0.0, 0.95)
            u = rng.uniform(0.0, 6.0)
            assert hn(n, x, u + 2.0 * math.pi / n) == pytest.approx(
                hn(n, x, u), rel=1e-13, abs=1e-14
            )

    def test_hn_frozen_value(self):
        # 64-digit naive summation oracle
        assert hn(5, 0.5, 0.1) == pytest.approx(1.3449273680514786, abs=1e-14)
        assert hn(5, 0.5, 0.1) == pytest.approx(hn_highprec(5, 0.5, 0.1), abs=1e-14)

    def test_hn_singularity_names_term(self):
        with pytest.raises(SingularityError, match="j=5"):
            hn(5, 1.0, 0.0)


class TestPolygonSystem:
    def test_normalization(self):
        sys8 = PolygonSystem.from_mass_ratio(8, 100.0)
        assert abs(sys8.m0 + sys8.M - 1.0) <= 1e-14
        assert sys8.omega_sq == pytest.approx(sys8.m0 + sys8.M * h1(8), rel=1e-13)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            PolygonSystem.from_mass_ratio(1, 10.0)
        with pytest.raises(DomainError):
            PolygonSystem.from_mass_ratio(8, -1.0)
        with pytest.raises(DomainError):
            PolygonSystem(8, 0.6, 0.1)  # violates m0 + n*m = 1


class TestSites:
    @pytest.mark.parametrize("site, end", [(Site.S2, 0), (Site.S3, 0), (Site.S1, 1)])
    def test_exact_zero_at_bracket_end_is_returned(self, site, end, monkeypatch):
        root = _BRACKETS[site][end]
        monkeypatch.setattr(erestab.polygon_config, "site_equation",
                            lambda sys, rho, theta: rho - root)
        b = solve_site(PolygonSystem.from_mass_ratio(8, 1e3), site)
        assert b.rho == root

    def test_no_sign_change_is_existence_error(self, monkeypatch):
        monkeypatch.setattr(erestab.polygon_config, "site_equation",
                            lambda sys, rho, theta: 1.0)
        with pytest.raises(ExistenceError, match="no sign change"):
            solve_site(PolygonSystem.from_mass_ratio(8, 1e3), Site.S3)

    def test_s1_s2_exist_near_circle_for_heavy_center(self):
        sys8 = PolygonSystem.from_mass_ratio(8, 1e4)
        b1 = solve_site(sys8, Site.S1)
        b2 = solve_site(sys8, Site.S2)
        assert b1.rho > 1.0 and abs(b1.rho - 1.0) < 0.1
        assert 0.0 < b2.rho < 1.0 and abs(b2.rho - 1.0) < 0.1

    def test_site_equation_residual(self):
        sys5 = PolygonSystem.from_mass_ratio(5, 50.0)
        for site in Site:
            b = solve_site(sys5, site)
            theta = 0.0 if site is not Site.S3 else math.pi / 5
            assert abs(site_equation(sys5, b.rho, theta)) < 1e-12

    def test_s1_has_negative_lambda4(self):
        for ratio in (10.0, 1e3):
            b = solve_site(PolygonSystem.from_mass_ratio(8, ratio), Site.S1)
            assert b.l3 < 0.0
            assert b.lambda4 < 0.0

    def test_s3_signs(self):
        for ratio in (10.0, 1e3, 1e5):
            b = solve_site(PolygonSystem.from_mass_ratio(8, ratio), Site.S3)
            assert b.l3 > 0.0
            assert 2.0 * b.A - b.omega_sq > 0.0
            assert b.lambda4 == pytest.approx(b.l3 / b.omega_sq, rel=1e-12)

    def test_bang_alignment_and_l_identities(self):
        sys9 = PolygonSystem.from_mass_ratio(9, 200.0)
        for site in Site:
            b = solve_site(sys9, site)
            assert abs(b.aligned_B.imag) < 1e-10 * max(1.0, abs(b.B))
            assert b.l2 == pytest.approx(b.omega_sq - b.A, abs=1e-12)
            assert b.l3 == pytest.approx(b.omega_sq + b.A - abs(b.B), abs=1e-12)

    def test_s1_s2_large_ratio_has_real_positive_B(self):
        sys8 = PolygonSystem.from_mass_ratio(8, 1e5)
        for site in (Site.S1, Site.S2):
            b = solve_site(sys8, site)
            assert b.B.real > 0.0
            assert abs(b.B.imag) < 1e-10 * abs(b.B)

    # Large m0/M, the paper's "m0/m sufficiently large" regime, is out of reach
    # near the circle: the fixed 1e-12 residual bound sits below the rounding
    # of 1 + x^2 - 2 x cos in hn, and the S3 root (rho - 1 ~ 7.4e-10 at 1e8)
    # falls below the bracket end 1 + 1e-9.
    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="site equation residual too large: rounding in hn near the circle")
    def test_s2_at_large_ratio(self):
        solve_site(PolygonSystem.from_mass_ratio(12, 1e8), Site.S2)

    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="the S3 root lies below the bracket end 1 + 1e-9")
    def test_s3_at_large_ratio(self):
        solve_site(PolygonSystem.from_mass_ratio(8, 1e8), Site.S3)

    # vertices() puts the j = n vertex at exp(-2 pi i) = 1 + 2.449e-16j, so
    # 1e-6 from it the site-aligned B keeps Im(B)/|B| = 4.9e-10, over the
    # fixed 1e-10 bound of BangQuantities.
    @pytest.mark.xfail(strict=True, raises=InvariantViolation,
                       reason="the j = n vertex sits at 1 + 2.449e-16j, not at 1")
    @pytest.mark.parametrize("rho", [1.0 - 1e-6, 1.0 + 1e-6], ids=["inside", "outside"])
    def test_bang_quantities_next_to_a_vertex(self, rho):
        bang_quantities(PolygonSystem.from_mass_ratio(8, 1e3), rho, 0.0)


class TestLimits:
    def test_s1_limits(self):
        row = polygon_limits(8, [1e6], Site.S1)[0]
        assert abs(row.a_ratio - 2.0) < 0.05
        assert abs(row.b_ratio - 6.0) < 0.15
        assert row.l3 < 0.0

    def test_s3_limits(self):
        row = polygon_limits(8, [1e6], Site.S3)[0]
        assert 0.5 < row.a_ratio < 0.55
        assert 0.0 < row.l3 < 0.05
        assert row.lambda4 > 0.0

    def test_monotone_approach_when_halving_ratio(self):
        rows = polygon_limits(8, [1e4, 1e5, 1e6], Site.S1)
        gaps = [abs(r.a_ratio - 2.0) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_lambda_sum_identity(self):
        for site in Site:
            for row in polygon_limits(6, [10.0, 1e3], site):
                assert row.lambda3 + row.lambda4 == pytest.approx(
                    2.0 + 2.0 * row.a_ratio, rel=1e-12
                )


class TestCrossValidation:
    @pytest.mark.parametrize("n,ratio", [(4, 10.0), (8, 1e4), (12, 1e3), (8, 1e6)])
    def test_mu_alpha_cubed_equals_omega_sq(self, n, ratio):
        sys_ = PolygonSystem.from_mass_ratio(n, ratio)
        bang = solve_site(sys_, Site.S3)
        config = polygon_configuration(sys_, bang)
        assert abs(config.mu * polygon_alpha(sys_)**3 - sys_.omega_sq) < 1e-10
        assert config.cc_residual < 1e-10

    @pytest.mark.parametrize("site", list(Site))
    def test_D_eigenvalues_match_lattice_sums(self, site):
        sys_ = PolygonSystem.from_mass_ratio(8, 1e3)
        bang = solve_site(sys_, site)
        config = polygon_configuration(sys_, bang)
        lam3, lam4 = compute_D(config).eigenvalues
        assert lam3 == pytest.approx(bang.lambda3, abs=1e-9)
        assert lam4 == pytest.approx(bang.lambda4, abs=1e-9)

    def test_bang_quantities_rejects_vertex_hit(self):
        sys_ = PolygonSystem.from_mass_ratio(6, 10.0)
        with pytest.raises(SingularityError):
            bang_quantities(sys_, 1.0, 0.0)
