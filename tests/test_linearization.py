import math

import numpy as np
import pytest

from erestab.central_config import MassSystem, collinear_three_primaries, offline_equilibrium
from erestab.errors import DomainError
from erestab.linearization import (
    MAX_ECCENTRICITY,
    DMatrix,
    StabilityParams,
    compute_D,
    spectral_params,
    symmetric_beta,
    symmetric_z,
)

from oracles import b_matrix, b_matrix_d_form, rotation, routh_beta, spin_matrix, symmetric_four_body


def random_restricted_config(rng):
    m = rng.dirichlet((2.0, 2.0, 2.0))
    ms = MassSystem(tuple(m / m.sum()))
    return offline_equilibrium(collinear_three_primaries(ms))


class TestComputeD:
    def test_symmetric_chain_diagonal_form(self):
        for m2 in (0.1, 0.3, 0.7):
            cfg = symmetric_four_body(m2)
            d = compute_D(cfg)
            z = symmetric_z(m2)
            expected = 3.0 * np.diag([z, 1.0 - z])
            assert np.max(np.abs(d.entries - expected)) < 1e-11

    def test_trace_law_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = compute_D(random_restricted_config(rng))
            assert abs(np.trace(d.entries) - 3.0) < 1e-10
            assert abs(d.beta20) < 1e-10
            assert np.linalg.det(d.entries) >= -1e-12
            lam3, lam4 = d.eigenvalues
            assert lam3 + lam4 == pytest.approx(3.0, abs=1e-10)
            assert lam4 > -1e-10

    def test_requires_massless_position(self):
        cfg = collinear_three_primaries(MassSystem((0.5, 0.3, 0.2)))
        with pytest.raises(DomainError):
            compute_D(cfg)

    # a NaN makes every `abs(x) > tol` test false, so an unchecked NaN
    # beta20 would skip the trace law
    @pytest.mark.parametrize("entry, beta20", [
        (0.0, math.nan), (0.0, math.inf), (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0)])
    def test_non_finite_entries_or_beta20_are_domain_errors(self, entry, beta20):
        entries = np.diag([2.0, 1.0])
        entries[0, 1] = entries[1, 0] = entry
        with pytest.raises(DomainError, match="^D and beta20 must be finite"):
            DMatrix(entries, beta20=beta20)


class TestStabilityParams:
    def test_spectral_params_identity_on_diagonal(self):
        d = DMatrix(np.diag([2.2, 0.8]), beta20=0.0)
        p = spectral_params(d, 0.1)
        assert (p.lambda3, p.lambda4) == pytest.approx((2.2, 0.8), abs=1e-15)
        assert p.alpha == pytest.approx(0.5)
        assert p.beta == pytest.approx(0.7)
        assert p.beta_hls == pytest.approx(9.0 - 1.4**2)

    def test_identity_matrix_flags_beta_not_applicable(self):
        d = DMatrix(np.eye(2), beta20=-1.0)
        p = spectral_params(d, 0.0)
        assert p.lambda3 == p.lambda4 == 1.0
        assert p.alpha == pytest.approx(0.0)
        assert p.beta == pytest.approx(0.0)
        assert not p.beta_hls_applicable
        assert math.isnan(p.beta_hls)

    def test_ordering_and_eccentricity_validation(self):
        with pytest.raises(DomainError):
            StabilityParams(1.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            StabilityParams(2.0, 1.0, 1.0)
        assert StabilityParams(2.0, 1.0, MAX_ECCENTRICITY).e == 0.99
        with pytest.raises(DomainError, match=r"\[0, 0\.99\]"):
            StabilityParams(2.0, 1.0, 0.995)
        with pytest.raises(DomainError):
            StabilityParams(2.0, 1.0, float("nan"))
        with pytest.raises(DomainError):
            StabilityParams.from_beta_hls(9.5, 0.0)
        nan, inf = float("nan"), float("inf")
        for build, args in [
            (StabilityParams, (nan, 1.0, 0.1)),
            (StabilityParams, (1.0, nan, 0.1)),
            (StabilityParams, (inf, 1.0, 0.1)),
            (StabilityParams.from_alpha_beta, (nan, 1.0, 0.1)),
            (StabilityParams.from_alpha_beta, (0.5, nan, 0.1)),
        ]:
            with pytest.raises(DomainError, match="finite"):
                build(*args)

    def test_from_beta_hls_round_trip(self):
        p = StabilityParams.from_beta_hls(4.0, 0.2)
        assert p.lambda3 + p.lambda4 == pytest.approx(3.0, abs=1e-15)
        assert p.beta_hls == pytest.approx(4.0, abs=1e-12)

    def test_collinear_alpha_is_half(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = spectral_params(compute_D(random_restricted_config(rng)), 0.3)
            assert p.alpha == pytest.approx(0.5, abs=1e-10)


class TestSymmetricChain:
    def test_beta_limits(self):
        assert symmetric_beta(0.0) == pytest.approx(27.0 / 4.0, abs=1e-10)
        assert symmetric_z(0.0) == pytest.approx(0.25, abs=1e-12)
        assert symmetric_beta(1.0 - 1e-9) < 1e-6

    def test_beta_at_zero_matches_equilateral_value(self):
        # with the middle mass removed the chain is the equilateral triangle
        # of masses (1/2, 0, 1/2)
        assert symmetric_beta(0.0) == pytest.approx(routh_beta(0.5, 0.0, 0.5), abs=1e-10)

    def test_eigenvalue_pair_at_zero_middle_mass(self):
        p = spectral_params(compute_D(symmetric_four_body(0.0)), 0.0)
        assert p.lambda3 == pytest.approx(9.0 / 4.0, abs=1e-10)
        assert p.lambda4 == pytest.approx(3.0 / 4.0, abs=1e-10)


class TestBMatrix:
    def test_circular_case_is_constant(self):
        p = StabilityParams.from_alpha_beta(0.5, 0.4, 0.0)
        assert np.array_equal(b_matrix(p, 0.0), b_matrix(p, 1.234))

    def test_block_arithmetic(self):
        p = StabilityParams(2.0, 1.0, 0.5)
        b = b_matrix(p, 0.0)
        expected = np.eye(2) - (2.0 / 3.0) * np.diag([2.0, 1.0])
        assert np.max(np.abs(b[2:, 2:] - expected)) < 1e-15
        assert np.array_equal(b[:2, :2], np.eye(2))

    def test_periodicity(self):
        p = StabilityParams.from_alpha_beta(0.7, 0.3, 0.6)
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-10, 10, 5):
            assert np.max(np.abs(b_matrix(p, theta + 2 * math.pi) - b_matrix(p, theta))) < 1e-12

    def test_d_form_matches_k_form_for_diagonal_D(self):
        d = DMatrix(np.diag([2.0, 1.0]), beta20=0.0)
        p = spectral_params(d, 0.3)
        for theta in (0.0, 1.0):
            assert np.max(np.abs(b_matrix_d_form(d, 0.3, theta) - b_matrix(p, theta))) < 1e-14


class TestFrames:
    def test_spin_matrix_equals_rotated_reflection(self):
        for t in (0.0, 0.7, 2.9):
            r = rotation(t)
            want = r @ np.diag([1.0, -1.0]) @ r.T
            assert np.max(np.abs(spin_matrix(t) - want)) < 1e-14
