import cmath
import csv
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import erestab.maslov
from erestab.errors import ConvergenceError, DomainError
from erestab.linearization import StabilityParams
from erestab.maslov import (
    KERNEL_TOL_FACTOR,
    _bracket,
    _counts,
    _high_mode_bounds,
    _reflected_eigenvalues,
    assemble_operator,
    morse_index,
    omega_to_rho,
    r_e_fourier_coefficients,
)
from erestab.monodromy import (
    DEFAULT_CIRCLE_TOL,
    Monodromy,
    circle_jump_sum,
    classify_spectrum,
    integrate_fundamental,
    kernel_dimension,
    symplectic_residual,
)
from erestab.polygon_config import PolygonSystem, Site, solve_site
from erestab.scan import polygon_params

import test_monodromy
from oracles import (
    complex_galerkin_operator,
    diamond,
    full_matrix_morse_counts,
    index_monodromy_consistency,
    ladder_morse_index,
    operator_spectrum_e0,
    positivity_check,
    rot,
)

DATA = Path(__file__).parent / "data"

# The curve row of bench/reference/curves.json: its e, its beta_s and beta_m,
# and the jumps themselves there (roots of det(gamma(2 pi) + I) in beta).
E_ROW = 0.3006888437030501
BETA_S_REF, BETA_M_REF = 0.36328125, 1.19140625
BETA_S_ROOT, BETA_M_ROOT = 0.3601339416310468, 1.18964656543386


def params(alpha, beta, e):
    return StabilityParams.from_alpha_beta(alpha, beta, e)


def kernel_tol(h):
    return KERNEL_TOL_FACTOR * float(np.max(np.sum(np.abs(h), axis=1)))


def ladder_counts(build, p, omega, levels=(64, 128)):
    """(phi, nu) per level as ``morse_index`` counts them, band from the first level."""
    tol = None
    counts = []
    for K in levels:
        h = build(p, omega, K)
        if tol is None:
            tol = kernel_tol(h)
        vals = np.linalg.eigvalsh(h)
        below, at_most = _counts(vals, tol)
        counts.append((below, at_most - below))
    return counts


class TestFourierCoefficients:
    def test_against_quadrature(self):
        e = 0.6
        c = r_e_fourier_coefficients(e, 8)
        for m in range(9):
            val, _ = quad(
                lambda t: math.cos(m * t) / (1.0 + e * math.cos(t)),
                0.0,
                math.pi,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert c[m] == pytest.approx(val / math.pi, abs=1e-12)

    def test_circular_case_is_delta(self):
        c = r_e_fourier_coefficients(0.0, 5)
        assert np.array_equal(c, np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))


class TestAssembly:
    def test_exact_hermiticity(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = params(rng.uniform(0, 2), rng.uniform(0, 3), rng.uniform(0, 0.8))
            omega = cmath.exp(2j * math.pi * rng.uniform(0, 1))
            h = assemble_operator(p, omega, 16)
            assert np.max(np.abs(h - h.conj().T)) < 1e-13 * np.max(np.abs(h))

    def test_circular_case_banded_exactly(self):
        h = assemble_operator(params(0.5, 1.0, 0.0), -1.0, 12)
        n = 25
        blocks = h.reshape(n, 2, n, 2)
        for j in range(n):
            for k in range(n):
                if abs(j - k) not in (0, 2):
                    assert np.all(blocks[j, :, k, :] == 0.0)

    @pytest.mark.parametrize("omega", [1.0, -1.0])
    def test_circular_case_banded_both_omegas(self, omega):
        h = assemble_operator(params(0.5, 1.0, 0.0), omega, 12)
        rows, cols = np.nonzero(h)
        assert rows.size > 0
        assert set(np.abs(rows // 2 - cols // 2).tolist()) <= {0, 2}

    @pytest.mark.parametrize("K", [16, 64])
    def test_real_symmetric_conjugate_of_complex_operator(self, K):
        rng = np.random.default_rng(K)
        u = np.tile([1.0, 1.0j], 2 * K + 1)  # diagonal of U = I (x) diag(1, i)
        for _ in range(5):
            p = params(rng.uniform(0, 2), rng.uniform(0, 3), rng.uniform(0, 0.9))
            omega = cmath.exp(2j * math.pi * rng.uniform(0, 1))
            h = assemble_operator(p, omega, K)
            hc = complex_galerkin_operator(p, omega, K)
            assert h.dtype == np.float64
            assert np.array_equal(h, h.T)
            assert np.array_equal(np.diag(u).conj().T @ hc @ np.diag(u), h)
            assert kernel_tol(h) == kernel_tol(hc)

    def test_circular_diagonal_closed_form(self):
        # alpha = 1/2, beta = 0, omega = 1: eigenvalues k^2 + 1/2, doubled
        h = assemble_operator(params(0.5, 0.0, 0.0), 1.0, 16)
        vals = np.sort(np.linalg.eigvalsh(h))
        ks = np.arange(-16, 17)
        want = np.sort(np.concatenate([ks**2 + 0.5, ks**2 + 0.5]))
        assert np.max(np.abs(vals - want)) < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            assemble_operator(params(0.5, 0.0, 0.0), 1.0, 4)
        with pytest.raises(DomainError):
            assemble_operator(params(0.5, 0.0, 0.0), 2.0, 16)


class TestOmegaToRho:
    @pytest.mark.parametrize("omega", [cmath.exp(2j * math.pi), complex(1.0, -1e-18)])
    def test_just_below_the_real_axis_is_zero(self, omega):
        assert omega_to_rho(omega) == 0.0

    @pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, 0.75])
    def test_round_trip(self, rho):
        assert omega_to_rho(cmath.exp(2j * math.pi * rho)) == pytest.approx(rho, abs=1e-15)


# beta_hls = 2 on the collinear family, and a generic (alpha, beta)
REFLECTION_POINTS = [(0.5, math.sqrt(7.0) / 2.0), (0.37, 1.91)]


def mirror_and_sign(n):
    """Index of (-k, c) for the interleaved index of (k, c), and (-1)^c."""
    return np.arange(n).reshape(-1, 2)[::-1].ravel(), np.tile([1.0, -1.0], n // 2)


class TestReflection:
    @pytest.mark.parametrize("K", [8, 16, 64])
    @pytest.mark.parametrize("e", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("alpha,beta", REFLECTION_POINTS)
    def test_reflection_commutes_bit_for_bit(self, K, e, alpha, beta):
        h = assemble_operator(params(alpha, beta, e), 1.0, K)
        m, s = mirror_and_sign(h.shape[0])
        assert np.array_equal(h[m][:, m] * np.outer(s, s), h)

    @pytest.mark.parametrize("K", [8, 16, 64])
    @pytest.mark.parametrize("e", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("alpha,beta", REFLECTION_POINTS)
    def test_blocks_carry_the_full_spectrum(self, K, e, alpha, beta):
        h = assemble_operator(params(alpha, beta, e), 1.0, K)
        vals = np.sort(_reflected_eigenvalues(h))
        norm = float(np.max(np.sum(np.abs(h), axis=1)))
        assert vals.shape == (h.shape[0],)
        assert np.max(np.abs(vals - np.linalg.eigvalsh(h))) <= 1e-12 * norm


class TestMorseIndex:
    @pytest.mark.parametrize("alpha,beta,rho", [(0.5, 1.2, 0.0), (0.5, 1.2, 0.5),
                                                (1.5, 2.5, 0.25), (0.0, 0.3, 0.1)])
    def test_circular_counts_match_closed_form(self, alpha, beta, rho):
        spectrum = operator_spectrum_e0(alpha, beta, rho, 300)
        want_phi = int(np.count_nonzero(spectrum < -1e-9))
        res = morse_index(params(alpha, beta, 0.0), cmath.exp(2j * math.pi * rho))
        assert res.phi == want_phi

    def test_phi1_vanishes_below_three_halves(self):
        for beta in (0.3, 0.8, 1.2, 1.45):
            for e in (0.1, 0.4, 0.7):
                assert morse_index(params(0.5, beta, e), 1.0).phi == 0

    def test_phi_minus_one_anchor(self):
        res = morse_index(params(0.5, 1.5, 0.2), -1.0)
        assert res.phi == 2
        assert res.nu == 0

    def test_monotone_in_family_parameter(self):
        # phi_-1 non-increasing as the collinear-family beta grows
        e = 0.2
        phis = [
            morse_index(StabilityParams.from_beta_hls(b, e), -1.0).phi
            for b in np.arange(0.0, 9.01, 0.5)
        ]
        assert all(b <= a for a, b in zip(phis, phis[1:]))
        assert phis[0] == 2 and phis[-1] == 0

    def test_operator_domination_in_alpha(self):
        e, beta = 0.3, 1.0
        mins = [
            morse_index(params(alpha, beta, e), 1.0).min_eigenvalue
            for alpha in (0.2, 0.5, 1.0, 2.0)
        ]
        assert all(b >= a for a, b in zip(mins, mins[1:]))

    def test_counts_match_complex_operator_where_fragile(self):
        seen = set()
        for p, omega in _fragile_points():
            counts = ladder_counts(assemble_operator, p, omega)
            assert counts == ladder_counts(complex_galerkin_operator, p, omega)
            seen.update(counts)
        # the cases straddle both jumps and hit the kernel at both of them
        assert {(2, 0), (1, 1), (1, 0), (0, 1), (0, 0), (0, 2)} <= seen

    def test_counts_at_one_match_full_matrix_ladder(self):
        # the fragile rows above, the nu_1 = 3 point beta_hls = 0 and the
        # e = 0 tongue tip
        cases = [(beta + d, E_ROW)
                 for beta in (BETA_S_REF, BETA_M_REF, BETA_S_ROOT, BETA_M_ROOT)
                 for d in (-1e-3, 0.0, 1e-3)]
        cases += [(0.0, 0.0), (0.0, E_ROW), (0.0, 0.9), (0.75, 0.0)]
        for beta, e in cases:
            p = StabilityParams.from_beta_hls(beta, e)
            res = morse_index(p, 1.0)
            assert (res.phi, res.nu) == full_matrix_morse_counts(p, 1.0)[:2]
            if beta == 0.0:
                assert res.nu == 3

    @pytest.mark.parametrize("p, omega, want", [
        (params(0.5, 1.5, 0.2), 1.0, [129] * 4),
        (params(0.5, 1.5, 0.2), -1.0, [258]),
        (params(0.5, 1.5, 0.2), 1j, [258]),
        # nu_-1 = 2 at the e = 0 tongue tip: the bracket needs its second solve
        (StabilityParams.from_beta_hls(0.75, 0.0), -1.0, [258, 258]),
    ])
    def test_only_w_one_is_solved_in_blocks(self, monkeypatch, p, omega, want):
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            sizes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        # every bracket closes at K = 64 here; rho = 1/4 is omega = i
        assert morse_index(p, omega).num_modes == 129
        assert sizes == [(n, n) for n in want]

    def test_non_stabilization_raises(self, monkeypatch):
        monkeypatch.setattr(erestab.maslov, "DEFAULT_LEVELS", (16,))
        p = params(0.5, 2.0, 0.99)
        assert _high_mode_bounds(p, 0.0, 16)[0] <= 0.0
        with pytest.raises(ConvergenceError, match="K=16"):
            morse_index(p, 1.0)


def _theta_golden_points():
    with open(DATA / "golden_theta.csv") as f:
        next(f)
        return [StabilityParams.from_beta_hls(float(r["beta"]), float(r["e"]))
                for r in csv.DictReader(f)]


def _polygon_golden_points():
    with open(DATA / "golden_polygon.csv") as f:
        next(f)
        return [StabilityParams(float(r["lambda3"]), float(r["lambda4"]), float(r["e"]))
                for r in csv.DictReader(f) if not r["error"]]


def _fragile_points():
    """beta_s and beta_m of the benchmark's curve row, within 1e-3 and at
    the jumps, the e = 0 tongue tip, and the extra rho of the consistency
    check."""
    cases = [(StabilityParams.from_beta_hls(beta + d, E_ROW), -1.0)
             for beta in (BETA_S_REF, BETA_M_REF, BETA_S_ROOT, BETA_M_ROOT)
             for d in (-1e-3, 0.0, 1e-3)]
    tip = StabilityParams.from_beta_hls(0.75, 0.0)
    cases += [(tip, -1.0), (tip, 1.0)]
    cases += [(StabilityParams.from_beta_hls(beta, e), cmath.exp(2j * math.pi * rho))
              for beta, e in ((0.75, 0.0), (BETA_S_ROOT, E_ROW))
              for rho in (0.1, 0.25)]
    return cases


def _random_points():
    rng = np.random.default_rng(19)
    points = [StabilityParams.from_beta_hls(rng.uniform(0.0, 9.0), rng.uniform(0.0, 0.99))
              for _ in range(10)]
    for _ in range(5):
        n = int(rng.choice([4, 6, 8, 12]))
        site = (Site.S1, Site.S2, Site.S3)[rng.integers(3)]
        points.append(polygon_params(n, 10.0 ** rng.uniform(1.0, 4.0), site,
                                     rng.uniform(0.0, 0.9))[0])
    return points


THREE_OMEGAS = (1.0, -1.0, 1j)

CORPUS = {
    "golden-theta": lambda: [(p, w) for p in _theta_golden_points() for w in THREE_OMEGAS],
    "golden-polygon": lambda: [(p, w) for p in _polygon_golden_points() for w in THREE_OMEGAS],
    "scalar-rhs-pin": lambda: [(p, w) for p in test_monodromy.PINNED.values()
                               for w in THREE_OMEGAS],
    "fragile": _fragile_points,
    "random": lambda: [(p, w) for p in _random_points() for w in THREE_OMEGAS],
}


class TestCertifiedBracket:
    @pytest.mark.parametrize("corpus", CORPUS)
    def test_counts_equal_the_ladder(self, corpus):
        for p, omega in CORPUS[corpus]():
            res, want = morse_index(p, omega), ladder_morse_index(p, omega)
            assert (res.phi, res.nu) == (want.phi, want.nu), (p, omega)
            assert res.num_modes <= want.num_modes

    # (alpha, beta, e, omega, K); the first two are points where H_8 misses
    # negative eigenvalues that a larger truncation finds
    BRACKET_CASES = [
        (-0.35, 6.58, 0.88, -1.0, 8),
        (-0.96, 2.62, 0.956, 1.0, 8),
        (0.5, 1.5, 0.2, 1.0, 16),
        (1.9, 5.7, 0.6, -1.0, 16),
        (0.5, 0.3, 0.9, 1j, 32),
    ]

    @pytest.mark.parametrize("alpha, beta, e, omega, K", BRACKET_CASES)
    def test_bracket_holds_the_larger_truncation(self, alpha, beta, e, omega, K):
        p = params(alpha, beta, e)
        rho = omega_to_rho(omega)
        h = assemble_operator(p, omega, K)
        tol = kernel_tol(h)
        delta, g = _high_mode_bounds(p, rho, K)
        assert delta > tol
        lower = _counts(np.linalg.eigvalsh(h), tol)
        upper = _counts(np.linalg.eigvalsh(h - np.diag(g / (delta - tol))), tol)
        # H_128 counts lie below the operator's, which the bracket bounds
        fine = _counts(np.linalg.eigvalsh(assemble_operator(p, omega, 128)), tol)
        assert lower[0] <= fine[0] <= upper[0]
        assert lower[1] <= fine[1] <= upper[1]
        # the blocks, and the shortcut when it fires, give the same bracket
        vals, got_lower, got_upper = _bracket(p, rho, K, h, tol)
        assert got_lower == lower
        assert got_upper == upper

    @pytest.mark.parametrize("alpha, beta, e, omega, K", BRACKET_CASES + [
        (0.5, 3.0, 0.99, 1.0, 8),
        (0.5, 3.0, 0.99, -1.0, 16),
    ])
    def test_high_mode_bounds_hold_on_a_larger_truncation(self, alpha, beta, e, omega, K):
        # compressions raise eigenvalues, so the block of H_N on K < |k| <= N
        # is no lower than the operator's high-mode block L; its coupling C
        # to the low modes is a corner of the operator's
        p = params(alpha, beta, e)
        N = K + 80
        h = assemble_operator(p, omega, N)
        k = np.repeat(np.arange(-N, N + 1), 2)
        low, high = np.abs(k) <= K, np.abs(k) > K
        delta, g = _high_mode_bounds(p, omega_to_rho(omega), K)
        assert np.linalg.eigvalsh(h[np.ix_(high, high)]).min() >= delta
        c = h[np.ix_(low, high)]
        scale = float(g.max())
        assert np.linalg.eigvalsh(np.diag(g) - c @ c.T).min() >= -1e-12 * scale

    def test_open_bracket_escalates(self, monkeypatch):
        # delta_16 <= 0 here, so K = 16 cannot certify and K = 64 does
        levels = []
        assemble = erestab.maslov.assemble_operator

        def spy(p, omega, K):
            levels.append(K)
            return assemble(p, omega, K)

        monkeypatch.setattr(erestab.maslov, "assemble_operator", spy)
        monkeypatch.setattr(erestab.maslov, "DEFAULT_LEVELS", (16, 64))
        p = params(0.5, 2.0, 0.99)
        assert _high_mode_bounds(p, 0.0, 16)[0] <= 0.0
        res = morse_index(p, 1.0)
        assert levels == [16, 64]
        assert res.num_modes == 129
        want = ladder_morse_index(p, 1.0)
        assert (res.phi, res.nu) == (want.phi, want.nu)


class TestPositivity:
    def test_flat_operator_positive_on_full_circle(self, monkeypatch):
        monkeypatch.setattr(erestab.maslov, "DEFAULT_LEVELS", (16, 32))
        assert positivity_check(params(0.5, 0.0, 0.0), omega_samples=16)

    def test_heavy_center_limit_not_positive(self, monkeypatch):
        monkeypatch.setattr(erestab.maslov, "DEFAULT_LEVELS", (32, 64))
        assert not positivity_check(params(2.0, 6.0, 0.1), omega_samples=16)

    def test_polygon_s3_positive_at_one(self):
        bang = solve_site(PolygonSystem.from_mass_ratio(8, 1e4), Site.S3)
        res = morse_index(StabilityParams(bang.lambda3, bang.lambda4, 0.2), 1.0)
        assert res.phi == 0 and res.nu == 0
        assert res.min_eigenvalue > 0.0

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            positivity_check(params(0.5, 0.0, 0.0), omega_samples=8)


class TestConsistency:
    def test_nullity_matches_monodromy_kernel_at_degeneracy(self):
        p = StabilityParams.from_beta_hls(0.75, 0.0)
        rep = index_monodromy_consistency(p)
        assert rep.nu_operator == rep.nu_monodromy
        assert rep.nu_operator[1] == 2  # omega = -1 at the circular degeneracy

    def test_generic_points_have_empty_kernels(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            p = StabilityParams.from_beta_hls(rng.uniform(0, 9), rng.uniform(0, 0.7))
            rep = index_monodromy_consistency(p)
            assert rep.nu_consistent

    def test_jump_sum_polygon_s3(self):
        bang = solve_site(PolygonSystem.from_mass_ratio(8, 1e3), Site.S3)
        p = StabilityParams(bang.lambda3, bang.lambda4, 0.1)
        rep = index_monodromy_consistency(p)
        assert rep.phi_m1 - rep.phi_1 == 2
        assert rep.jump_from_monodromy == 2
        assert rep.consistent

    def test_jump_sum_stable_collinear(self):
        rep = index_monodromy_consistency(StabilityParams.from_beta_hls(0.9, 0.1))
        assert rep.jump_from_indices == 0
        assert rep.jump_from_monodromy == 0

    def test_hyperbolic_point_all_nullities_zero(self):
        p = StabilityParams.from_beta_hls(4.0, 0.1)
        rep = index_monodromy_consistency(p)
        assert rep.nu_monodromy == (0, 0, 0, 0)
        assert rep.nu_consistent

    def test_kernel_dimension_gate(self):
        mono = integrate_fundamental(StabilityParams.from_beta_hls(3.0, 0.2))
        assert kernel_dimension(mono, 1.0) == 0
        assert kernel_dimension(Monodromy.from_matrix(np.eye(4)), 1.0) == 4
        # the rank rule classify_spectrum uses for semisimplicity: a Jordan
        # block at +1 has a one-dimensional kernel, -I a two-dimensional one
        jordan = Monodromy.from_matrix(diamond(TestCircleJumpSum.SHEAR, rot(0.5)))
        assert kernel_dimension(jordan, 1.0) == 1
        assert not classify_spectrum(jordan).semisimple
        minus = Monodromy.from_matrix(diamond(-np.eye(2), rot(0.5)))
        assert kernel_dimension(minus, -1.0) == 2


class TestCircleJumpSum:
    """The Krein-signed jump total on hand-built symplectic matrices.

    In the block's (Z, z) plane, rot(a) with 0 < a < pi has the upper
    multiplier e^{ia} with eigenvector (1, -i): Im(v^H J v) > 0, a jump of
    -1.  rot(-a) has the same multiplier with eigenvector (1, i) and a jump
    of +1.  A hyperbolic block has no multiplier on the circle.
    """

    HYPERBOLIC = np.diag([2.0, 0.5])
    SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
    # a symplectic change of basis that mixes both blocks; Krein signs are
    # invariant under it
    MIX = np.block([[np.eye(2), np.array([[1.0, 0.5], [0.5, 2.0]])],
                    [np.zeros((2, 2)), np.eye(2)]])

    def jump(self, *blocks):
        mat = diamond(*blocks)
        mixed = self.MIX @ mat @ np.linalg.inv(self.MIX)
        assert symplectic_residual(mixed) < 1e-12
        jumps = {circle_jump_sum(Monodromy.from_matrix(m), DEFAULT_CIRCLE_TOL)
                 for m in (mat, mixed)}
        assert len(jumps) == 1
        return jumps.pop()

    @pytest.mark.parametrize(
        "blocks, expected",
        [
            ((rot(1.0), HYPERBOLIC), -1),
            ((rot(-1.0), HYPERBOLIC), 1),
            ((rot(1.0), rot(-2.0)), 0),
            ((rot(1.0), rot(2.0)), -2),
            ((HYPERBOLIC, -HYPERBOLIC), 0),
        ],
        ids=["positive", "negative", "opposite-pair", "same-pair", "no-circle"],
    )
    def test_known_krein_signs(self, blocks, expected):
        assert self.jump(*blocks) == expected

    @pytest.mark.parametrize(
        "blocks",
        [
            (rot(1.0), SHEAR),
            (rot(1.0), -np.eye(2)),
            (rot(1.0), rot(1.0 + 1e-5)),
            (rot(1.0), rot(-1.0 - 1e-5)),
        ],
        ids=["at-plus-one", "at-minus-one", "cluster-same", "cluster-opposite"],
    )
    def test_unresolved_spectrum_is_none(self, blocks):
        assert self.jump(*blocks) is None
