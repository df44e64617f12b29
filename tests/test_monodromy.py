import functools
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

import erestab.monodromy
from erestab.central_config import MassSystem, collinear_three_primaries, offline_equilibrium
from erestab.errors import ConvergenceError, DomainError
from erestab.linearization import J4, StabilityParams, compute_D
from erestab.monodromy import (
    TWO_PI,
    Monodromy,
    Verdict,
    _dop853,
    _fundamental_rhs,
    _weights,
    classify_spectrum,
    integrate_fundamental,
    integrate_fundamentals,
)
from erestab.polygon_config import Site
from erestab.scan import polygon_params

from oracles import (
    b_matrix,
    diamond,
    eigenvalue_quadruple_residual,
    frame_spectra_agreement,
    integrate_fundamental_rows,
    integrate_fundamental_solve_ivp,
    match_eigs,
    matrix_exponential,
    monodromy_eigs_e0,
    rot,
    sample_symplectic_residuals,
    sorted_eigvals,
    spectral_distance,
)


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exponential(np.zeros((4, 4))), np.eye(4))

    def test_full_turn_rotation_block(self):
        a = np.zeros((4, 4))
        a[0, 1], a[1, 0] = -2.0 * math.pi, 2.0 * math.pi
        out = matrix_exponential(a)
        assert np.max(np.abs(out - np.eye(4))) < 1e-13

    def test_inverse_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.uniform(-2.0, 2.0, (4, 4))
            prod = matrix_exponential(a) @ matrix_exponential(-a)
            assert np.max(np.abs(prod - np.eye(4))) < 1e-11

    def test_against_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.uniform(-3.0, 3.0, (4, 4))
            diff = matrix_exponential(a) - scipy.linalg.expm(a)
            assert np.max(np.abs(diff)) < 1e-11 * max(1.0, np.max(np.abs(scipy.linalg.expm(a))))


class TestIntegration:
    def test_circular_case_matches_exponential(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            alpha = rng.uniform(0.0, 2.0)
            beta = rng.uniform(0.0, 2.0)
            p = StabilityParams.from_alpha_beta(alpha, beta, 0.0)
            mono = integrate_fundamental(p)
            oracle = matrix_exponential(2.0 * math.pi * J4 @ b_matrix(p, 0.0))
            dist = spectral_distance(mono.eigenvalues, np.linalg.eigvals(oracle))
            scale = max(1.0, max(abs(z) for z in mono.eigenvalues))
            assert dist < 1e-9 * scale

    def test_circular_case_matches_quartic_multipliers(self):
        for beta_hls in (0.4, 0.9, 2.5, 6.0):
            p = StabilityParams.from_beta_hls(beta_hls, 0.0)
            mono = integrate_fundamental(p)
            want = monodromy_eigs_e0(p.lambda3, p.lambda4)
            assert match_eigs(mono.eigenvalues, want) < 1e-8

    def test_determinant_and_symplecticity(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            p = StabilityParams.from_beta_hls(rng.uniform(0.0, 9.0), rng.uniform(0.0, 0.8))
            mono = integrate_fundamental(p)
            assert abs(np.linalg.det(mono.gamma_end) - 1.0) < 1e-9
            assert mono.symplectic_residual < 1e-9
            assert eigenvalue_quadruple_residual(mono.eigenvalues) < 1e-6

    def test_intermediate_symplectic_residuals(self):
        p = StabilityParams.from_beta_hls(3.0, 0.6)
        residuals = sample_symplectic_residuals(p, tol=1e-12, samples=64)
        assert residuals.max() < 1e-7

    def test_tolerance_self_convergence(self):
        for beta_hls, e in ((0.5, 0.3), (4.0, 0.2)):
            p = StabilityParams.from_beta_hls(beta_hls, e)
            coarse = integrate_fundamental(p, 1e-9)
            fine = integrate_fundamental(p, 5e-10)
            assert spectral_distance(coarse.eigenvalues, fine.eigenvalues) < 10.0 * 1e-9

    def test_domain_limits(self):
        with pytest.raises(DomainError):
            integrate_fundamental(StabilityParams(2.0, 1.0, 0.995))
        with pytest.raises(DomainError):
            integrate_fundamental(StabilityParams(2.0, 1.0, 0.1), tol=1e-14)

    def test_deterministic(self):
        p = StabilityParams.from_beta_hls(2.0, 0.4)
        a = integrate_fundamental(p)
        b = integrate_fundamental(p)
        assert np.array_equal(a.gamma_end, b.gamma_end)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected_before_integrating(self, tol, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the stepper reached with a non-finite tolerance")

        monkeypatch.setattr(erestab.monodromy, "_dop853", never)
        with pytest.raises(DomainError):
            integrate_fundamental(StabilityParams.from_beta_hls(2.0, 0.4), tol)


def _generic_points():
    rng = np.random.default_rng(2310)
    return [
        StabilityParams.from_alpha_beta(rng.uniform(-0.5, 2.0), rng.uniform(0.0, 2.0), e)
        for e in (0.0, 0.2, 0.6, 0.9)
    ]


def _random_points():
    """Seeded collinear points over the (beta, e) rectangle and polygon
    sites over n, m0/M, the site and e."""
    rng = np.random.default_rng(853)
    collinear = [StabilityParams.from_beta_hls(rng.uniform(0.0, 9.0), rng.uniform(0.0, 0.99))
                 for _ in range(5)]
    polygon = [polygon_params(int(rng.integers(3, 13)), 10.0 ** rng.uniform(1.0, 5.0),
                              Site(rng.choice(["S1", "S2", "S3"])), rng.uniform(0.0, 0.9))[0]
               for _ in range(3)]
    return collinear + polygon


# Edges and corners of the collinear rectangle, generic (alpha, beta, e)
# points, the three polygon sites and seeded random collinear and polygon
# points, each at the golden tolerance 1e-10, the default 1e-12 and the
# tightest accepted, 1e-13.
PINNED = {
    **{f"beta{b:g}-e{e:g}": StabilityParams.from_beta_hls(b, e)
       for e in (0.0, 0.99) for b in (0.0, 0.75, 9.0)},
    **{f"generic-a{p.alpha:.3f}-b{p.beta:.3f}-e{p.e:g}": p for p in _generic_points()},
    **{f"polygon-{site.value}": polygon_params(8, 1e3, site, 0.1)[0]
       for site in (Site.S1, Site.S2, Site.S3)},
    **{f"random{i}": p for i, p in enumerate(_random_points())},
}
PINNED_TOLS = [1e-10, 1e-12, 1e-13]


def step_one(rhs, y0, tol):
    """``_dop853`` over [0, 2 pi] on the one state ``y0`` with the right-hand
    side ``rhs(t, y)`` of one state: (y, nfev, nsteps), or its
    ConvergenceError raised."""
    def batched(t, y, out):
        out[:, 0] = rhs(t[0], y[:, 0])

    (done,) = _dop853(batched, y0[:, None], TWO_PI, tol)
    if isinstance(done, ConvergenceError):
        raise done
    return done


class TestScalarRhsPin:
    """The scalar right-hand side repeats the row form's IEEE operations in
    the same order, and the in-house DOP853 repeats ``solve_ivp``'s, so the
    whole integration is bit-identical to both oracles."""

    @pytest.mark.parametrize("tol", PINNED_TOLS)
    @pytest.mark.parametrize("p", PINNED.values(), ids=PINNED.keys())
    def test_gamma_and_steps_bit_identical_to_row_form(self, p, tol):
        mono = integrate_fundamental(p, tol)
        gamma, nfev, nsteps = integrate_fundamental_rows(p, tol)
        assert np.array_equal(mono.gamma_end, gamma)
        assert mono.step_metadata["nfev"] == nfev
        assert mono.step_metadata["nsteps"] == nsteps

    @pytest.mark.parametrize("tol", PINNED_TOLS)
    @pytest.mark.parametrize("p", PINNED.values(), ids=PINNED.keys())
    def test_gamma_and_steps_bit_identical_to_solve_ivp(self, p, tol):
        mono = integrate_fundamental(p, tol)
        gamma, nfev, nsteps = integrate_fundamental_solve_ivp(p, tol)
        assert np.array_equal(mono.gamma_end, gamma)
        assert mono.step_metadata == {"method": "DOP853", "tol": tol, "nfev": nfev,
                                      "nsteps": nsteps}

    def test_zero_error_steps_match_solve_ivp(self):
        # f = 0: the initial step takes the branch for vanishing derivatives,
        # and every step has error 0 and grows tenfold until the clamp at 2 pi
        y0 = np.eye(4).ravel()
        sol = solve_ivp(lambda t, y: np.zeros_like(y), (0.0, TWO_PI), y0,
                        method="DOP853", rtol=1e-10, atol=1e-10)
        y, nfev, nsteps = step_one(lambda t, y: (0.0,) * 16, y0, 1e-10)
        assert (nfev, nsteps) == (sol.nfev, len(sol.t) - 1) == (98, 8)
        assert np.array_equal(y, sol.y[:, -1])

    def test_tableau_is_scipys(self):
        ref = dop853_coefficients
        assert np.array_equal(erestab.monodromy._C, ref.C[: ref.N_STAGES])
        assert np.array_equal(erestab.monodromy._A, ref.A[: ref.N_STAGES, : ref.N_STAGES])
        assert np.array_equal(erestab.monodromy._B, ref.B)
        assert np.array_equal(erestab.monodromy._E5, ref.E5)
        assert np.array_equal(erestab.monodromy._E3, ref.E3)


class TestStepperFailure:
    @staticmethod
    def rhs(theta, y):
        """y' = -y up to theta = 1, not a number from there on."""
        return tuple(-v if theta < 1.0 else math.nan for v in y.tolist())

    def test_non_finite_right_hand_side_fails_like_solve_ivp(self):
        y0 = np.eye(4).ravel()
        sol = solve_ivp(self.rhs, (0.0, TWO_PI), y0, method="DOP853", rtol=1e-10, atol=1e-10)
        assert not sol.success and len(sol.t) > 10
        with pytest.raises(ConvergenceError, match="step size .* below") as raised:
            step_one(self.rhs, y0, 1e-10)
        # after the same accepted steps, at the same theta
        assert str(raised.value).endswith(f"at theta = {float(sol.t[-1])!r}")

    def test_step_size_not_a_number_raises(self):
        # solve_ivp would shrink a NaN step forever
        with pytest.raises(ConvergenceError, match="step size nan"):
            step_one(lambda theta, y: (math.nan,) * 16, np.eye(4).ravel(), 1e-10)


@functools.cache
def oracle(p, tol):
    return integrate_fundamental_solve_ivp(p, tol)


def assert_oracle_bits(monos, ps, tol):
    """Each Monodromy of ``monos`` is the ``solve_ivp`` oracle's for its point,
    bit for bit in gamma(2 pi), nfev and nsteps."""
    for p, mono in zip(ps, monos, strict=True):
        gamma, nfev, nsteps = oracle(p, tol)
        assert np.array_equal(mono.gamma_end, gamma)
        assert mono.step_metadata == {"method": "DOP853", "tol": tol, "nfev": nfev,
                                      "nsteps": nsteps}


# The pinned points and an e sweep up to 0.95 at two betas: at 1e-12 the
# step counts run from 31 to 129.
BATCH = [*PINNED.values(),
         *(StabilityParams.from_beta_hls(b, e) for e in (0.0, 0.3, 0.6, 0.8, 0.9, 0.95)
           for b in (0.5, 6.0))]


class TestBatchPin:
    """Each point of a batch keeps its own steps, so it gets the bits of its
    own integration whatever else the batch holds."""

    @pytest.mark.parametrize("tol", PINNED_TOLS)
    def test_mixed_batch_bit_identical_to_solve_ivp(self, tol):
        assert_oracle_bits(integrate_fundamentals(BATCH, tol), BATCH, tol)

    @pytest.mark.parametrize("tol", PINNED_TOLS)
    def test_reversed_batch_bit_identical_to_solve_ivp(self, tol):
        batch = BATCH[::-1]
        assert_oracle_bits(integrate_fundamentals(batch, tol), batch, tol)

    @pytest.mark.parametrize("tol", PINNED_TOLS)
    def test_batch_of_one_bit_identical_to_solve_ivp(self, tol):
        for p in BATCH[::7]:
            assert_oracle_bits(integrate_fundamentals([p], tol), [p], tol)

    def test_points_leaving_in_different_rounds(self):
        # Each point leaves the batch in its own round, and each departure
        # copies the stages into a narrower array; a strided view of the old
        # one moved bits.
        batch = [StabilityParams.from_beta_hls(0.5, 0.95)] + [
            StabilityParams.from_beta_hls(b, e) for e in (0.0, 0.6, 0.3, 0.9) for b in (0.5, 6.0)
        ]
        monos = integrate_fundamentals(batch, 1e-12)
        attempts = [(m.step_metadata["nfev"] - 2) // 12 for m in monos]
        assert len(set(attempts)) == len(batch)
        assert_oracle_bits(monos, batch, 1e-12)

    def test_empty_batch(self):
        assert integrate_fundamentals([], 1e-12) == []

    def test_tolerance_rejected_before_integrating(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the stepper reached with a bad tolerance")

        monkeypatch.setattr(erestab.monodromy, "_dop853", never)
        with pytest.raises(DomainError):
            integrate_fundamentals(BATCH[:2], 1e-14)


def _mixed_coefficients(t, e, lam34, kind):
    return list(zip(_weights(t, e, lam34), t))


def _mixed_rhs(coefficients, y, out, e, lam34, kind):
    """The fundamental system, but ``TestStepperFailure.rhs`` for the points
    of kind 1 and NaN for those of kind 2."""
    weights, theta = coefficients
    _fundamental_rhs(weights, y, out)
    for j in np.flatnonzero(kind == 1):
        out[..., j] = np.reshape(TestStepperFailure.rhs(theta[j], y[..., j].ravel()), (4, 4))
    out[..., kind == 2] = math.nan


class TestBatchFailure:
    """A point that fails leaves the batch with the message of its own
    integration; the other points keep their bits."""

    def test_failing_points_keep_their_messages(self):
        ps = [StabilityParams.from_beta_hls(b, e) for b, e in
              ((0.5, 0.3), (2.0, 0.0), (4.0, 0.6), (6.0, 0.9), (8.0, 0.2))]
        kind = np.array([0, 1, 0, 2, 0])
        e = np.array([p.e for p in ps])
        lam34 = np.array([[p.lambda3 for p in ps], [p.lambda4 for p in ps]])
        y0 = np.repeat(np.eye(4)[:, :, None], len(ps), axis=2)
        out = _dop853(_mixed_rhs, y0, TWO_PI, 1e-12, (e, lam34, kind), _mixed_coefficients)

        for rhs, failed in ((TestStepperFailure.rhs, out[1]),
                            (lambda theta, y: (math.nan,) * 16, out[3])):
            with pytest.raises(ConvergenceError) as alone:
                step_one(rhs, np.eye(4).ravel(), 1e-12)
            assert isinstance(failed, ConvergenceError)
            assert str(failed) == str(alone.value)
        assert "at theta = " in str(out[1]) and "step size nan" in str(out[3])
        for j in (0, 2, 4):
            gamma, nfev, nsteps = oracle(ps[j], 1e-12)
            assert np.array_equal(out[j][0], gamma.ravel())
            assert out[j][1:] == (nfev, nsteps)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")  # from solve_ivp
    def test_overflowing_point_fails_alone(self):
        # lambda3 = 1e200 overflows f at once: the initial step is 0, as in
        # solve_ivp, and the step falls below ten float spacings at theta = 0
        huge = StabilityParams(1e200, 1.0, 0.3)
        batch = [BATCH[0], huge, BATCH[1]]
        monos = integrate_fundamentals(batch, 1e-12)
        with pytest.raises(ConvergenceError) as alone:
            integrate_fundamental(huge, 1e-12)
        with pytest.raises(ConvergenceError):
            integrate_fundamental_solve_ivp(huge, 1e-12)
        assert isinstance(monos[1], ConvergenceError)
        assert str(monos[1]) == str(alone.value)
        assert str(monos[1]).endswith("at theta = 0.0")
        assert_oracle_bits([monos[0], monos[2]], [BATCH[0], BATCH[1]], 1e-12)


class TestClassification:
    def test_two_rotations_strongly_stable(self):
        m = Monodromy.from_matrix(diamond(rot(0.3), rot(1.1)))
        v = classify_spectrum(m)
        assert v.verdict is Verdict.STRONGLY_LINEARLY_STABLE
        assert v.on_circle_count == 4 and v.semisimple

    def test_saddle_times_rotation_unstable(self):
        m = Monodromy.from_matrix(diamond(np.diag([2.0, 0.5]), rot(0.5)))
        v = classify_spectrum(m)
        assert v.verdict is Verdict.UNSTABLE
        assert v.on_circle_count == 2

    def test_jordan_block_spectrally_stable_not_linear(self):
        m = Monodromy.from_matrix(diamond(np.array([[1.0, 1.0], [0.0, 1.0]]), rot(0.5)))
        v = classify_spectrum(m)
        assert v.verdict is Verdict.SPECTRALLY_STABLE_NOT_LINEAR
        assert not v.semisimple

    def test_full_saddle_hyperbolic(self):
        m = Monodromy.from_matrix(diamond(np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])))
        v = classify_spectrum(m)
        assert v.verdict is Verdict.HYPERBOLIC
        assert v.on_circle_count == 0

    def test_identity_is_linearly_stable_not_strong(self):
        v = classify_spectrum(Monodromy.from_matrix(np.eye(4)))
        assert v.verdict is Verdict.LINEARLY_STABLE
        assert v.semisimple

    def test_circular_transition_across_one(self):
        stable = classify_spectrum(integrate_fundamental(StabilityParams.from_beta_hls(0.9, 0.0)))
        unstable = classify_spectrum(integrate_fundamental(StabilityParams.from_beta_hls(1.1, 0.0)))
        assert stable.verdict is Verdict.STRONGLY_LINEARLY_STABLE
        assert unstable.verdict in (Verdict.UNSTABLE, Verdict.HYPERBOLIC)

    def test_degenerate_top_edge_runs_clean(self):
        v = classify_spectrum(integrate_fundamental(StabilityParams.from_beta_hls(9.0, 0.0)))
        assert v.verdict is Verdict.HYPERBOLIC


class TestFrameConjugacy:
    def test_d_form_and_k_form_spectra_agree(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            m = rng.dirichlet((2.0, 2.0, 2.0))
            cfg = offline_equilibrium(
                collinear_three_primaries(MassSystem(tuple(m / m.sum())))
            )
            d = compute_D(cfg)
            assert frame_spectra_agreement(d, rng.uniform(0.0, 0.7), tol=1e-11) < 1e-8


def _integrated(p, tol):
    return lambda: integrate_fundamental(p, tol)


def _built(mat):
    return lambda: Monodromy.from_matrix(mat)


# The golden theta and polygon rows (at their --tol 1e-10), the grid of
# test_scan.py's TestIndicesFromMonodromy (default tolerance) and hand-built
# matrices: the identity, a Jordan block at +1 and two diamonds.
DECOMPOSED = {
    **{f"theta-beta{b:g}-e{e:g}": _integrated(StabilityParams.from_beta_hls(b, e), 1e-10)
       for e in (0.0, 0.2) for b in (0.5, 2.0)},
    **{f"polygon-{site.value}": _integrated(polygon_params(8, 1e3, site, 0.0)[0], 1e-10)
       for site in (Site.S1, Site.S3)},
    **{f"grid-beta{b:g}-e{e:g}": _integrated(StabilityParams.from_beta_hls(b, e), 1e-12)
       for e in (0.0, 0.3, 0.7) for b in (0.5, 1.5, 4.0)},
    "identity": _built(np.eye(4)),
    "jordan": _built(diamond(np.array([[1.0, 1.0], [0.0, 1.0]]), rot(0.5))),
    "two-rotations": _built(diamond(rot(0.3), rot(1.1))),
    "saddle-rotation": _built(diamond(np.diag([2.0, 0.5]), rot(0.5))),
}


class TestDecomposition:
    """``Monodromy`` decomposes gamma(2 pi) once, with ``eig``; every rule on
    the multipliers reads that decomposition."""

    @pytest.mark.parametrize("build", DECOMPOSED.values(), ids=DECOMPOSED.keys())
    def test_eigenvectors_belong_to_their_eigenvalues(self, build):
        mono = build()
        vecs, gamma = mono.eigenvectors, mono.gamma_end
        assert vecs.dtype == complex and not vecs.flags.writeable
        scale = np.linalg.norm(gamma, 2)
        for k, w in enumerate(mono.eigenvalues):
            v = vecs[:, k]
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(gamma @ v - w * v) <= 1e-12 * scale

    @pytest.mark.parametrize("build", DECOMPOSED.values(), ids=DECOMPOSED.keys())
    def test_eigenvalues_match_the_eigenvalues_only_solve(self, build):
        mono = build()
        want = sorted_eigvals(mono.gamma_end)
        assert [type(z) for z in mono.eigenvalues] == [type(z) for z in want]
        assert np.array(mono.eigenvalues).tobytes() == np.array(want).tobytes()
