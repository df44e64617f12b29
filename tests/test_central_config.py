import math

import numpy as np
import pytest

import erestab.central_config
from erestab.central_config import (
    MAX_ITER,
    SQRT3,
    Configuration,
    MassSystem,
    _amended_potential,
    _damped_newton,
    _derivatives,
    _restricted_positions,
    collinear_three_primaries,
    locate_offline_equilibria,
    massless_sums,
    moulton_collinear,
    offline_equilibria,
    offline_equilibrium,
    restricted_position,
    solve_euler_quintic,
    solve_symmetric_y,
)
from erestab.errors import (
    ConvergenceError,
    DegenerateSolutionError,
    DomainError,
    ErestabError,
    SingularityError,
)

from oracles import (
    amended_potential_numpy,
    cc_defect_complex,
    locus_scan_equilibria,
    massless_sums_numpy,
    offline_equilibrium_scalar,
    quintic_positive_roots,
    restricted_position_scalar,
    solve_euler_quintic_polyval,
    symmetric_four_body,
    symmetric_y_highprec,
)


def random_triple(rng):
    m = rng.dirichlet((2.0, 2.0, 2.0))
    return MassSystem(tuple(m / m.sum()))


class TestMassSystem:
    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            MassSystem((0.5, -0.1, 0.6))
        with pytest.raises(DomainError):
            MassSystem((1.0, 0.0))

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            MassSystem((0.5, 0.6, 0.2))

    def test_normalized(self):
        ms = MassSystem.normalized((2.0, 3.0, 5.0))
        assert abs(sum(ms.masses) - 1.0) <= 1e-14


class TestEulerQuintic:
    def test_symmetric_masses_give_unit_root(self):
        assert solve_euler_quintic(0.2, 0.6, 0.2) == pytest.approx(1.0, abs=1e-14)
        assert solve_euler_quintic(1 / 3, 1 / 3, 1 / 3) == pytest.approx(1.0, abs=1e-14)

    def test_asymmetric_root_unique_and_accurate(self):
        x = solve_euler_quintic(0.5, 0.3, 0.2)
        roots = quintic_positive_roots(0.5, 0.3, 0.2)
        assert len(roots) == 1
        assert x == pytest.approx(roots[0], abs=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m1, m2, m3 = rng.dirichlet((1.5, 1.5, 1.5))
            x = solve_euler_quintic(m1, m2, m3)
            coeffs = [m3 + m2, 3 * m3 + 2 * m2, 3 * m3 + m2,
                      -(3 * m1 + m2), -(3 * m1 + 2 * m2), -(m1 + m2)]
            assert abs(np.polyval(coeffs, x)) / max(abs(c) for c in coeffs) < 1e-13

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(DomainError):
            solve_euler_quintic(0.0, 0.5, 0.5)

    def test_exact_zero_on_the_grid_is_returned(self, monkeypatch):
        # x - g vanishes exactly at the scan point g: Brent returns the
        # zero endpoint and the Newton polish leaves it in place.
        g = float(np.geomspace(1e-8, 100.0, 10_000)[5000])
        monkeypatch.setattr(erestab.central_config, "euler_quintic_coefficients",
                            lambda m1, m2, m3: np.array([0.0, 0.0, 0.0, 0.0, 1.0, -g]))
        assert solve_euler_quintic(0.2, 0.6, 0.2) == g
        assert solve_euler_quintic_polyval(0.2, 0.6, 0.2) == g


class TestCollinearThree:
    def test_symmetric_positions_closed_form(self):
        m2 = 0.4
        m1 = 0.5 * (1.0 - m2)
        cfg = collinear_three_primaries(MassSystem((m1, m2, m1)))
        d = (1.0 - m2) ** -0.5
        expected = np.array([[-d, 0.0], [0.0, 0.0], [d, 0.0]])
        assert np.max(np.abs(cfg.primary_positions - expected)) < 1e-12

    def test_residual_via_independent_defect(self):
        cfg = collinear_three_primaries(MassSystem((0.5, 0.3, 0.2)))
        assert cfg.cc_residual < 1e-10
        outside = cc_defect_complex(cfg.masses.masses, cfg.primary_positions, cfg.mu)
        assert outside < 1e-10

    def test_normalization_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            ms = random_triple(rng)
            cfg = collinear_three_primaries(ms)
            m = ms.array
            assert abs(m @ cfg.primary_positions[:, 0]) < 1e-12
            assert abs(np.sum(m * np.sum(cfg.primary_positions**2, axis=1)) - 1.0) < 1e-12
            assert cfg.cc_residual < 1e-10

    def test_bad_construction_rejected(self):
        with pytest.raises(ConvergenceError):
            Configuration.from_primaries(
                MassSystem((0.5, 0.3, 0.2)), [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]
            )


class TestMoulton:
    def test_matches_three_body_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ms = random_triple(rng)
            direct = collinear_three_primaries(ms)
            general = moulton_collinear(ms)
            assert np.max(np.abs(direct.primary_positions - general.primary_positions)) < 1e-10

    def test_two_body_closed_form(self):
        ms = MassSystem((0.7, 0.3))
        cfg = moulton_collinear(ms)
        scale = 1.0 / math.sqrt(0.7 * 0.3)
        expected = np.array([[-0.3 * scale, 0.0], [0.7 * scale, 0.0]])
        assert np.max(np.abs(cfg.primary_positions - expected)) < 1e-10

    def test_four_equal_masses_symmetric(self):
        cfg = moulton_collinear(MassSystem((0.25, 0.25, 0.25, 0.25)))
        xs = cfg.primary_positions[:, 0]
        assert cfg.cc_residual < 1e-10
        assert np.max(np.abs(xs + xs[::-1])) < 1e-10

    def test_ordering_permutes_bodies(self):
        ms = MassSystem((0.5, 0.3, 0.2))
        cfg = moulton_collinear(ms, ordering=(1, 0, 2))
        xs = cfg.primary_positions[:, 0]
        assert xs[1] < xs[0] < xs[2]
        assert cfg.cc_residual < 1e-10

    def test_bad_ordering_rejected(self):
        with pytest.raises(DomainError):
            moulton_collinear(MassSystem((0.5, 0.5)), ordering=(0, 0))


class TestRestrictedPosition:
    def test_symmetric_site_matches_y_equation(self):
        m2 = 0.3
        cfg = symmetric_four_body(m2)
        y = solve_symmetric_y(m2)
        expected = np.array([0.0, y * (1.0 - m2) ** -0.5])
        assert np.max(np.abs(cfg.massless_position - expected)) < 1e-10

    def test_two_primary_limit_is_equilateral(self):
        cfg = symmetric_four_body(0.0)
        assert cfg.massless_position[1] == pytest.approx(SQRT3, abs=1e-9)

    def test_random_triples_residual_and_multiplier(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ms = random_triple(rng)
            cfg = offline_equilibrium(collinear_three_primaries(ms))
            assert cfg.cc_residual < 1e-10
            m = ms.array
            diff = cfg.primary_positions - cfg.massless_position[None, :]
            r = np.hypot(diff[:, 0], diff[:, 1])
            assert abs(cfg.mu - np.sum(m / r**3)) < 1e-9

    def test_locus_scan_agrees_with_newton(self):
        cfg = collinear_three_primaries(MassSystem((0.5, 0.3, 0.2)))
        newton = restricted_position(cfg).massless_position
        found = locate_offline_equilibria(cfg)
        assert np.hypot(*(found - newton)) < 1e-9

    # The mass-plane cells ((k1 + 1/4)/14, (k3 + 1/4)/14) where Newton from
    # (0, 1) lands on the primaries' line, and their mirrors.
    FALLBACK_CELLS = [(0, 5), (2, 5), (3, 10), (5, 0), (5, 2), (10, 3)]

    @pytest.mark.parametrize("k1, k3", FALLBACK_CELLS)
    def test_fallback_matches_locus_scan(self, k1, k3):
        m1, m3 = (k1 + 0.25) / 14, (k3 + 0.25) / 14
        cfg = collinear_three_primaries(MassSystem((m1, 1.0 - m1 - m3, m3)))
        with pytest.raises(DegenerateSolutionError):
            restricted_position(cfg, (0.0, 1.0))
        nearest = min(locus_scan_equilibria(cfg), key=lambda a: np.hypot(a[0], a[1] - 1.0))
        found = offline_equilibrium(cfg)
        assert np.hypot(*(found.massless_position - nearest)) < 1e-9
        assert found.cc_residual < 1e-10

    def test_descent_evaluates_each_iterate_once(self, monkeypatch):
        # scipy asks for V's value and gradient, then for its Hessian, at
        # each iterate; one evaluation answers both
        points = []
        amended_potential = erestab.central_config._amended_potential

        def counted(config, a):
            points.append(a.tobytes())
            return amended_potential(config, a)

        monkeypatch.setattr(erestab.central_config, "_amended_potential", counted)
        m1, m3 = 0.25 / 14, 0.375  # the benchmark's fallback cell
        locate_offline_equilibria(
            collinear_three_primaries(MassSystem.normalized((m1, 1.0 - m1 - m3, m3))))
        assert len(points) == len(set(points)) == 6

    def test_guess_on_line_rejected(self):
        cfg = collinear_three_primaries(MassSystem((0.5, 0.3, 0.2)))
        with pytest.raises(DomainError):
            restricted_position(cfg, guess=(0.5, 0.0))

    def test_independent_defect_at_solution(self):
        cfg = restricted_position(collinear_three_primaries(MassSystem((0.5, 0.3, 0.2))))
        defect = cc_defect_complex(
            cfg.masses.masses, cfg.primary_positions, cfg.mu, cfg.massless_position
        )
        assert defect < 1e-10


def test_solver_outputs_pinned():
    """Exact outputs of the two Newton solvers: a refactor of their
    iteration must leave every bit of these unchanged."""
    ms = MassSystem((0.1, 0.2, 0.3, 0.4))
    chain = moulton_collinear(ms)
    assert repr((chain.primary_positions.tolist(), float(chain.mu))) == (
        "([[-1.8221608174036068, 0.0], [-1.0407118973413856, 0.0], "
        "[-0.10949452656046027, 0.0], [1.0580170479419395, 0.0]], 0.2623308663133036)"
    )
    permuted = moulton_collinear(ms, ordering=(2, 0, 3, 1))
    assert repr((permuted.primary_positions.tolist(), float(permuted.mu))) == (
        "([[-0.4942587279628052, 0.0], [1.4696339838876291, 0.0], "
        "[-1.2835094193806196, 0.0], [0.3513797545823514, 0.0]], 0.26222895340182695)"
    )
    # The benchmark's mass-plane cell where Newton from (0, 1) degenerates
    # and the descent re-seeds it.
    m1, m3 = 0.25 / 14, 0.375
    cfg = offline_equilibrium(
        collinear_three_primaries(MassSystem.normalized((m1, 1.0 - m1 - m3, m3)))
    )
    assert repr((cfg.massless_position.tolist(), float(cfg.cc_residual))) == (
        "([0.2317026460068428, 1.7406131639655669], 6.938893903907228e-17)"
    )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestScalarKernelPin:
    """The scalar spacing-quintic and distance-sum kernels return the bits of
    the numpy forms they replaced (``tests/oracles.py``)."""

    def test_quintic_roots(self):
        triples = np.random.default_rng(27).dirichlet((1.5, 1.5, 1.5), 2000).tolist()
        got = [solve_euler_quintic(*t) for t in triples]
        assert _bits(got) == _bits([solve_euler_quintic_polyval(*t) for t in triples])

    @staticmethod
    def _cases():
        """(configuration, point) pairs: 10 points each on 200 cells of the
        C11 mass grid and the six fallback cells, then on chains of 2 to 12
        primaries (s1 of eight or more terms is numpy's pairwise sum)."""
        rng = np.random.default_rng(2027)
        grid = np.linspace(0.005, 0.985, 100)
        cells = [(m1, m3) for m1 in grid for m3 in grid if m1 + m3 < 1.0]
        picks = [cells[i] for i in rng.choice(len(cells), 200, replace=False)]
        picks += [((k1 + 0.25) / 14, (k3 + 0.25) / 14)
                  for k1, k3 in TestRestrictedPosition.FALLBACK_CELLS]
        configs = [collinear_three_primaries(MassSystem.normalized((m1, 1.0 - m1 - m3, m3)))
                   for m1, m3 in picks]
        configs += [moulton_collinear(MassSystem.normalized(rng.uniform(0.5, 2.0, k)))
                    for k in (2, 4, 7, 8, 9, 12)]
        for cfg in configs:
            eq = offline_equilibrium(cfg).massless_position if len(cfg.masses) == 3 else None
            points = rng.uniform((-2.0, -2.0), (2.0, 2.0), (10, 2))
            if eq is not None:
                points[:2] = [eq, (0.0, 1.0)]
            for p in points:
                yield cfg, p

    def test_distance_sums_gradient_and_hessian(self):
        got, want = [], []
        for cfg, p in self._cases():
            r, s1, _, outer, _ = massless_sums(cfg.primary_positions, cfg.masses.array, p)
            grad, (hess, s1_newton, r_newton), _ = _derivatives(
                cfg.primary_positions, cfg.masses.array, cfg.mu, p)
            value, grad_v, hess_v = _amended_potential(cfg, p)
            _, r_np, _, s1_np, outer_np = massless_sums_numpy(cfg, p)
            value_np, grad_np, hess_np = amended_potential_numpy(cfg, p)
            got.append(np.concatenate([r, r_newton, [s1, s1_newton, value], np.ravel(outer),
                                       grad, grad_v, hess.ravel(), hess_v.ravel()]))
            want.append(np.concatenate([r_np, r_np, [s1_np, s1_np, value_np], outer_np.ravel(),
                                        grad_np, grad_np, hess_np.ravel(), hess_np.ravel()]))
        assert len(got) >= 2000
        assert _bits(np.concatenate(got)) == _bits(np.concatenate(want))


def _outcome(solve, *args):
    """What a solve gives bit for bit: the position's bytes and the attached
    residual, or the error's type and message."""
    try:
        got = solve(*args)
    except ErestabError as exc:
        return type(exc).__name__, str(exc)
    return _settled(got)


def _settled(got):
    if isinstance(got, ErestabError):
        return type(got).__name__, str(got)
    if isinstance(got, Configuration):
        return _bits(got.massless_position), repr(float(got.cc_residual))
    position, residual = got
    return _bits(position), repr(float(residual))


class TestLockstepEquilibriumPin:
    """The off-line equilibria of a batch are solved in lockstep: each point
    keeps its own steps, halvings and stop, so its position, residual or
    error message are those of its own solve, alone, in a batch, in the
    reversed batch and in the one-point Newton loop of ``tests/oracles.py``."""

    BASE = (0.5, 0.3, 0.2)
    # Newton's first full step from here lands within 1e-12 of the primary
    # at x < 0, so that trial counts as no progress and is halved.
    TRIAL_HITS = (0.09303958271888683, -0.5208178797404428)
    # From here 30 halvings of one step make no progress.
    STALLS = ((0.39546198954297845, 0.5930180594914135, 0.011519950965607977),
              (2.341646112028754, -1.6370544387997217))
    # From here MAX_ITER steps do not reach the tolerance.
    NEVER_CONVERGES = ((0.00764839802320166, 0.7587027924328181, 0.2336488095439802),
                       (-0.9934685783040642, -1.5546418375203608))

    @classmethod
    def _cases(cls):
        """(configuration, guess) pairs: 200 seeded cells of the C11 mass
        grid and the six fallback cells from (0, 1), chains of 2 to 12
        primaries, then a first trial that hits a primary, a stall and a
        point that never converges."""
        rng = np.random.default_rng(2028)
        grid = np.linspace(0.005, 0.985, 100)
        cells = [(m1, m3) for m1 in grid for m3 in grid if m1 + m3 < 1.0]
        picks = [cells[i] for i in rng.choice(len(cells), 200, replace=False)]
        picks += [((k1 + 0.25) / 14, (k3 + 0.25) / 14)
                  for k1, k3 in TestRestrictedPosition.FALLBACK_CELLS]
        cases = [(collinear_three_primaries(MassSystem.normalized((m1, 1.0 - m1 - m3, m3))),
                  (0.0, 1.0)) for m1, m3 in picks]
        cases += [(moulton_collinear(MassSystem.normalized(rng.uniform(0.5, 2.0, k))), (0.0, 1.0))
                  for k in range(2, 13)]
        base = collinear_three_primaries(MassSystem(cls.BASE))
        cases.append((base, cls.TRIAL_HITS))
        for masses, guess in (cls.STALLS, cls.NEVER_CONVERGES):
            cases.append((collinear_three_primaries(MassSystem.normalized(masses)), guess))
        return cases

    def test_the_special_points_are_what_they_claim(self):
        base = collinear_three_primaries(MassSystem(self.BASE))
        start = np.array(self.TRIAL_HITS)
        grad, (hess, _, _), _ = _derivatives(
            base.primary_positions, base.masses.array, base.mu, start)
        trial = start + np.linalg.solve(hess, -grad)
        assert np.hypot(*(trial - base.primary_positions[0])) < 1e-12
        cases = self._cases()[-3:]
        want = ["Configuration", "stalled", "did not converge"]
        for (config, guess), what in zip(cases, want):
            got = _outcome(restricted_position, config, guess)
            assert (what in got[1]) if what != "Configuration" else isinstance(got[0], bytes)

    def test_newton_stage(self):
        cases = self._cases()
        configs = [c for c, _ in cases]
        starts = np.array([g for _, g in cases])
        alone = [_outcome(restricted_position, c, g) for c, g in cases]
        oracle = [_outcome(restricted_position_scalar, c, g) for c, g in cases]
        batch = [_settled(o) for o in _restricted_positions(configs, starts)]
        backwards = [_settled(o) for o in _restricted_positions(configs[::-1], starts[::-1])][::-1]
        assert sum(isinstance(b[0], str) for b in batch) >= 8  # six fallbacks and two specials
        assert batch == alone == backwards == oracle

    def test_with_the_fallback(self):
        cases = self._cases()
        configs, guesses = [c for c, _ in cases], [g for _, g in cases]
        alone = [_outcome(offline_equilibrium, c, g) for c, g in cases]
        oracle = [_outcome(offline_equilibrium_scalar, c, g) for c, g in cases]
        batch = [_settled(o) for o in offline_equilibria(configs, guesses)]
        backwards = [_settled(o) for o in offline_equilibria(configs[::-1], guesses[::-1])][::-1]
        assert batch == alone == backwards == oracle

    def test_stacked_solve_equals_one_matrix_at_a_time(self):
        rng = np.random.default_rng(5000)
        a, b = rng.normal(size=(5000, 2, 2)), rng.normal(size=(5000, 2))
        stacked = np.linalg.solve(a, b[..., None])[..., 0]
        assert _bits(stacked) == _bits([np.linalg.solve(m, v) for m, v in zip(a, b)])

    def test_row_wise_distances_and_powers_equal_one_point_at_a_time(self):
        rng = np.random.default_rng(5001)
        d = rng.uniform(-3.0, 3.0, (5000, 3, 2)) * 10.0 ** rng.uniform(-4.0, 1.0, (5000, 3, 1))
        r = np.hypot(d[..., 0], d[..., 1])
        rows = [np.hypot(p[:, 0], p[:, 1]) for p in d]
        assert _bits(r) == _bits(rows)
        assert _bits(r**3) == _bits([q**3 for q in rows])
        assert _bits(r**5) == _bits([q**5 for q in rows])


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("solver, args", [
    (solve_euler_quintic, (NAN, 0.5, 0.5)),
    (solve_euler_quintic, (0.5, 0.5, INF)),
    (offline_equilibrium, ((0.0, NAN),)),
    (locate_offline_equilibria, ((0.0, NAN),)),
    (restricted_position, ((INF, 1.0),)),
], ids=["quintic-nan", "quintic-inf", "offline-nan", "locate-nan", "restricted-inf"])
def test_non_finite_input_is_domain_error(solver, args):
    if solver is not solve_euler_quintic:
        args = (collinear_three_primaries(MassSystem((0.5, 0.3, 0.2))),) + args
    with pytest.raises(DomainError, match="finite"):
        solver(*args)


def _no_work(*args):
    raise AssertionError("a solve started")


@pytest.mark.parametrize("count", [1, 3])
def test_one_guess_per_configuration(count, monkeypatch):
    config = collinear_three_primaries(MassSystem((0.5, 0.3, 0.2)))
    monkeypatch.setattr(erestab.central_config, "_restricted_positions", _no_work)
    with pytest.raises(DomainError, match=f"^{count} guesses for 2 configurations$"):
        offline_equilibria([config, config], [(0.0, 1.0)] * count)


@pytest.mark.parametrize("guess", [(0.0, 1.0, 2.0), (1.0,), 1.0, [[0.0, 1.0]]],
                         ids=["triple", "single", "scalar", "nested"])
@pytest.mark.parametrize("solver", [
    restricted_position, offline_equilibrium, locate_offline_equilibria,
    lambda config, guess: offline_equilibria([config, config], [(0.0, 1.0), guess]),
], ids=["restricted", "offline", "locate", "batch"])
def test_guess_that_is_not_a_pair_is_domain_error(solver, guess, monkeypatch):
    config = collinear_three_primaries(MassSystem((0.5, 0.3, 0.2)))
    monkeypatch.setattr(erestab.central_config, "_restricted_positions", _no_work)
    with pytest.raises(DomainError, match=r"^guess must be a pair \(x, y\), got "):
        solver(config, guess)


class TestDampedNewton:
    def test_singular_trial_is_halved(self):
        # The step overshoots 4x into a region where the residual is singular;
        # halving twice lands on the root.
        trials = []

        def residual(x):
            trials.append(float(x[0, 0]))
            hit = x[:, 0] >= 1.5
            # a trial on a primary is no progress, whatever its residual reads
            return np.where(hit[:, None], 0.0, x - 1.0), (), hit

        ((x, res, _),) = _damped_newton(residual, lambda x, res, extra: -4.0 * res,
                                        np.zeros((1, 1)), (), 1e-12, "toy")
        assert x.tolist() == [1.0]
        assert res.tolist() == [0.0]
        assert trials == [0.0, 4.0, 2.0, 1.0]

    def test_slow_descent_stops_at_max_iter(self):
        # Each full step halves the residual, so every step is accepted but
        # MAX_ITER of them leave it at 2**-MAX_ITER, far above tol.
        def residual(x):
            return x, (), np.zeros(len(x), dtype=bool)

        (outcome,) = _damped_newton(residual, lambda x, res, extra: -0.5 * res,
                                    np.ones((1, 1)), (), 1e-100, "toy")
        assert isinstance(outcome, ConvergenceError)
        assert str(outcome) == (
            f"toy did not converge in {MAX_ITER} iterations (last residual {2.0 ** -MAX_ITER:.3e})"
        )
        assert outcome.residual == 2.0 ** -MAX_ITER

    def test_start_on_a_primary_fails_that_point_only(self):
        def residual(x):
            return x - 1.0, (), x[:, 0] == 5.0

        out = _damped_newton(residual, lambda x, res, extra: -res,
                             np.array([[0.0], [5.0], [3.0]]), (), 1e-12, "toy")
        assert [o[0].tolist() for o in (out[0], out[2])] == [[1.0], [1.0]]
        assert isinstance(out[1], SingularityError)
        assert str(out[1]) == "massless body hit a primary"


class TestSymmetricY:
    def test_anchors(self):
        assert solve_symmetric_y(0.0) == pytest.approx(SQRT3, abs=1e-12)
        assert abs(solve_symmetric_y(1.0 - 1e-9) - 1.0) < 1e-3

    def test_matches_highprec_solution(self):
        for m2 in (0.3, 0.6):
            assert solve_symmetric_y(m2) == pytest.approx(symmetric_y_highprec(m2), abs=1e-12)

    def test_residual(self):
        rng = np.random.default_rng(13)
        for m2 in rng.uniform(0.0, 0.999, 20):
            y = solve_symmetric_y(m2)
            lhs = (1 - m2) / (y * y + 1) ** 1.5 + (m2 / y**3 if m2 else 0.0)
            assert abs(lhs - (1 + 7 * m2) / 8) < 1e-13

    def test_strictly_decreasing_on_grid(self):
        grid = np.arange(0.0, 0.9995, 1e-3)
        ys = np.array([solve_symmetric_y(m) for m in grid])
        assert np.all(np.diff(ys) < 0.0)
        assert np.all(ys >= 1.0) and np.all(ys <= SQRT3)

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_symmetric_y(1.0)
        with pytest.raises(DomainError):
            solve_symmetric_y(-0.1)
