"""How a failed point travels through a batch.

Every batch layer keeps a failed point's ErestabError in the point's place,
caught by ``errors.caught`` with its traceback dropped, and each one-point
wrapper raises that error through ``errors.unwrap``.  So a stored failure
keeps no frame alive, and one point alone fails with the type and message
its batch stores.
"""

import gc
import weakref
from dataclasses import replace

import pytest

import erestab.central_config
import erestab.linearization
import erestab.scan
from erestab.central_config import (
    MassSystem,
    collinear_three_primaries,
    offline_equilibria,
    offline_equilibrium,
)
from erestab.errors import (
    ConvergenceError,
    CurveExtractionError,
    DegenerateSolutionError,
    DomainError,
    ErestabError,
    InvariantViolation,
    SingularityError,
    caught,
    unwrap,
)
from erestab.linearization import StabilityParams, compute_D, compute_Ds
from erestab.scan import (
    ScanSettings,
    _bisect_boundaries,
    _bisect_boundary,
    _each,
    _theta_build,
    analyze,
    scan_theta,
)

FAST = ScanSettings(integrator_tol=1e-10)


def fails(exc):
    def raising(*args, **kwargs):
        raise exc
    return raising


def same_failure(stored, call, *args):
    """``stored`` is a failure kept with no traceback, and ``call(*args)``
    raises the same type with the same message."""
    assert isinstance(stored, ErestabError)
    assert stored.__traceback__ is None
    with pytest.raises(type(stored)) as alone:
        call(*args)
    assert type(alone.value) is type(stored)
    assert str(alone.value) == str(stored)


class TestHelpers:
    def test_caught_returns_the_value(self):
        assert caught(divmod, 7, 2) == (3, 1)
        assert caught(int, "ff", base=16) == 255

    def test_caught_returns_the_error_without_its_traceback(self):
        exc = caught(fails(DomainError("bad")))
        assert isinstance(exc, DomainError) and str(exc) == "bad"
        assert exc.__traceback__ is None

    def test_caught_passes_other_exceptions(self):
        with pytest.raises(ZeroDivisionError):
            caught(lambda: 1 / 0)

    def test_unwrap(self):
        value = object()
        assert unwrap(value) is value
        exc = ConvergenceError("stuck")
        with pytest.raises(ConvergenceError) as raised:
            unwrap(exc)
        assert raised.value is exc

    def test_a_caught_error_keeps_no_frame_alive(self):
        # without the garbage collector, the failed call's locals die with
        # its frame: the stored error does not refer to it
        refs = []

        class Local:
            pass

        def build(**key):
            local = Local()
            refs.append(weakref.ref(local))
            raise DomainError("no point")

        enabled = gc.isenabled()
        gc.disable()
        try:
            (built,) = _each(build, [{}])
            assert isinstance(built, DomainError)
            assert refs[0]() is None
        finally:
            if enabled:
                gc.enable()


def test_each_stores_what_the_build_raises():
    key = {"beta": 10.0, "e": 0.0}  # beta outside [0, 9]
    (built,) = _each(_theta_build, [key])
    same_failure(built, StabilityParams.from_beta_hls, *key.values())


def test_sweep_analyze_step(monkeypatch):
    # the integration succeeds, the Morse solve fails: the row keeps the
    # message, and analyze on the point alone raises the same error
    exc = ConvergenceError("no certified count")
    monkeypatch.setattr(erestab.scan, "morse_index", fails(exc))
    (record,) = scan_theta([1.5], [0.3], FAST)
    assert exc.__traceback__ is None
    assert record.error == "no certified count" and record.verdict is None
    with pytest.raises(ConvergenceError, match="^no certified count$"):
        analyze(StabilityParams.from_beta_hls(1.5, 0.3), FAST)


def test_bisect_boundaries_store_what_the_pred_raises():
    pred = fails(CurveExtractionError("no answer"))
    (result,) = _bisect_boundaries([(pred, 0.0, 1.0)], 1e-6, lambda mids: None)
    same_failure(result, _bisect_boundary, pred, 0.0, 1.0, 1e-6)


def test_offline_equilibria_store_what_the_descent_raises(monkeypatch):
    # from (0, 1) Newton lands on the line at this mass-plane cell, so the
    # descent seeds it; a failed descent is that point's outcome only
    m1, m3 = 0.25 / 14, 5.25 / 14
    config = collinear_three_primaries(MassSystem((m1, 1.0 - m1 - m3, m3)))
    other = collinear_three_primaries(MassSystem((0.5, 0.3, 0.2)))
    monkeypatch.setattr(erestab.central_config, "locate_offline_equilibria",
                        fails(DegenerateSolutionError("the descent ended on the line")))
    failed, solved = offline_equilibria([config, other])
    assert solved.massless_position is not None
    same_failure(failed, offline_equilibrium, config)


class TestComputeDs:
    CONFIG = offline_equilibrium(collinear_three_primaries(MassSystem((0.5, 0.3, 0.2))))

    def test_a_point_on_a_primary(self):
        on_primary = replace(self.CONFIG, massless_position=self.CONFIG.primary_positions[0])
        failed, d = compute_Ds([on_primary, self.CONFIG])
        assert isinstance(failed, SingularityError)
        assert d.entries.shape == (2, 2)
        same_failure(failed, compute_D, on_primary)

    def test_a_d_matrix_that_fails_its_invariant(self, monkeypatch):
        monkeypatch.setattr(erestab.linearization, "TRACE_LAW_TOL", -1.0)
        (failed,) = compute_Ds([self.CONFIG])
        assert isinstance(failed, InvariantViolation)
        same_failure(failed, compute_D, self.CONFIG)
