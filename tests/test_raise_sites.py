"""Raise sites of the public API that no other test reaches, each once,
with the type and message of its error."""

import math
import re

import numpy as np
import pytest

from erestab.central_config import (
    Configuration,
    MassSystem,
    cc_defect,
    collinear_three_primaries,
    locate_offline_equilibria,
    solve_euler_quintic,
)
from erestab.errors import ConvergenceError, DomainError, InvariantViolation, SingularityError
from erestab.linearization import DMatrix, StabilityParams
from erestab.maslov import r_e_fourier_coefficients
from erestab.polygon_config import PolygonSystem, h1, hn, site_equation

THREE = MassSystem((0.25, 0.5, 0.25))


def _with_massless_at_a_primary():
    config = collinear_three_primaries(THREE)
    config.with_massless(config.primary_positions[0])


def _offline_equilibria_of_lagrange():
    triangle = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    locate_offline_equilibria(Configuration.from_primaries(THREE, triangle), (0.5, 0.5))


CASES = {
    "one-primary": (lambda: MassSystem((1.0,)), DomainError,
                    "a mass system needs at least two primaries"),
    "zero-total-mass": (lambda: MassSystem.normalized((0.0, 0.0)), DomainError,
                        "total mass must be positive"),
    "coincident-primaries": (
        lambda: Configuration.from_primaries(THREE, [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]),
        SingularityError, "primaries 0 and 1 are coincident"),
    "zero-inertia": (lambda: Configuration.from_primaries(THREE, [(1.0, 2.0)] * 3), DomainError,
                     "degenerate configuration: zero moment of inertia"),
    "cc-defect-coincident": (
        lambda: cc_defect(THREE.array, np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), 1.0),
        SingularityError, "evaluation point coincides with a primary"),
    # the root lies past the scan grid's end at 100
    "quintic-root-beyond-grid": (lambda: solve_euler_quintic(1.0, 1e-30, 1e-30), ConvergenceError,
                                 "no sign change of the quintic on (0, 100)"),
    "collinear-two-masses": (lambda: collinear_three_primaries(MassSystem((0.5, 0.5))), DomainError,
                             "collinear_three_primaries needs a 3-mass collinear system"),
    "massless-at-a-primary": (_with_massless_at_a_primary, SingularityError,
                              "massless body hit a primary"),
    "offline-off-axis": (_offline_equilibria_of_lagrange, DomainError,
                         "locate_offline_equilibria needs primaries on the x-axis"),
    "asymmetric-d": (lambda: DMatrix(np.array([[1.0, 0.5], [0.0, 2.0]]), 0.0), InvariantViolation,
                     "D matrix is not symmetric"),
    "negative-beta": (lambda: StabilityParams.from_alpha_beta(0.0, -1.0, 0.1), DomainError,
                      "beta must be nonnegative"),
    "fourier-e-one": (lambda: r_e_fourier_coefficients(1.0, 4), DomainError,
                      "eccentricity must lie in [0, 1), got 1.0"),
    "h1-n-zero": (lambda: h1(0), DomainError, "n must be >= 1"),
    "hn-n-zero": (lambda: hn(0, 0.5), DomainError, "n must be >= 1"),
    "hn-negative-x": (lambda: hn(8, -0.5), DomainError, "x must be finite and nonnegative, got -0.5"),
    "polygon-zero-m0": (lambda: PolygonSystem(8, 0.0, 0.125), DomainError,
                        "masses must be positive"),
    "site-rho-zero": (lambda: site_equation(PolygonSystem.from_mass_ratio(8, 100.0), 0.0, 0.0),
                      DomainError, "rho must be positive and finite, got 0.0"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_raise_site(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
