"""Stability matrix of the linearized motion and its parameterizations.

At the massless-body equilibrium the linearized Hamiltonian system, written
in the true anomaly over one period [0, 2*pi], has coefficient matrix

    B(theta) = [[ I2, -J2 ],
                [ J2,  I2 - D / (1 + e cos theta) ]],

where the 2x2 symmetric matrix D is assembled from the primaries.  Its
ordered eigenvalues (lambda_3 >= lambda_4) are the only configuration data
the system retains; the production path uses the rotated form with
K = diag(lambda_3, lambda_4), which is conjugate to the D form by a
constant symplectic rotation and therefore has the same monodromy spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .central_config import (
    HIT_PRIMARY,
    Configuration,
    massless_sums,
    solve_symmetric_y,
    stack_by_size,
)
from .errors import DomainError, ErestabError, InvariantViolation, SingularityError, caught, unwrap

I2 = np.eye(2)
J4 = np.block([[np.zeros((2, 2)), -I2], [I2, np.zeros((2, 2))]])
J4.setflags(write=False)

TRACE_LAW_TOL = 1e-11
BETA_HLS_TRACE_TOL = 1e-8
MAX_ECCENTRICITY = 0.99  # past it the monodromy integrator is too stiff


@dataclass(frozen=True, eq=False)
class DMatrix:
    """Symmetric 2x2 stability matrix with its trace excess.

    beta20 measures the trace excess over 3, trace(D) = 3 + beta20, which
    is checked at construction, as are the symmetry of D and that its
    entries and beta20 are finite.  For collinear primaries beta20 vanishes
    identically.
    """

    entries: np.ndarray
    beta20: float

    def __post_init__(self):
        d = self.entries
        if not (np.all(np.isfinite(d)) and math.isfinite(self.beta20)):
            raise DomainError(f"D and beta20 must be finite, got {d.tolist()} and {self.beta20}")
        scale = max(1.0, float(np.max(np.abs(d))))
        if not abs(d[0, 1] - d[1, 0]) <= 1e-13 * scale:
            raise InvariantViolation("D matrix is not symmetric")
        if not abs(np.trace(d) - (3.0 + self.beta20)) <= TRACE_LAW_TOL * scale:
            raise InvariantViolation("trace(D) != 3 + beta20")

    @property
    def eigenvalues(self) -> tuple[float, float]:
        """Ordered eigenvalues (lambda_3 >= lambda_4), closed form."""
        d = self.entries
        half_tr = 0.5 * (d[0, 0] + d[1, 1])
        disc = 0.25 * (d[0, 0] - d[1, 1]) ** 2 + d[0, 1] * d[1, 0]
        root = math.sqrt(max(disc, 0.0))
        return (half_tr + root, half_tr - root)


def compute_Ds(configs: Sequence[Configuration]) -> list[DMatrix | ErestabError]:
    """:func:`compute_D` of every configuration of ``configs``, from one
    batched :func:`massless_sums` call per number of primaries.

    D is formed entry by entry with the operations of one configuration's,
    so each equals its own bit for bit.  A point whose D cannot be formed
    gets its ErestabError in its place.  A configuration without a
    massless-body position raises DomainError before any work.
    """
    if any(c.massless_position is None for c in configs):
        raise DomainError("configuration has no massless-body position")
    out: list = [None] * len(configs)
    for members, positions, masses, mu in stack_by_size(configs):
        points = np.array([configs[i].massless_position for i in members])
        _, s1, _, outer, hit = massless_sums(positions, masses, points)
        q, t = (s1 / mu)[:, None, None], (3.0 / mu)[:, None, None]
        d = I2 - q * I2 + t * np.moveaxis(np.array(outer), -1, 0)
        d = 0.5 * (d + d.transpose(0, 2, 1))
        d.setflags(write=False)
        for i, entries, beta20, on_primary in zip(members, d, (s1 / mu - 1.0).tolist(), hit):
            out[i] = (SingularityError(HIT_PRIMARY) if on_primary
                      else caught(DMatrix, entries=entries, beta20=beta20))
    return out


def compute_D(config: Configuration) -> DMatrix:
    """Assemble D from a configuration with the massless position attached:
    :func:`compute_Ds` on one configuration."""
    (d,) = compute_Ds([config])
    return unwrap(d)


@dataclass(frozen=True)
class StabilityParams:
    """Complete parameter set (lambda_3, lambda_4, e) of the linearized system.

    alpha and beta are the half-sum and half-difference shifts
    alpha = (lambda_3 + lambda_4)/2 - 1 and beta = (lambda_3 - lambda_4)/2.
    beta_hls = 9 - (lambda_3 - lambda_4)^2 parameterizes the collinear family
    (where lambda_3 + lambda_4 = 3) and is NaN otherwise.  Construction is the
    one check of finite lambdas and 0 <= e <= MAX_ECCENTRICITY that families
    and engines rely on.
    """

    lambda3: float
    lambda4: float
    e: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda3) and math.isfinite(self.lambda4)):
            raise DomainError(f"lambdas must be finite, got ({self.lambda3}, {self.lambda4})")
        if self.lambda3 < self.lambda4:
            raise DomainError("ordering convention requires lambda3 >= lambda4")
        if not 0.0 <= self.e <= MAX_ECCENTRICITY:
            raise DomainError(f"eccentricity must lie in [0, {MAX_ECCENTRICITY}], got {self.e}")

    @classmethod
    def from_beta_hls(cls, beta_hls: float, e: float) -> "StabilityParams":
        """Collinear-family parameter point: lambda_{3,4} = (3 +- sqrt(9 - beta))/2."""
        if not 0.0 <= beta_hls <= 9.0:
            raise DomainError(f"beta must lie in [0, 9], got {beta_hls}")
        root = math.sqrt(9.0 - beta_hls)
        return cls(0.5 * (3.0 + root), 0.5 * (3.0 - root), e)

    @classmethod
    def from_alpha_beta(cls, alpha: float, beta: float, e: float) -> "StabilityParams":
        if beta < 0.0:
            raise DomainError("beta must be nonnegative")
        return cls(1.0 + alpha + beta, 1.0 + alpha - beta, e)

    @property
    def alpha(self) -> float:
        return 0.5 * (self.lambda3 + self.lambda4) - 1.0

    @property
    def beta(self) -> float:
        return 0.5 * (self.lambda3 - self.lambda4)

    @property
    def beta_hls_applicable(self) -> bool:
        return abs(self.lambda3 + self.lambda4 - 3.0) <= BETA_HLS_TRACE_TOL

    @property
    def beta_hls(self) -> float:
        if not self.beta_hls_applicable:
            return float("nan")
        return 9.0 - (self.lambda3 - self.lambda4) ** 2


def spectral_params(d: DMatrix, e: float) -> StabilityParams:
    """Ordered eigenvalues of D packaged with the eccentricity."""
    lam3, lam4 = d.eigenvalues
    return StabilityParams(lam3, lam4, e)


# ---------------------------------------------------------------------------
# Symmetric four-body chain in closed form
# ---------------------------------------------------------------------------

def symmetric_z(m2: float) -> float:
    """Diagonal parameter z of D/3 for the symmetric chain.

    z = 8 (1 - m2) / ((1 + 7 m2) (y^2 + 1)^(5/2)) with y = solve_symmetric_y(m2);
    D = 3 diag(z, 1 - z), so lambda_3 = 3(1 - z) and lambda_4 = 3z.
    """
    y = solve_symmetric_y(m2)
    return 8.0 * (1.0 - m2) / ((1.0 + 7.0 * m2) * (y * y + 1.0) ** 2.5)


def symmetric_beta(m2: float) -> float:
    """Collinear-family beta of the symmetric chain: beta = 36 z (1 - z).

    Limit values: beta -> 27/4 as m2 -> 0 (z = 1/4) and beta -> 0 as
    m2 -> 1 (z = 0).
    """
    z = symmetric_z(m2)
    return 36.0 * z * (1.0 - z)
