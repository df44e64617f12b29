"""Regular-polygon-plus-center configurations and the massless-body sites.

n equal masses m sit at the vertices of a regular n-gon around a central
mass m0 (normalized so m0 + n*m = 1).  Up to rotations by 2*pi/n the
massless body has three equilibrium sites: two on the semi-axis through a
vertex (S1 outside, S2 inside the polygon circle) and one on the bisecting
semi-axis theta = pi/n (S3, outside).  The lattice sums A, B, l2, l3
evaluated at a site determine the eigenvalues of the stability matrix:

    lambda_3 = 1 + A/w^2 + |B|/w^2,   lambda_4 = 1 + A/w^2 - |B|/w^2 = l3/w^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DomainError, ExistenceError, InvariantViolation, SingularityError

MAX_N = 64


def h1(n: int) -> float:
    """Vertex lattice mean h_n(1) = (1/4n) sum_{j=1}^{n-1} 1/sin(j pi / n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return math.fsum(1.0 / math.sin(j * math.pi / n) for j in range(1, n)) / (4.0 * n)


def hn(n: int, x: float, u: float = 0.0) -> float:
    """Lattice mean h_n(x, u).

    h_n(x, u) = (1/n) sum_{j=1}^{n} (1 - x cos(2 j pi/n + u))
                                  / (1 + x^2 - 2 x cos(2 j pi/n + u))^(3/2).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if x < 0.0:
        raise DomainError("x must be nonnegative")
    terms = []
    for j in range(1, n + 1):
        c = math.cos(2.0 * math.pi * j / n + u)
        base = 1.0 + x * x - 2.0 * x * c
        if base < 1e-28:
            raise SingularityError(f"h_n term j={j} is singular (x={x}, u={u})")
        terms.append((1.0 - x * c) / base**1.5)
    return math.fsum(terms) / n


class Site(Enum):
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"


@dataclass(frozen=True)
class PolygonSystem:
    """n equal vertex masses m around a central mass m0, with m0 + n*m = 1."""

    n: int
    m0: float
    m: float

    def __post_init__(self):
        if not 2 <= self.n <= MAX_N:
            raise DomainError(f"n must lie in [2, {MAX_N}], got {self.n}")
        if not (self.m0 > 0.0 and self.m > 0.0):
            raise DomainError("masses must be positive")
        if abs(self.m0 + self.n * self.m - 1.0) > 1e-14:
            raise DomainError("normalization m0 + n*m = 1 violated; "
                              "use PolygonSystem.from_mass_ratio")

    @classmethod
    def from_mass_ratio(cls, n: int, m0_over_M: float) -> "PolygonSystem":
        """Build a normalized system from the ratio m0 / M with M = n*m."""
        if m0_over_M <= 0.0:
            raise DomainError("m0/M must be positive")
        m_total = 1.0 / (1.0 + m0_over_M)
        return cls(n=n, m0=1.0 - m_total, m=m_total / n)

    @property
    def M(self) -> float:
        return self.n * self.m

    @property
    def omega_sq(self) -> float:
        return self.m0 + self.M * h1(self.n)

    def vertices(self) -> np.ndarray:
        """Unit-circle vertex affixes w_j = exp(-2 pi i j / n), j = 1..n."""
        return np.exp(-2j * np.pi * np.arange(1, self.n + 1) / self.n)


def site_equation(sys: PolygonSystem, rho: float, theta: float) -> float:
    """Radial equilibrium equation for a massless body at rho * exp(i theta).

    psi(rho) = m0 (1 - rho^3) + M (h_n(1/rho, theta) - h_n(1) rho^3);
    roots of psi are the equilibrium distances on the given semi-axis.
    """
    if rho <= 0.0:
        raise DomainError("rho must be positive")
    r3 = rho**3
    return sys.m0 * (1.0 - r3) + sys.M * (hn(sys.n, 1.0 / rho, theta) - h1(sys.n) * r3)


_BRACKETS = {
    Site.S1: (1.0 + 1e-6, 50.0),
    Site.S2: (1e-3, 1.0 - 1e-6),
    Site.S3: (1.0 + 1e-9, 50.0),
}


@dataclass(frozen=True)
class BangQuantities:
    """Lattice sums at a massless-body site.

    B is kept complex; the lambda formulas use |B|.  For sites on the
    semi-axis theta the combination B * exp(-2 i theta) is real by symmetry,
    which is checked at construction.
    """

    rho: float
    theta: float
    omega_sq: float
    A: float
    B: complex
    l2: float
    l3: float

    def __post_init__(self):
        aligned = self.aligned_B
        if abs(aligned.imag) > 1e-10 * max(1.0, abs(self.B)):
            raise InvariantViolation(
                f"B is not real in the site-aligned frame: Im = {aligned.imag:.3e}"
            )

    @property
    def aligned_B(self) -> complex:
        return self.B * np.exp(-2j * self.theta)

    @property
    def lambda3(self) -> float:
        return 1.0 + (self.A + abs(self.B)) / self.omega_sq

    @property
    def lambda4(self) -> float:
        return 1.0 + (self.A - abs(self.B)) / self.omega_sq


def bang_quantities(sys: PolygonSystem, rho: float, theta: float) -> BangQuantities:
    """Evaluate the lattice sums A, B, l2, l3 at w0 = rho * exp(i theta)."""
    w0 = rho * complex(math.cos(theta), math.sin(theta))
    diffs = w0 - sys.vertices()
    dist = np.abs(diffs)
    if np.any(dist < 1e-12) or rho < 1e-12:
        raise SingularityError("site coincides with a primary")
    a_val = sys.M / (2.0 * sys.n) * float(np.sum(dist**-3)) + sys.m0 / (2.0 * rho**3)
    b_val = (
        1.5 * sys.M / sys.n * complex(np.sum(diffs**2 * dist**-5))
        + 1.5 * sys.m0 * w0**2 / rho**5
    )
    w2 = sys.omega_sq
    return BangQuantities(
        rho=float(rho),
        theta=float(theta),
        omega_sq=w2,
        A=a_val,
        B=b_val,
        l2=w2 - a_val,
        l3=w2 + a_val - abs(b_val),
    )


def solve_site(sys: PolygonSystem, site: Site) -> BangQuantities:
    """Solve the site equation for S1, S2 or S3 and evaluate the lattice sums.

    S1 is bracketed on rho in (1, 50), S2 on (0, 1), S3 on (1, 50) along
    theta = pi/n; each semi-axis carries exactly the advertised number of
    roots, so a missing sign change is reported as an existence error.
    """
    from scipy.optimize import brentq

    theta = math.pi / sys.n if site is Site.S3 else 0.0
    lo, hi = _BRACKETS[site]
    f = lambda r: site_equation(sys, r, theta)
    if f(lo) * f(hi) > 0.0:
        raise ExistenceError(
            f"no sign change of the site equation for {site.value} on [{lo}, {hi}]"
        )
    rho = brentq(f, lo, hi, xtol=1e-15)
    residual = abs(f(rho))
    if residual > 1e-12:
        raise ConvergenceError("site equation residual too large", residual=residual)
    return bang_quantities(sys, rho, theta)
