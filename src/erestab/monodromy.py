"""Fundamental-solution integration over one period and spectrum classification.

The monodromy gamma(2*pi) of xi' = J B(theta) xi decides linear stability:
all eigenvalues on the unit circle and the matrix semisimple means linearly
stable; eigenvalues off the circle mean instability; an empty intersection
with the circle means hyperbolicity.  Eigenvalues of a real symplectic
matrix come in quadruples {w, 1/w, conj(w), 1/conj(w)}, which is monitored
as a check but never imposed.  gamma(2*pi) is decomposed once, when its
:class:`Monodromy` is built.  Every test on the multipliers (the verdict,
dim ker(M - w I) and the Krein-signed jump sum) reads that decomposition
and shares one on-circle mask, one clustering and one rank rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DomainError
from .linearization import J4, StabilityParams

TWO_PI = 2.0 * math.pi
DEFAULT_TOL = 1e-12
MIN_TOL = 1e-13  # the tightest integrator tolerance accepted
DEFAULT_CIRCLE_TOL = 1e-6


def symplectic_residual(mat: np.ndarray) -> float:
    """Max-norm of M^T J M - J."""
    return float(np.max(np.abs(mat.T @ J4 @ mat - J4)))


@dataclass(frozen=True, eq=False)
class Monodromy:
    """Endpoint of the fundamental solution with its integrity checks and its one
    eigendecomposition, eigenvalues sorted by real, then imaginary part."""

    gamma_end: np.ndarray
    symplectic_residual: float
    eigenvalues: tuple[complex, ...]
    eigenvectors: np.ndarray  # read-only; column k belongs to eigenvalues[k]
    step_metadata: dict

    @classmethod
    def from_matrix(cls, mat: np.ndarray, step_metadata: dict | None = None) -> "Monodromy":
        m = np.array(mat, dtype=float)
        m.setflags(write=False)
        vals, vecs = np.linalg.eig(m)  # real arrays when every eigenvalue is real
        order = np.argsort(vals, kind="stable")
        vecs = vecs[:, order].astype(complex)
        vecs.setflags(write=False)
        return cls(
            gamma_end=m,
            symplectic_residual=symplectic_residual(m),
            eigenvalues=tuple(vals[order].astype(complex)),
            eigenvectors=vecs,
            step_metadata=step_metadata or {},
        )


def integrate_fundamental(p: StabilityParams, tol: float = DEFAULT_TOL) -> Monodromy:
    """Integrate gamma' = J B(theta) gamma, gamma(0) = I, over [0, 2*pi].

    Adaptive 8th-order explicit Runge-Kutta with local tolerance ``tol``;
    deterministic for fixed inputs.  The coefficient 1/(1 + e cos theta)
    makes the system too stiff for this scheme past e = 0.99; ``p`` never
    carries a larger e, because :class:`StabilityParams` rejects it.

    The right-hand side is evaluated in scalar form: with gamma's rows
    a, b, c, d it returns the rows b - g0 c, -a - g1 d, a + d and b - c,
    each entry by the same IEEE operations, in the same order, as the
    elementwise row form, and with no BLAS call that could fuse a multiply
    and an add.  So gamma(2*pi), nfev and the step count are bit-identical
    to the row form's; ``TestScalarRhsPin`` in ``tests/test_monodromy.py``
    pins this against that form.
    """
    from scipy.integrate import solve_ivp

    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise DomainError(f"tolerance must be finite and at least {MIN_TOL:g}, got {tol}")
    e = p.e
    lam3, lam4 = p.lambda3, p.lambda4

    def rhs(theta, y):
        a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = y.tolist()
        den = 1.0 + e * math.cos(theta)
        g0 = 1.0 - lam3 / den
        g1 = 1.0 - lam4 / den
        return np.array(
            (
                b0 - g0 * c0, b1 - g0 * c1, b2 - g0 * c2, b3 - g0 * c3,
                -a0 - g1 * d0, -a1 - g1 * d1, -a2 - g1 * d2, -a3 - g1 * d3,
                a0 + d0, a1 + d1, a2 + d2, a3 + d3,
                b0 - c0, b1 - c1, b2 - c2, b3 - c3,
            )
        )

    sol = solve_ivp(
        rhs,
        (0.0, TWO_PI),
        np.eye(4).ravel(),
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=False,
    )
    if not sol.success:
        raise ConvergenceError(f"fundamental-solution integration failed: {sol.message}")
    gamma = sol.y[:, -1].reshape(4, 4)
    meta = {"method": "DOP853", "tol": tol, "nfev": int(sol.nfev), "nsteps": len(sol.t) - 1}
    return Monodromy.from_matrix(gamma, meta)


# ---------------------------------------------------------------------------
# Spectrum classification
# ---------------------------------------------------------------------------

class Verdict(Enum):
    STRONGLY_LINEARLY_STABLE = "StronglyLinearlyStable"
    LINEARLY_STABLE = "LinearlyStable"
    SPECTRALLY_STABLE_NOT_LINEAR = "SpectrallyStableNotLinear"
    HYPERBOLIC = "Hyperbolic"
    UNSTABLE = "Unstable"

    @property
    def is_stable(self) -> bool:
        return self in (Verdict.STRONGLY_LINEARLY_STABLE, Verdict.LINEARLY_STABLE)


@dataclass(frozen=True)
class SpectrumVerdict:
    verdict: Verdict
    on_circle_count: int
    semisimple: bool

    @property
    def is_stable(self) -> bool:
        return self.verdict.is_stable


def _on_circle(eigs: np.ndarray, circle_tol: float) -> np.ndarray:
    return np.abs(np.abs(eigs) - 1.0) < circle_tol


def _cluster(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of ``values`` lying within ``tol`` of a group's first member."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        for g in groups:
            if abs(values[g[0]] - v) <= tol:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def _geometric_multiplicity(m: Monodromy, center: complex, guard: float) -> int:
    """Number of singular values of (gamma - center I) below guard * ||gamma||_2."""
    sv = np.linalg.svd(m.gamma_end - center * np.eye(4), compute_uv=False)
    return int(np.count_nonzero(sv < guard * np.linalg.norm(m.gamma_end, 2)))


def classify_spectrum(m: Monodromy, circle_tol: float = DEFAULT_CIRCLE_TOL) -> SpectrumVerdict:
    """Classify the monodromy spectrum into the stability taxonomy.

    An eigenvalue is on the circle when ||w| - 1| < circle_tol.  For repeated
    on-circle eigenvalues the geometric multiplicity is the number of
    singular values of (M - w I) below sqrt(circle_tol) * ||M||; strong
    stability additionally requires the four eigenvalues to be distinct and
    at distance > circle_tol from +-1.
    """
    eigs = np.asarray(m.eigenvalues, dtype=complex)
    on_circle = _on_circle(eigs, circle_tol)
    on_count = int(np.count_nonzero(on_circle))

    guard = math.sqrt(circle_tol)
    on_idx = np.flatnonzero(on_circle)
    clusters = _cluster(eigs[on_idx], guard)

    semisimple = True
    for group in clusters:
        if len(group) > 1:
            center = complex(np.mean(eigs[on_idx[group]]))
            if _geometric_multiplicity(m, center, guard) < len(group):
                semisimple = False

    if on_count == 0:
        verdict = Verdict.HYPERBOLIC
    elif on_count < 4:
        verdict = Verdict.UNSTABLE
    elif not semisimple:
        verdict = Verdict.SPECTRALLY_STABLE_NOT_LINEAR
    else:
        distinct = all(len(group) == 1 for group in clusters)
        away = bool(np.all(np.abs(eigs - 1.0) > circle_tol) and np.all(np.abs(eigs + 1.0) > circle_tol))
        verdict = (
            Verdict.STRONGLY_LINEARLY_STABLE if (distinct and away) else Verdict.LINEARLY_STABLE
        )
    return SpectrumVerdict(verdict=verdict, on_circle_count=on_count, semisimple=semisimple)


def kernel_dimension(m: Monodromy, omega: complex, circle_tol: float = DEFAULT_CIRCLE_TOL) -> int:
    """dim ker(gamma(2*pi) - omega I) by the rank rule of :func:`classify_spectrum`.

    The kernel is empty unless omega is within sqrt(circle_tol) of an
    eigenvalue, so the rank test only runs behind that gate; a bare
    singular-value threshold would report spurious kernels for strongly
    non-normal matrices.
    """
    guard = math.sqrt(circle_tol)
    eigs = np.asarray(m.eigenvalues)
    algebraic = int(np.count_nonzero(np.abs(eigs - complex(omega)) < guard))
    if algebraic == 0:
        return 0
    return min(_geometric_multiplicity(m, complex(omega), guard), algebraic)


def circle_jump_sum(m: Monodromy, circle_tol: float) -> int | None:
    """Signed index-jump total over the upper-half-circle multipliers of ``m``.

    For the monodromy gamma(2*pi) this is phi_{-1} - phi_1.  Each simple
    on-circle eigenvalue in the open upper half plane carries a splitting
    jump of -sign(Im(v^H J v)) (its negative Krein sign).  Returns None when
    the jump cannot be resolved from the spectrum alone: an on-circle
    eigenvalue within sqrt(circle_tol) of +-1, two upper ones clustered, or
    a Krein form too small to sign.
    """
    eigs, vecs = np.asarray(m.eigenvalues), m.eigenvectors
    guard = math.sqrt(circle_tol)
    on = _on_circle(eigs, circle_tol)
    if np.any(on & ((np.abs(eigs - 1.0) < guard) | (np.abs(eigs + 1.0) < guard))):
        return None
    upper = np.flatnonzero(on & (eigs.imag > 0.0))
    if any(len(group) > 1 for group in _cluster(eigs[upper], guard)):
        return None
    total = 0
    for i in upper:
        v = vecs[:, i]
        sign_q = (np.conj(v) @ (J4 @ v)).imag
        if abs(sign_q) < 1e-12:
            return None
        total += -1 if sign_q > 0 else 1
    return total
