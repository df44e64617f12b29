"""Twisted Morse indices of the second-order stability operator.

The operator

    A(alpha, beta, e) = -d^2/dt^2 I2 - I2 + r_e(t) [ (1 + alpha) I2 + beta S(t) ],

with r_e(t) = 1/(1 + e cos t) and S(t) = [[cos 2t, sin 2t], [sin 2t, -cos 2t]],
acts on the twisted domain {y : y(2*pi) = w y(0), y'(2*pi) = w y'(0)} for a
unit complex w.  Its Morse index phi_w (number of negative eigenvalues) and
nullity nu_w (kernel dimension) equal the w-indices of the monodromy path,
with nu_w also equal to dim ker(gamma(2*pi) - w I), which
:mod:`erestab.monodromy` computes with the other tests on the multipliers.

Discretization is a Fourier-Galerkin scheme in the twisted basis
e^{i (k + rho) t} with w = e^{2*pi*i*rho}: r_e has the exact geometric
Fourier coefficients c_m = b^{|m|} / sqrt(1 - e^2), b = -e/(1 + sqrt(1 - e^2)),
and S couples modes k and k +- 2 only, so assembly is exact and spectrally
convergent.  The Hermitian Galerkin matrix is conjugated by I (x) diag(1, i),
which only multiplies its entries by +-1 and +-i and leaves a real symmetric
matrix with the same eigenvalues for every w; that matrix is what is solved.
At w = 1 the reflection y(t) -> diag(1, -1) y(-t) commutes with the operator
(r_e is even and diag(1, -1) S(-t) diag(1, -1) = S(t)) and maps the modes
k in [-K, K] onto themselves, so the matrix splits exactly into an even and
an odd block of size 2K+1, and those two are solved instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .errors import ConvergenceError, DomainError
from .linearization import StabilityParams

# Kernel band half-width as a fraction of the base-level matrix norm.  The
# assembly is exact and eigvalsh is backward stable, so true kernel
# eigenvalues are resolved to ~1e-12 of the norm; a band much wider than
# that (e.g. 1e-7) misclassifies genuinely small nonzero eigenvalues near
# the index-jump curves and breaks the nullity/monodromy-kernel agreement.
KERNEL_TOL_FACTOR = 1e-10
DEFAULT_LEVELS = (64, 128, 256, 512, 1024)


def r_e_fourier_coefficients(e: float, mmax: int) -> np.ndarray:
    """Fourier coefficients c_0..c_mmax of 1/(1 + e cos t).

    c_m = b^|m| / sqrt(1 - e^2) with b = -e / (1 + sqrt(1 - e^2)).
    """
    if not 0.0 <= e < 1.0:
        raise DomainError(f"eccentricity must lie in [0, 1), got {e}")
    root = math.sqrt(1.0 - e * e)
    b = -e / (1.0 + root)
    return b ** np.arange(mmax + 1) / root


def omega_to_rho(omega: complex) -> float:
    """rho in [0, 1) with omega = e^{2*pi*i*rho}."""
    w = complex(omega)
    if abs(abs(w) - 1.0) > 1e-9:
        raise DomainError(f"omega must lie on the unit circle, got |omega| = {abs(w)}")
    rho = (cmath.phase(w) / (2.0 * math.pi)) % 1.0
    # a phase just below zero wraps to 1 - tiny, which rounds to 1.0
    return 0.0 if rho == 1.0 else rho


def assemble_operator(p: StabilityParams, omega: complex, K: int) -> np.ndarray:
    """Galerkin matrix of the stability operator, real symmetric.

    Size 2(2K+1), with the two components of each mode k + rho interleaved.
    It equals U^H H U for the Hermitian Galerkin matrix H in the twisted
    Fourier basis and U = I_{2K+1} (x) diag(1, i); that similarity only
    multiplies entries by +-1 and +-i, so the equality is exact.  At e = 0
    the matrix is banded with couplings only at |j - k| in {0, 2}.
    """
    if K < 8:
        raise DomainError("K must be at least 8")
    rho = omega_to_rho(omega)
    alpha, beta = p.alpha, p.beta
    modes = np.arange(-K, K + 1) + rho
    c = r_e_fourier_coefficients(p.e, 2 * K + 2)

    # scalar Toeplitz blocks: C0[j,k] = c_|j-k|, CP[j,k] = c_|j-k-2|
    idx = np.arange(2 * K + 1)
    c0 = toeplitz(c[idx])
    cp = toeplitz(c[np.abs(idx - 2)], c[idx + 2])

    # beta S(t) = beta (e^{2it} N+ + e^{-2it} N-) / 2 with N+- = [[1, -+i], [-+i, -1]];
    # after the conjugation N+ -> [[1, 1], [-1, -1]] and N- -> [[1, -1], [1, -1]]
    a = (1.0 + alpha) * c0
    a[idx, idx] += modes**2 - 1.0
    s = 0.5 * beta * (cp + cp.T)
    d = 0.5 * beta * (cp - cp.T)
    n = 2 * (2 * K + 1)
    h = np.empty((n, n))
    h[0::2, 0::2] = a + s
    h[1::2, 1::2] = a - s
    h[0::2, 1::2] = d
    h[1::2, 0::2] = -d
    return h


@dataclass(frozen=True)
class IndexResult:
    """Morse index data at one unit-circle point.

    phi counts discretized eigenvalues below -kernel_tol, nu those within
    [-kernel_tol, kernel_tol].
    """

    rho: float
    phi: int
    nu: int
    num_modes: int
    min_eigenvalue: float
    kernel_gap: float


def _reflected_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of the w = 1 matrix ``h`` from its two reflection blocks.

    The reflection maps the interleaved index of (k, c) to that of (-k, c)
    with sign (-1)^c.  On the components of k > 0 the even block is their
    rows of h plus (c = 0) or minus (c = 1) the columns of their mirrors,
    the odd block the reverse; each is bordered by sqrt(2) times the column
    of the k = 0 component the reflection fixes (c = 0 even, c = 1 odd) and
    that component's diagonal entry.  Unsorted.
    """
    z = h.shape[0] // 2 - 1  # index of (k, c) = (0, 0)
    rows = h[z + 2 :]
    block = np.empty((z + 1, z + 1))
    vals = []
    for fixed, c0, c1 in ((z, np.add, np.subtract), (z + 1, np.subtract, np.add)):
        c0(rows[:, z + 2 :: 2], rows[:, z - 2 :: -2], out=block[1:, 1::2])
        c1(rows[:, z + 3 :: 2], rows[:, z - 1 :: -2], out=block[1:, 2::2])
        block[1:, 0] = block[0, 1:] = math.sqrt(2.0) * rows[:, fixed]
        block[0, 0] = h[fixed, fixed]
        vals.append(np.linalg.eigvalsh(block))
    return np.concatenate(vals)


def _counts(h: np.ndarray, tol: float, reflect: bool = False) -> tuple[int, int, float, float]:
    vals = _reflected_eigenvalues(h) if reflect else np.linalg.eigvalsh(h)
    phi = int(np.count_nonzero(vals < -tol))
    nu = int(np.count_nonzero(np.abs(vals) <= tol))
    nonkernel = np.abs(vals)[np.abs(vals) > tol]
    gap = float(nonkernel.min()) if nonkernel.size else float("inf")
    return phi, nu, float(vals.min()), gap


def morse_index(p: StabilityParams, omega: complex) -> IndexResult:
    """Stabilized Morse index phi_w and nullity nu_w of the operator.

    The truncation level escalates through DEFAULT_LEVELS until two consecutive
    levels agree on both counts; disagreement at the last level raises a
    convergence error carrying the last two counts.  The kernel band is
    sized once, from the base-level matrix norm: a band that widened with
    the truncation would swallow genuinely small eigenvalues and the counts
    could never stabilize near them.  At w = 1 each level is solved as its
    two reflection blocks.
    """
    rho = omega_to_rho(omega)
    prev: tuple[int, int] | None = None
    tol = None
    for K in DEFAULT_LEVELS:
        h = assemble_operator(p, omega, K)
        if tol is None:
            tol = KERNEL_TOL_FACTOR * float(np.max(np.sum(np.abs(h), axis=1)))
        phi, nu, min_eig, gap = _counts(h, tol, rho == 0.0)
        if prev == (phi, nu):
            return IndexResult(
                rho=rho,
                phi=phi,
                nu=nu,
                num_modes=2 * K + 1,
                min_eigenvalue=min_eig,
                kernel_gap=gap,
            )
        prev = (phi, nu)
    raise ConvergenceError(
        f"Morse index did not stabilize up to K={DEFAULT_LEVELS[-1]}; last counts {prev}"
    )
