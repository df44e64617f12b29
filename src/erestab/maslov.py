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

The counts are certified rather than read off one truncation.  The Galerkin
counts at level K bound the operator's from below (min-max on nested
truncations).  The block of the modes |k| > K is positive definite with a
closed-form lower bound, so Haynsworth inertia additivity (Linear Algebra
Appl. 1 (1968) 73) bounds them from above by the counts of H_K minus a
diagonal that covers the coupling to those modes.  K escalates only while
this bracket is open.
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

    phi counts the operator's eigenvalues below -kernel_tol, nu those within
    [-kernel_tol, kernel_tol], as certified at the truncation level of
    num_modes = 2K + 1 modes; min_eigenvalue and kernel_gap are those of the
    Galerkin matrix at that level.
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


def _eigenvalues(h: np.ndarray, reflect: bool) -> np.ndarray:
    return _reflected_eigenvalues(h) if reflect else np.linalg.eigvalsh(h)


def _counts(vals: np.ndarray, tol: float) -> tuple[int, int]:
    """Eigenvalues below -tol and at most tol: phi and phi + nu."""
    return int(np.count_nonzero(vals < -tol)), int(np.count_nonzero(vals <= tol))


def _high_mode_bounds(p: StabilityParams, rho: float, K: int) -> tuple[float, np.ndarray]:
    """delta_K and the diagonal g with L >= delta_K I and C C^T <= diag(g).

    L is the operator's block on the modes |k| > K and C couples it to the
    2(2K+1) interleaved components of ``assemble_operator``.  The kinetic part
    of L is at least (K + 1 - rho)^2 - 1, and its multiplication part has norm
    at most max r_e * max |1 + alpha +- beta| = (|1 + alpha| + |beta|)/(1 - e).
    An entry of C between modes at distance m is bounded, per row and per
    column summed over the two components, by
    w(m) = (|1 + alpha| |b|^m + |beta| max(|b|^|m-2|, |b|^(m+2))) / sqrt(1 - e^2),
    whose tails T(d) = sum_{m >= d} w(m) are geometric.  A row of mode j sums
    to at most T(K + 1 - j) + T(K + 1 + j) and every column to at most T(1),
    and C C^T <= diag(row sum * max column sum) (Schur), so g depends on |j|
    only and commutes with the w = 1 reflection.
    """
    e = p.e
    alpha_abs, beta_abs = abs(1.0 + p.alpha), abs(p.beta)
    root = math.sqrt(1.0 - e * e)
    q = e / (1.0 + root)  # |b|

    def tail(d: np.ndarray) -> np.ndarray:
        beta_part = q ** np.maximum(d - 2, 0) / (1.0 - q) + np.where(d == 1, q, 0.0)
        return (alpha_abs * q**d / (1.0 - q) + beta_abs * beta_part) / root

    delta = (K + 1 - rho) ** 2 - 1.0 - (alpha_abs + beta_abs) / (1.0 - e)
    j = np.arange(-K, K + 1)
    g = (tail(K + 1 - j) + tail(K + 1 + j)) * tail(1)
    return delta, np.repeat(g, 2)


def _bracket(
    p: StabilityParams, rho: float, K: int, h: np.ndarray, tol: float
) -> tuple[np.ndarray, tuple[int, int], tuple[int, int] | None]:
    """Eigenvalues of ``h`` = H_K and two-sided bounds on the operator's counts.

    The lower bound is H_K's own counts: the truncations are nested, so by
    min-max they never decrease with K nor exceed the operator's.  The upper
    bound (None while delta_K <= tol) is the counts of
    H_K - diag(g)/(delta_K - tol): with L - s >= (delta_K - |s|) I for a
    shift s = +-tol, Haynsworth inertia additivity counts the operator's
    eigenvalues below s as the Schur complement's below zero, and that
    complement dominates the shifted matrix.  The shift only lowers
    eigenvalues, by at most its largest entry (Weyl), so when none lies that
    close above -tol or tol the counts cannot move and the second solve is
    skipped.
    """
    reflect = rho == 0.0
    vals = _eigenvalues(h, reflect)
    lower = _counts(vals, tol)
    delta, g = _high_mode_bounds(p, rho, K)
    if delta <= tol:
        return vals, lower, None
    shift = g / (delta - tol)
    reach = float(shift.max())
    if not np.any(((vals >= -tol) & (vals < reach - tol)) | ((vals > tol) & (vals <= tol + reach))):
        return vals, lower, lower
    shifted = h.copy()
    shifted[np.diag_indices_from(shifted)] -= shift
    return vals, lower, _counts(_eigenvalues(shifted, reflect), tol)


def morse_index(p: StabilityParams, omega: complex) -> IndexResult:
    """Certified Morse index phi_w and nullity nu_w of the operator.

    At each truncation level of DEFAULT_LEVELS the counts of the Galerkin
    matrix bound the operator's from below and a Haynsworth bound on the
    positive high-mode block bounds them from above (see ``_bracket``); the
    first level where both brackets close returns, and K escalates only
    while one is open.  The kernel band is sized once, from the first
    level's matrix norm, so that it does not widen with K and swallow
    genuinely small eigenvalues.  num_modes, min_eigenvalue and kernel_gap
    describe the certifying level.  A bracket still open at the last level
    raises a convergence error.  At w = 1 each matrix is solved as its two
    reflection blocks.
    """
    rho = omega_to_rho(omega)
    tol = None
    for K in DEFAULT_LEVELS:
        h = assemble_operator(p, omega, K)
        if tol is None:
            tol = KERNEL_TOL_FACTOR * float(np.max(np.sum(np.abs(h), axis=1)))
        vals, lower, upper = _bracket(p, rho, K, h, tol)
        if upper == lower:
            nonkernel = np.abs(vals)[np.abs(vals) > tol]
            return IndexResult(
                rho=rho,
                phi=lower[0],
                nu=lower[1] - lower[0],
                num_modes=2 * K + 1,
                min_eigenvalue=float(vals.min()),
                kernel_gap=float(nonkernel.min()) if nonkernel.size else float("inf"),
            )
    raise ConvergenceError(
        f"Morse count bracket still open at K={DEFAULT_LEVELS[-1]}: "
        f"(phi, phi + nu) at least {lower}, at most {upper}"
    )
