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


# DOP853 (Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
# 2nd ed. 1993, sec. II.5): the 12-stage tableau of Hairer's dop853.f, as the
# doubles scipy.integrate's ``dop853_coefficients`` holds.  Row s of _A holds
# the weights a_s of the stages before s.  _E5 and _E3, the weights of the
# fifth- and third-order error estimates, also cover a 13th stage, f at the
# step's end: its weight is zero, but a non-finite f still reaches the sums.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
      0.8571428571428571, 1.0)
_A = np.zeros((12, 12))
_A[1, :1] = 0.05260015195876773
_A[2, :2] = 0.0197250569845379, 0.0591751709536137
_A[3, [0, 2]] = 0.02958758547680685, 0.08876275643042054
_A[4, [0, 2, 3]] = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A[5, [0, 3, 4]] = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A[6, [0, 3, 4, 5]] = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_A[7, [0, 3, 4, 5, 6]] = (0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
                          -0.015319437748624402, 0.008273789163814023)
_A[8, [0, 3, 4, 5, 6, 7]] = (0.6241109587160757, -3.3608926294469414, -0.868219346841726,
                             27.59209969944671, 20.154067550477894, -43.48988418106996)
_A[9, [0, 3, 4, 5, 6, 7, 8]] = (0.47766253643826434, -2.4881146199716677, -0.590290826836843,
                                21.230051448181193, 15.279233632882423, -33.28821096898486,
                                -0.020331201708508627)
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = (-0.9371424300859873, 5.186372428844064, 1.0914373489967295,
                                    -8.149787010746927, -18.52006565999696, 22.739487099350505,
                                    2.4936055526796523, -3.0467644718982196)
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = (2.273310147516538, -10.53449546673725,
                                        -2.0008720582248625, -17.9589318631188,
                                        27.94888452941996, -2.8589982771350235,
                                        -8.87285693353063, 12.360567175794303,
                                        0.6433927460157636)
_WEIGHTED = [0, 5, 6, 7, 8, 9, 10, 11]  # the stages with nonzero _B, _E5 and _E3 weights
_B = np.zeros(12)
_B[_WEIGHTED] = (0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
                 0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E5 = np.zeros(13)
_E5[_WEIGHTED] = (0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
                  1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                  0.08192320648511571, -0.022355307863886294)
_E3 = np.zeros(13)
_E3[_WEIGHTED] = (-0.18980075407240762, 4.450312892752409, 1.8915178993145003,
                  -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
                  0.20136540080403034, 0.02265179219836082)


def _norm(x: np.ndarray) -> float:
    """2-norm of a vector, formed as numpy's ``linalg.norm`` forms it."""
    return math.sqrt(x.dot(x))


def _rms(x: np.ndarray) -> float:
    return _norm(x) / x.size ** 0.5


def _dop853(fun, y: np.ndarray, t_end: float, tol: float) -> tuple[np.ndarray, int, int]:
    """Integrate y' = fun(t, y), y(0) = y, over [0, t_end] with DOP853.

    Returns y(t_end), the number of calls of ``fun`` and the number of steps.
    ``fun`` returns a sequence of floats.  The step is
    ``solve_ivp(method="DOP853", rtol=tol, atol=tol)``'s, operation for
    operation: its initial step, the stage sums as BLAS matrix-vector products
    of the same layout, its error norm (with a norm squared as the square of a
    square root), its step factors and clamps.  So the result is that of
    ``solve_ivp`` bit for bit.  A step below ten spacings of the floats at t
    raises ConvergenceError, where ``solve_ivp`` reports failure; so does a
    step size that is not a number, on which ``solve_ivp`` would loop forever.
    """
    n = y.size
    # the initial step of Hairer, Norsett & Wanner, sec. II.4, in RMS norms
    f = np.array(fun(0.0, y))
    scale = tol + np.abs(y) * tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((np.array(fun(h0, y + h0 * f)) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_end)

    k = np.empty((13, n))  # the stages, one per row
    k[0] = f
    stages = [(s, _C[s], _A[s, :s], k[:s].T) for s in range(1, 12)]
    t, nfev, nsteps = 0.0, 2, 0
    while t < t_end:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise ConvergenceError(
                    f"fundamental-solution integration failed: step size {h_abs:.3g} "
                    f"below {min_step:.3g} at theta = {t!r}"
                )
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            for s, c, a, before in stages:
                k[s] = fun(t + c * h, y + before.dot(a) * h)
            y_new = y + h * k[:12].T.dot(_B)
            k[12] = fun(t + h, y_new)
            nfev += 12
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            err5 = _norm(k.T.dot(_E5) / scale) ** 2
            err3 = _norm(k.T.dot(_E3) / scale) ** 2
            # step factors: safety 0.9, clamped to [0.2, 10], exponent -1/(7 + 1)
            if err5 == 0 and err3 == 0:
                error = 0.0
            else:
                error = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * n)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.125)
            rejected = True
        t, y = t_new, y_new
        k[0] = k[12]  # the last stage is f at the new point
        nsteps += 1
    return y, nfev, nsteps


def integrate_fundamental(p: StabilityParams, tol: float = DEFAULT_TOL) -> Monodromy:
    """Integrate gamma' = J B(theta) gamma, gamma(0) = I, over [0, 2*pi].

    Adaptive 8th-order explicit Runge-Kutta (DOP853) with local tolerance
    ``tol``; deterministic for fixed inputs.  The coefficient
    1/(1 + e cos theta) makes the system too stiff for this scheme past
    e = 0.99; ``p`` never carries a larger e, because :class:`StabilityParams`
    rejects it.

    The stepper is an in-house DOP853 (``_dop853``) that repeats
    ``scipy.integrate.solve_ivp``'s IEEE operations in the same order, so
    gamma(2*pi), nfev and the step count equal ``solve_ivp``'s bit for bit;
    ``TestScalarRhsPin`` in ``tests/test_monodromy.py`` pins this against the
    ``solve_ivp`` path kept in ``tests/oracles.py``.  The right-hand side is
    evaluated in scalar form: with gamma's rows a, b, c, d it returns the rows
    b - g0 c, -a - g1 d, a + d and b - c, each entry by the same IEEE
    operations, in the same order, as the elementwise row form, and with no
    BLAS call that could fuse a multiply and an add, so the row form's
    results are kept bit for bit too.
    """
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise DomainError(f"tolerance must be finite and at least {MIN_TOL:g}, got {tol}")
    e = p.e
    lam3, lam4 = p.lambda3, p.lambda4

    def rhs(theta, y):
        a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = y.tolist()
        den = 1.0 + e * math.cos(theta)
        g0 = 1.0 - lam3 / den
        g1 = 1.0 - lam4 / den
        return (
            b0 - g0 * c0, b1 - g0 * c1, b2 - g0 * c2, b3 - g0 * c3,
            -a0 - g1 * d0, -a1 - g1 * d1, -a2 - g1 * d2, -a3 - g1 * d3,
            a0 + d0, a1 + d1, a2 + d2, a3 + d3,
            b0 - c0, b1 - c1, b2 - c2, b3 - c3,
        )

    y, nfev, nsteps = _dop853(rhs, np.eye(4).ravel(), TWO_PI, tol)
    meta = {"method": "DOP853", "tol": tol, "nfev": nfev, "nsteps": nsteps}
    return Monodromy.from_matrix(y.reshape(4, 4), meta)


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
