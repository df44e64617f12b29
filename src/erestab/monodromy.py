"""Fundamental-solution integration over one period and spectrum classification.

The monodromy gamma(2*pi) of xi' = J B(theta) xi decides linear stability:
all eigenvalues on the unit circle and the matrix semisimple means linearly
stable; eigenvalues off the circle mean instability; an empty intersection
with the circle means hyperbolicity.  Eigenvalues of a real symplectic
matrix come in quadruples {w, 1/w, conj(w), 1/conj(w)}, which is monitored
as a check but never imposed.  gamma(2*pi) is decomposed once, when its
:class:`Monodromy` is built.  Every test on the multipliers (the verdict,
dim ker(M - w I) and the Krein-signed jump sum) reads that decomposition
and shares one on-circle mask, one clustering and one rank rule.  A sweep
integrates its points as one batch (:func:`integrate_fundamentals`), each
point with its own steps and the bits of its own integration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, unwrap
from .linearization import J4, StabilityParams

TWO_PI = 2.0 * math.pi
DEFAULT_TOL = 1e-12
MIN_TOL = 1e-13  # the tightest integrator tolerance accepted
DEFAULT_CIRCLE_TOL = 1e-6


def check_integrator_tol(tol: float) -> None:
    """Raise DomainError unless ``tol`` is finite and at least MIN_TOL."""
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise DomainError(f"integrator tolerance must be finite and at least {MIN_TOL:g}, got {tol}")


def check_circle_tol(circle_tol: float) -> None:
    """Raise DomainError unless 0 < ``circle_tol`` < 1: a multiplier off the
    circle by 1 or more is not "on the circle"."""
    if not 0.0 < circle_tol < 1.0:
        raise DomainError(f"circle tolerance must lie in (0, 1), got {circle_tol}")


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
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
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


def _rms(x: np.ndarray) -> float:
    """RMS norm of a vector, its 2-norm formed as numpy's ``linalg.norm`` forms it."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


# A state that overflows or turns NaN gives a non-finite error norm, which
# rejects steps until the point fails: numpy's warnings on the way say nothing
# more, and a point must not speak for the batch.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _dop853(fun, y0: np.ndarray, t_end: float, tol: float, args: tuple, coefficients) -> list:
    """Integrate y' = f(t, y), y(0) = y0[..., j], over [0, t_end] with DOP853
    for every point j on the last axis of ``y0``, all points stepped
    together in lockstep rounds.

    Returns, per point, (y(t_end) flattened, the number of evaluations of
    its f, the number of steps), or the ConvergenceError that stopped it.
    ``fun(c, y, out, *a)`` writes f for a batch of points into ``out``,
    shaped like ``y``, point j at ``y[..., j]``; ``a`` is ``args`` cut to the
    points in the batch along the last axis.  ``c`` is f's time-dependent
    part, ``coefficients(t, *a)`` of the times ``t`` of a round's stages,
    shaped (stages, points), formed once per round and read a stage at a time.

    Each round, every point in the batch attempts one step with its own t,
    step size, error norm and accept/reject decision: the step of
    ``solve_ivp(method="DOP853", rtol=tol, atol=tol)``, operation for
    operation.  That is its initial step, the stage sums as BLAS
    matrix-vector products over the stage array, its error norm (each
    point's by its own ``dot`` over a contiguous copy, a norm squared as the
    square of a square root), its step factors and clamps.  So every point's
    result is that of ``solve_ivp`` bit for bit on the same BLAS and numpy
    build, whatever else the batch holds.  y keeps ``y0``'s shape and the
    stages are one contiguous (13, *y.shape) array, read by BLAS through a
    flat view and copied afresh when a point leaves: products over a strided
    view change bits.  Points leave the batch at one site, the top of round
    r, after r attempts each: a point that would start a step at
    t >= t_end is done, its end state in ``y``; a step below ten spacings of
    the floats at t fails its point with a ConvergenceError, where
    ``solve_ivp`` reports failure, and so does a step size that is not a
    number, on which ``solve_ivp`` would loop forever.
    """
    n, count = math.prod(y0.shape[:-1]), y0.shape[-1]
    out: list = [None] * count

    def rows(a):  # each point's entries, one contiguous row per point
        return np.ascontiguousarray(a.reshape(n, -1).T)

    # the initial step of Hairer, Norsett & Wanner, sec. II.4, in RMS norms
    y = np.array(y0, dtype=float)
    k = np.empty((13, *y.shape))  # the stages, the first f at the step's start
    f, f1 = k[0], k[1]
    fun(coefficients(np.zeros((1, count)), *args)[0], y, f, *args)
    scale = tol + np.abs(y) * tol
    d0 = [_rms(v) for v in rows(y / scale)]
    d1 = [_rms(v) for v in rows(f / scale)]
    h0 = np.array([min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b, t_end)
                   for a, b in zip(d0, d1)])
    fun(coefficients(h0[None], *args)[0], y + h0 * f, f1, *args)
    # numpy's division, as solve_ivp's: h0 = 0 once f overflows
    d2 = (np.array([_rms(v) for v in rows((f1 - f) / scale)]) / h0).tolist()
    h_abs = []
    for a, b, c in zip(h0.tolist(), d1, d2):
        h1 = max(1e-6, a * 1e-3) if b <= 1e-15 and c <= 1e-15 else (0.01 / max(b, c)) ** (1 / 8)
        h_abs.append(min(100 * a, h1, t_end))

    points = list(range(count))  # the points in the batch, in batch order
    size = None  # the batch size the views below are made for
    t, min_step, rejected = [0.0] * count, [0.0] * count, [False] * count
    nsteps = [0] * count
    fresh = [True] * count  # the point starts a new step this round
    for attempts in itertools.count():  # every point in the batch made this many
        keep = []  # the points that stay in the batch
        for j in range(len(points)):
            if fresh[j]:
                if not t[j] < t_end:
                    out[points[j]] = (y[..., j].flatten(), 2 + 12 * attempts, nsteps[j])
                    continue
                min_step[j] = 10 * abs(math.nextafter(t[j], math.inf) - t[j])
                if h_abs[j] < min_step[j]:
                    h_abs[j] = min_step[j]
                rejected[j] = False
            if not h_abs[j] >= min_step[j]:
                out[points[j]] = ConvergenceError(
                    f"fundamental-solution integration failed: step size {h_abs[j]:.3g} "
                    f"below {min_step[j]:.3g} at theta = {t[j]!r}"
                )
                continue
            keep.append(j)
        if not keep:
            return out
        if len(keep) < len(points):
            points, t, min_step, h_abs, rejected, nsteps = (
                [v[j] for j in keep] for v in (points, t, min_step, h_abs, rejected, nsteps)
            )
            y, k = y.take(keep, axis=-1), k.take(keep, axis=-1)
            args = tuple(a.take(keep, axis=-1) for a in args)
        if size != len(points):
            size, shape, outs, flat = len(points), y.shape, list(k), k.reshape(13, -1)
            sums = [(flat[:s].T, _A[s, :s]) for s in range(1, 12)]

        t_new = [min(a + b, t_end) for a, b in zip(t, h_abs)]
        h = [a - b for a, b in zip(t_new, t)]
        h_abs = [abs(v) for v in h]
        h_arr = np.array(h)
        h_rep = np.concatenate((h_arr,) * n)
        c = coefficients(np.array(t) + np.multiply.outer(_C[1:], h_arr), *args)  # at t + c_s h
        for s, (before, a) in enumerate(sums, 1):
            fun(c[s - 1], y + (before.dot(a) * h_rep).reshape(shape), outs[s], *args)
        y_new = y + (h_rep * flat[:12].T.dot(_B)).reshape(shape)
        fun(c[10], y_new, outs[12], *args)  # at t + h, as stage 11: c_11 = 1
        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        errs5 = rows(flat.T.dot(_E5) / scale.ravel())
        errs3 = rows(flat.T.dot(_E3) / scale.ravel())
        fresh = [False] * size
        for j in range(size):
            err5 = math.sqrt(errs5[j].dot(errs5[j])) ** 2
            err3 = math.sqrt(errs3[j].dot(errs3[j])) ** 2
            # step factors: safety 0.9, clamped to [0.2, 10], exponent -1/(7 + 1)
            if err5 == 0 and err3 == 0:
                error = 0.0
            else:
                error = h_abs[j] * err5 / math.sqrt((err5 + 0.01 * err3) * n)
            fresh[j] = error < 1
            if fresh[j]:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs[j] *= min(1, factor) if rejected[j] else factor
                t[j] = t_new[j]
                nsteps[j] += 1
            else:
                h_abs[j] *= max(0.2, 0.9 * error ** -0.125)
                rejected[j] = True
        if all(fresh):
            y = y_new
            k[0] = k[12]  # the last stage is f at the new point
        elif any(fresh):
            y = np.where(fresh, y_new, y)
            k[0] = np.where(fresh, k[12], k[0])


# the rows of gamma (a, b, c, d = 0, 1, 2, 3) that make u = (b, -g1 d, a, b)
# and v = (g0 c, a, -d, c) in _fundamental_rhs
_UV_ROWS = [1, 3, 0, 1, 2, 0, 3, 2]


def _weights(theta: np.ndarray, e: np.ndarray, lam34: np.ndarray) -> np.ndarray:
    """The weights of u and v in :func:`_fundamental_rhs` at the times
    ``theta``, shaped (times, points), for points with eccentricities ``e``
    and the rows lambda3, lambda4 of ``lam34``: g0 = 1 - lambda3 / den and
    -g1 = lambda4 / den - 1 (the negation is exact), with den = 1 +
    e cos theta, and 1 or -1 for a row that stands alone.  ``math.cos`` point
    by point: numpy's vectorised cosine may differ in the last bit."""
    cos = np.array([math.cos(v) for v in theta.ravel().tolist()]).reshape(theta.shape)
    q = lam34 / (1.0 + e * cos)[:, None]
    w = np.ones((len(theta), 8, 1, theta.shape[1]))
    w[:, 6] = -1.0
    np.subtract(1.0, q[:, 0], out=w[:, 4, 0])
    np.subtract(q[:, 1], 1.0, out=w[:, 1, 0])
    return w


def _fundamental_rhs(weights: np.ndarray, y: np.ndarray, out: np.ndarray, *args) -> None:
    """``_dop853``'s f for gamma' = J B(theta) gamma at a batch of points,
    ``y`` shaped (4, 4, points), with the :func:`_weights` of their times.

    With gamma's rows a, b, c, d the derivative's rows are b - g0 c,
    (-g1) d - a, a + d and b - c: u - v, every point at once.  Each entry
    comes from the same IEEE operations as the elementwise row form's
    b - g0 c, -a - g1 d, a + d and b - c (a product with 1 or -1, a negation
    and the order of an addition's terms are exact), with no BLAS call that
    could fuse a multiply and an add, so the row form's results are kept bit
    for bit.
    """
    uv = y.take(_UV_ROWS, axis=0)
    uv *= weights
    np.subtract(uv[:4], uv[4:], out=out)


def integrate_fundamentals(
    ps: Sequence[StabilityParams], tol: float = DEFAULT_TOL
) -> list[Monodromy | ConvergenceError]:
    """:func:`integrate_fundamental` for every point of ``ps``, as one batch.

    The points are stepped together, each with its own steps, so each
    point's Monodromy equals its own integration bit for bit.  A point whose
    integration fails gets its ConvergenceError in its place; the other
    points are not affected.
    """
    check_integrator_tol(tol)
    if not ps:
        return []
    e = np.array([p.e for p in ps])
    lam34 = np.array([[p.lambda3 for p in ps], [p.lambda4 for p in ps]])
    y0 = np.repeat(np.eye(4)[:, :, None], len(ps), axis=2)
    out = []
    for done in _dop853(_fundamental_rhs, y0, TWO_PI, tol, (e, lam34), _weights):
        if isinstance(done, ConvergenceError):
            out.append(done)
        else:
            y, nfev, nsteps = done
            meta = {"method": "DOP853", "tol": tol, "nfev": nfev, "nsteps": nsteps}
            out.append(Monodromy.from_matrix(y.reshape(4, 4), meta))
    return out


def integrate_fundamental(p: StabilityParams, tol: float = DEFAULT_TOL) -> Monodromy:
    """Integrate gamma' = J B(theta) gamma, gamma(0) = I, over [0, 2*pi].

    Adaptive 8th-order explicit Runge-Kutta (DOP853) with local tolerance
    ``tol``; deterministic for fixed inputs.  The coefficient
    1/(1 + e cos theta) makes the system too stiff for this scheme past
    e = 0.99; ``p`` never carries a larger e, because :class:`StabilityParams`
    rejects it.

    This is :func:`integrate_fundamentals` on one point, so there is one
    stepper: ``_dop853``, an in-house DOP853 that repeats
    ``scipy.integrate.solve_ivp``'s IEEE operations in the same order.
    gamma(2*pi), nfev and the step count equal ``solve_ivp``'s bit for bit on
    the same BLAS and numpy build, alone or in any batch; ``TestScalarRhsPin``
    and ``TestBatchPin`` in ``tests/test_monodromy.py`` pin this against the
    ``solve_ivp`` path kept in ``tests/oracles.py``.  A sweep integrates its
    points together: one point alone pays a batch's overhead per step, about
    twice the step time of a scalar loop.
    """
    (mono,) = integrate_fundamentals([p], tol)
    return unwrap(mono)


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
    at distance > circle_tol from +-1.  ``circle_tol`` must lie in (0, 1).
    """
    check_circle_tol(circle_tol)
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
    non-normal matrices.  ``circle_tol`` must lie in (0, 1) and ``omega``
    must be finite.
    """
    check_circle_tol(circle_tol)
    w = complex(omega)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError(f"omega must be finite, got {omega}")
    guard = math.sqrt(circle_tol)
    eigs = np.asarray(m.eigenvalues)
    algebraic = int(np.count_nonzero(np.abs(eigs - w) < guard))
    if algebraic == 0:
        return 0
    return min(_geometric_multiplicity(m, w, guard), algebraic)


def circle_jump_sum(m: Monodromy, circle_tol: float) -> int | None:
    """Signed index-jump total over the upper-half-circle multipliers of ``m``.

    For the monodromy gamma(2*pi) this is phi_{-1} - phi_1.  Each simple
    on-circle eigenvalue in the open upper half plane carries a splitting
    jump of -sign(Im(v^H J v)) (its negative Krein sign).  Returns None when
    the jump cannot be resolved from the spectrum alone: an on-circle
    eigenvalue within sqrt(circle_tol) of +-1, two upper ones clustered, or
    a Krein form too small to sign.  ``circle_tol`` must lie in (0, 1).
    """
    check_circle_tol(circle_tol)
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
