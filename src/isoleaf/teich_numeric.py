"""Numeric realization of the leaf <-> Teichmueller correspondence.

Every point of an isoperiodic leaf with periods ``(p1, p2)`` is an elliptic
differential ``(a + b wp) dz`` on ``C/(Z + Z tau)``; the leaf coordinate is
the relative period between the two zeros of the differential.  This module
computes that correspondence numerically:

* :class:`WeierstrassData` evaluates ``wp``, ``wp'`` and ``zeta`` by
  q-series after reducing ``tau`` to the standard fundamental domain, with
  the quasi-periods mapped back through the modular transformation; ``wp``
  and ``wp'`` share one pass of the series, and the half-period values
  ``e_k`` come from the theta constants at the reduced nome;
* :func:`solve_form` recovers ``(a, b)`` from the two target periods;
* :func:`form_zero` locates a zero of ``a + b wp``: by Newton from the
  previous zero along a path, or, with none, from Carlson's closed-form
  inverse ``z = R_F(c - e1, c - e2, c - e3)`` of ``wp(z) = c = -a/b``;
* :func:`relative_period` integrates the differential between the two
  zeros;
* :func:`leaf_to_teich` inverts the correspondence by damped Newton
  iteration along a path of leaf points.  One follower, :func:`_follow`,
  serves its three strategies and the chamber traces: it lifts the first
  point to the branch of the coordinate at the start (:func:`_lift`, the
  one rule for the sign and period ambiguity) and tracks the rest.  The
  relative period ``w(tau)`` is holomorphic, so Newton takes ``dw/dtau``
  from the secant of its last accepted step and carries it along the path;
  it takes a central difference only when no slope is known or when
  damping fails with the carried one;
* :func:`chamber_trace` follows a cylinder-chamber wall inside the leaf and
  reports the normalized Teichmueller trace ``sigma(t)``, which stays within
  bounded hyperbolic distance of the model curve ``t + i log t``;
* :func:`boundary_limit` extrapolates the un-normalized trace to the real
  boundary and snaps to the predicted rational cusp.

Conventions fixed here (self-checked at construction time):

* quasi-periods ``eta_j = 2 zeta(omega_j / 2)`` for ``omega_1 = 1`` and
  ``omega_2 = tau`` satisfy ``eta1 * tau - eta2 = 2 pi i``;
* the nome is ``q2 = exp(2 pi i tau)`` (series are in integer powers of
  ``q2``), applied only after reduction to ``|Re tau| <= 1/2, |tau| >= 1``;
* the chamber normalization is the exact integral change of marking to the
  basis ``(u, v)``: it sends the chamber's limit point to ``infinity`` and
  the leaf center to ``i`` up to ``O(epsilon^2)`` (exactly ``i`` in the
  limit of vanishing wall offset for max-norm-1 chambers).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, pi
from typing import Callable, Iterable, Sequence

from isoleaf import stats
from isoleaf.period_algebra import (
    InvalidInput,
    IsoleafError,
    PeriodCharacter,
    WrongLeafKind,
    _ext_gcd,
    classify,
)

__all__ = [
    "BoundaryLimit",
    "ChamberTrace",
    "DegenerateSystem",
    "NoConvergence",
    "NoDoubleZeroSplit",
    "PoleAt",
    "TeichPoint",
    "WeierstrassData",
    "boundary_limit",
    "chamber_trace",
    "complex_periods",
    "form_zero",
    "hyperbolic_distance",
    "leaf_coordinate",
    "leaf_to_teich",
    "model_point",
    "reduce_tau",
    "relative_period",
    "solve_form",
    "trace_many",
    "wp",
    "wzeta",
]

TWO_PI_I = 2j * pi


class PoleAt(IsoleafError):
    """Evaluation was requested at (numerically) a lattice point."""


class DegenerateSystem(IsoleafError):
    """The period system is singular or the target periods are zero."""


class NoDoubleZeroSplit(IsoleafError):
    """The differential does not have two distinct simple zeros.

    Raised when ``a + b wp`` has a double zero (the zero sits at a
    2-torsion point) or no zero at all (``b = 0``); these are exactly the
    completion points of the leaf, reported rather than solved.
    """


class NoConvergence(IsoleafError):
    """Newton iteration failed; ``trace`` holds (tau, residual) pairs."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = list(trace or [])


@dataclass(frozen=True)
class TeichPoint:
    """A point ``tau`` of the upper half plane."""

    tau: complex

    def __post_init__(self) -> None:
        if not complex(self.tau).imag > 0:
            raise ValueError("TeichPoint requires Im tau > 0")


def reduce_tau(tau: complex) -> tuple[complex, tuple[int, int, int, int]]:
    """Reduce ``tau`` to the fundamental domain of ``SL(2, Z)``.

    Returns ``(tau_r, (a, b, c, d))`` with ``tau_r = (a tau + b)/(c tau + d)``,
    ``|Re tau_r| <= 1/2`` and ``|tau_r| >= 1 - 1e-12``.
    """
    t = complex(tau)
    if not t.imag > 0:
        raise ValueError("tau must lie in the upper half plane")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(256):
        n = round(t.real)
        if n:
            t -= n
            a, b = a - n * c, b - n * d
        if abs(t) < 1 - 1e-12:
            t = -1 / t
            a, b, c, d = -c, -d, a, b
        else:
            break
    return t, (a, b, c, d)


class WeierstrassData:
    """q-series evaluator for ``wp``, ``wp'``, ``zeta`` on ``Z + Z tau``.

    The series run at the reduced modulus and are mapped back through the
    tracked modular transformation, so evaluation is uniformly accurate for
    any ``tau`` in the upper half plane.  The Legendre relation
    ``eta1 tau - eta2 = 2 pi i`` is recomputed from two independent series
    and verified at construction.
    """

    def __init__(self, tau: complex, precision: float = 1e-12):
        tau = complex(tau)
        if not tau.imag > 0:
            raise ValueError("tau must lie in the upper half plane")
        self.tau = tau
        self.precision = float(precision)
        tau_r, mat = reduce_tau(tau)
        self._tau_r = tau_r
        self._mat = mat
        a, b, c, d = mat
        self._lam = c * tau + d

        q2 = cmath.exp(TWO_PI_I * tau_r)
        # worst-case per-term ratio: |q2|^k * e^{2 pi k |Im z0|} with
        # |Im z0| <= Im(tau_r)/2 after lattice reduction
        rho = math.exp(-pi * tau_r.imag)
        target = self.precision * 1e-3
        K = 8
        while K < 4000 and (K + 1) ** 2 * rho ** (K + 1) > target * (1 - rho):
            K += 4
        self._K = K
        Q = []
        qk = 1.0 + 0j
        for k in range(1, K + 1):
            qk *= q2
            if qk == 0:
                # q^k underflowed; past here e^{-2 pi i k z0} may overflow, and
                # 0 * inf would make every series nan
                break
            Q.append(qk / (1 - qk))
        self._Q = Q

        e2_sum = sum((k + 1) * Qk for k, Qk in enumerate(Q))
        self._eta1_r = (pi * pi / 3) * (1 - 24 * e2_sum)
        try:
            self._eta2_r = 2 * self._zeta_reduced(tau_r / 2)
        except (OverflowError, ZeroDivisionError):
            raise InvalidInput(
                f"tau={tau!r} lies too close to a cusp: its reduced Im tau = "
                f"{tau_r.imag:.3g} is past the double-precision range (about 237)"
            ) from None
        legendre = self._eta1_r * tau_r - self._eta2_r
        # written so that a nan residual fails too
        if not abs(legendre - TWO_PI_I) <= max(1e-9, 1e4 * self.precision):
            raise IsoleafError(
                f"Legendre self-check failed at tau={tau!r}: {legendre!r}"
            )
        self.eta1 = (a * self._eta1_r - c * self._eta2_r) / self._lam
        self.eta2 = (-b * self._eta1_r + d * self._eta2_r) / self._lam

    # -- reduced-lattice series -------------------------------------------

    def _reduce_z(self, z: complex) -> tuple[complex, int, int]:
        """Write ``z/lam = z0 + m + n tau_r`` with ``z0`` centered."""
        w = complex(z) / self._lam
        tr = self._tau_r
        n = round(w.imag / tr.imag)
        m = round((w - n * tr).real)
        return w - m - n * tr, m, n

    def _pole_check(self, z0: complex) -> None:
        if abs(z0) < 1e-10:
            raise PoleAt(f"evaluation at lattice point (offset {abs(z0):.2e})")

    def _wp_pair_reduced(self, z0: complex) -> tuple[complex, complex]:
        """``(wp, wp')`` on the reduced lattice, from one Lambert loop."""
        s = cmath.sin(pi * z0)
        total = (pi / s) ** 2 - pi * pi / 3
        total_prime = -2 * pi**3 * cmath.cos(pi * z0) / s**3
        e = cmath.exp(2j * pi * z0)
        einv = 1 / e
        ek, emk = 1.0 + 0j, 1.0 + 0j
        acc = acc_prime = 0.0 + 0j
        for k, Qk in enumerate(self._Q, start=1):
            ek *= e
            emk *= einv
            acc += k * Qk * (2 - ek - emk)  # 2 - 2 cos(2 pi k z0)
            acc_prime += k * k * Qk * (ek - emk) / 2j  # k^2 Q_k sin(2 pi k z0)
        return total + 4 * pi * pi * acc, total_prime + 16 * pi**3 * acc_prime

    def _zeta_reduced(self, z0: complex) -> complex:
        s = cmath.sin(pi * z0)
        total = self._eta1_r * z0 + pi * cmath.cos(pi * z0) / s
        e = cmath.exp(2j * pi * z0)
        einv = 1 / e
        ek, emk = 1.0 + 0j, 1.0 + 0j
        acc = 0.0 + 0j
        for Qk in self._Q:
            ek *= e
            emk *= einv
            acc += Qk * (ek - emk) / 2j  # Q_k sin(2 pi k z0)
        return total + 4 * pi * acc

    # -- public evaluators (original lattice) -----------------------------

    def wp_pair(self, z: complex) -> tuple[complex, complex]:
        """``(wp(z), wp'(z))`` in one pass of the series."""
        z0, _, _ = self._reduce_z(z)
        self._pole_check(z0)
        value, slope = self._wp_pair_reduced(z0)
        return value / self._lam**2, slope / self._lam**3

    def wp(self, z: complex) -> complex:
        return self.wp_pair(z)[0]

    def wp_prime(self, z: complex) -> complex:
        return self.wp_pair(z)[1]

    def wzeta(self, z: complex) -> complex:
        z0, m, n = self._reduce_z(z)
        self._pole_check(z0)
        val = self._zeta_reduced(z0) + m * self._eta1_r + n * self._eta2_r
        return val / self._lam

    def half_period_values(self) -> tuple[complex, complex, complex]:
        """``wp`` at the 2-torsion points ``1/2``, ``tau/2``, ``(1+tau)/2``.

        From the theta constants at the reduced nome ``q = e^{i pi tau_r}``
        (DLMF 23.6.2-4): ``wp_r(1/2) = (pi^2/3)(th2^4 + 2 th4^4)``,
        ``wp_r(tau_r/2) = -(pi^2/3)(th2^4 + th3^4)`` and
        ``wp_r((1+tau_r)/2) = (pi^2/3)(th2^4 - th4^4)``.  Five terms of each
        theta series reach ``|q|^16 < 1e-18`` after reduction.  A half period
        ``(m + n tau)/2`` of ``Z + Z tau`` is ``lam`` times the reduced half
        period of parity ``(m a - n b, n d - m c) mod 2``.
        """
        q = cmath.exp(1j * pi * self._tau_r)
        s2 = sum(q ** (n * (n + 1)) for n in range(5))
        s3 = 1 + 2 * sum(q ** (n * n) for n in range(1, 5))
        s4 = 1 + 2 * sum((-q) ** (n * n) for n in range(1, 5))
        th2, th3, th4 = 16 * q * s2**4, s3**4, s4**4
        by_parity = {
            (1, 0): pi * pi / 3 * (th2 + 2 * th4),
            (0, 1): -pi * pi / 3 * (th2 + th3),
            (1, 1): pi * pi / 3 * (th2 - th4),
        }
        a, b, c, d = self._mat
        lam2 = self._lam**2
        return tuple(
            by_parity[(m % 2, n % 2)] / lam2 for m, n in ((a, c), (b, d), (a + b, c + d))
        )


_DATA_CACHE: dict[tuple[complex, float], WeierstrassData] = {}


def _data(tau: complex, precision: float = 1e-12) -> WeierstrassData:
    key = (complex(tau), float(precision))
    data = _DATA_CACHE.get(key)
    if data is None:
        if len(_DATA_CACHE) > 256:
            _DATA_CACHE.clear()
        data = WeierstrassData(tau, precision)
        stats.count("tables")
        _DATA_CACHE[key] = data
    return data


def wp(z: complex, tau: complex) -> complex:
    """The Weierstrass ``wp`` function of the lattice ``Z + Z tau``."""
    return _data(tau).wp(z)


def wzeta(z: complex, tau: complex) -> complex:
    """The Weierstrass ``zeta`` function of the lattice ``Z + Z tau``."""
    return _data(tau).wzeta(z)


# -- the differential with prescribed periods ------------------------------


def solve_form(
    tau: complex, p1: complex, p2: complex, precision: float = 1e-12
) -> tuple[complex, complex]:
    """Coefficients ``(a, b)`` of the differential ``(a + b wp) dz``.

    Solves ``p1 = a - b eta1`` and ``p2 = a tau - b eta2``; the system
    determinant is ``2 pi i`` by the Legendre relation, so it is never
    degenerate for ``tau`` in the upper half plane.
    """
    if p1 == 0 and p2 == 0:
        raise DegenerateSystem("target periods must not both vanish")
    data = _data(tau, precision)
    det = tau * data.eta1 - data.eta2
    if abs(det) < 1e-6:
        raise DegenerateSystem("period system is numerically singular")
    a = (data.eta1 * p2 - data.eta2 * p1) / det
    b = (p2 - tau * p1) / det
    return a, b


def form_zero(
    tau: complex,
    a: complex,
    b: complex,
    precision: float = 1e-12,
    seed: complex | None = None,
) -> complex:
    """One zero ``z0`` of ``a + b wp`` (the other is ``-z0`` mod lattice).

    Newton on ``wp(z) = -a/b`` starts at ``seed``, or without one at the
    closed-form zero of :func:`_cold_zero`.  Raises
    :class:`NoDoubleZeroSplit` when the zero is double (2-torsion target
    value) or when ``b = 0`` (no zeros at all), and :class:`NoConvergence`
    when Newton fails.
    """
    data = _data(tau, precision)
    scale = max(1.0, abs(a))
    if abs(b) < 1e-12 * scale:
        raise NoDoubleZeroSplit("b = 0: the differential has no zeros")
    target = -a / b
    halves = data.half_period_values()
    escale = max(1.0, *(abs(e) for e in halves))
    hscale = max(escale, abs(target))
    if min(abs(target - e) for e in halves) < max(1e-7, 1e3 * precision) * hscale:
        raise NoDoubleZeroSplit(
            "wp target value is a 2-torsion value: double zero"
        )

    if seed is None:
        stats.count("cold_zero_searches")
        seed = _cold_zero(data.tau, target, halves, pole_side=abs(target) > 4 * escale)
    z = complex(seed)
    tol = precision * max(1.0, abs(target))
    cap = 0.45 * min(1.0, abs(data.tau))
    for _ in range(60):
        try:
            value, slope = data.wp_pair(z)
        except PoleAt:
            break
        f = value - target
        if abs(f) < tol:
            return z
        if abs(slope) < 1e-14:
            break
        step = -f / slope
        if abs(step) > cap:
            step *= cap / abs(step)
        z = z + step
    raise NoConvergence("zero search for a + b wp failed")


# Carlson's stopping factor (3 r)^(-1/6) for a relative error r = 1e-16
_RF_SPREAD = (3e-16) ** (-1 / 6)


def _carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson's symmetric elliptic integral ``R_F(x, y, z)``.

    Duplication with principal square roots, then the fifth-order series
    in the elementary symmetric functions of the deviations (B. C.
    Carlson, Numer. Algorithms 10 (1995) 13-26, algorithm for R_F; valid
    for complex arguments off the negative real axis, at most one zero).
    """
    a0 = a = (x + y + z) / 3
    dx, dy = a0 - x, a0 - y
    spread = _RF_SPREAD * max(abs(dx), abs(dy), abs(a0 - z))
    for _ in range(40):
        if spread < abs(a):
            break
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z, a = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (a + lam) / 4
        spread /= 4
        dx, dy = dx / 4, dy / 4
    # deviations of the last step: A_m - x_m = (A_0 - x_0) / 4^m
    X, Y = dx / a, dy / a
    Z = -X - Y
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / cmath.sqrt(a)


def _cold_zero(
    tau: complex, target: complex, halves: Sequence[complex], pole_side: bool
) -> complex:
    """A zero of ``wp - target`` from ``z = R_F(target - e_k)`` (DLMF 19.25.35).

    The continuation depends on which representative of ``+-z`` mod
    ``Z + Z tau`` starts it, through the period translate of the relative
    period it commits.  Next to the pole (``pole_side``) that is the one
    nearest 0, otherwise the one nearest the centre of the cell
    ``[0,1) + [0,1) tau``.
    """
    e1, e2, e3 = halves
    z = _carlson_rf(target - e1, target - e2, target - e3)
    return _lift(z, 0j if pole_side else (1 + tau) / 2, 1, tau)[1]


def relative_period(
    tau: complex,
    a: complex,
    b: complex,
    precision: float = 1e-12,
    seed: complex | None = None,
) -> complex:
    """Relative period ``2 a z0 - 2 b zeta(z0)`` between the two zeros.

    Defined up to sign (choice of zero ordering) and up to the absolute
    period lattice (choice of integration path).
    """
    data = _data(tau, precision)
    z0 = form_zero(tau, a, b, precision, seed=seed)
    return 2 * a * z0 - 2 * b * data.wzeta(z0)


def complex_periods(chi: PeriodCharacter) -> tuple[complex, complex]:
    """The complex embedding of the two periods of ``chi``."""
    return complex(chi.g1), complex(chi.g2)


# -- leaf <-> Teichmueller inversion ---------------------------------------


def _lift(
    z: complex, w0: complex, p1: complex, p2: complex, signs: tuple[int, ...] = (1, -1)
) -> tuple[int, complex]:
    """``(s, s z + lam)``: the representative of ``+-z`` modulo
    ``Z p1 + Z p2`` nearest ``w0``, and its sign.

    Relative periods, and the zeros ``+-z0`` of ``a + b wp`` modulo
    ``Z + Z tau``, are defined up to sign and periods; lifting to the
    representative nearest the previous one keeps a continuation on one
    branch.  On a rank-2 lattice the row nearest ``w0`` is rounded first,
    then the point in it, in the coordinate ``(s z - w0)/p1`` with basis
    ``(1, p2/p1)``; ``signs[0] z`` itself stays a candidate.  Degenerate
    spans (one period zero, or both real) enumerate small offsets instead.
    """
    det = p1.real * p2.imag - p2.real * p1.imag
    t = p2 / p1 if abs(det) > 1e-12 else None
    best = signs[0], signs[0] * z
    dist = abs(best[1] - w0)
    for s in signs:
        base = s * z
        if t is None:
            offsets = [(m, n) for m in range(-4, 5) for n in range(-4, 5)]
        else:
            d = (base - w0) / p1
            n = round(d.imag / t.imag)
            offsets = [(round((d - n * t).real), n)]
        for m, n in offsets:
            cand = base - m * p1 - n * p2
            if abs(cand - w0) < dist:
                best, dist = (s, cand), abs(cand - w0)
    return best


class _FormState:
    """Continuation state for Newton tracking.

    Holds the committed point ``(tau, z0, w)`` (modulus, zero branch and
    relative period) and ``dw``, the current estimate of ``dw/dtau``, which
    is carried along the path (``None`` until a central difference or an
    accepted secant step sets it).
    """

    def __init__(self, p1: complex, p2: complex, precision: float):
        self.p1, self.p2, self.precision = p1, p2, precision
        self.tau: complex | None = None
        self.z0: complex | None = None
        self.w: complex | None = None
        self.dw: complex | None = None

    def eval(self, tau: complex) -> tuple[complex, complex]:
        """``(w, z0)`` at ``tau``, following the committed zero branch."""
        a, b = solve_form(tau, self.p1, self.p2, self.precision)
        seed = self.z0
        z0 = form_zero(tau, a, b, self.precision, seed=seed)
        if seed is not None:
            z0 = _lift(z0, seed, 1, tau)[1]
        return 2 * a * z0 - 2 * b * _data(tau, self.precision).wzeta(z0), z0

    def start(self, tau: complex) -> complex:
        """Evaluate at ``tau``, commit the point and return its ``w``."""
        self.w, self.z0 = self.eval(tau)
        self.tau = tau
        return self.w

    def central_difference(self, trace: list | None) -> complex:
        """``dw/dtau`` at the committed point by a two-sided difference."""
        tau = self.tau
        h = 1e-6 * max(1.0, abs(tau))
        try:
            wp_, _ = self.eval(tau + h)
            wm_, _ = self.eval(tau - h)
        except (NoDoubleZeroSplit, NoConvergence) as exc:
            raise NoConvergence(f"derivative evaluation failed: {exc}", trace)
        return (wp_ - wm_) / (2 * h)


def _newton_track(
    state: _FormState,
    target: complex,
    precision: float,
    scale: float,
    max_iter: int = 80,
    trace: list | None = None,
) -> complex:
    """Damped Newton on ``tau`` for ``w(tau) = target`` from the committed
    point of ``state``; returns the new committed ``tau``.

    The derivative is a secant slope carried across iterations and across
    calls along one path.  A central difference is taken only when no slope
    is known, or when damping fails with a carried one; that retry counts as
    an iteration.
    """
    res = state.w - target
    tol = precision * max(scale, abs(target))
    for _ in range(max_iter):
        if abs(res) < tol:
            return state.tau
        if trace is not None:
            trace.append((state.tau, abs(res)))
        fresh = state.dw is None
        if fresh:
            state.dw = state.central_difference(trace)
        dw = state.dw
        if abs(dw) < 1e-14:
            raise NoConvergence("vanishing derivative in Newton step", trace)
        step = -res / dw
        for _half in range(18):
            tau_try = state.tau + step
            if tau_try.imag < 1e-7:
                step /= 2
                continue
            try:
                w_try, z0_try = state.eval(tau_try)
            except (NoDoubleZeroSplit, NoConvergence):
                step /= 2
                continue
            if abs(w_try - target) < abs(res):
                state.dw = (w_try - state.w) / (tau_try - state.tau)
                state.tau, state.w, state.z0 = tau_try, w_try, z0_try
                res = w_try - target
                break
            step /= 2
        else:
            if fresh:
                raise NoConvergence("Newton damping exhausted", trace)
            state.dw = None
    raise NoConvergence("Newton iteration limit reached", trace)


def _follow(
    p1: complex,
    p2: complex,
    tau0: complex,
    path: Sequence[complex],
    precision: float,
    steps: int = 1,
    trace: list | None = None,
) -> list[complex]:
    """Newton continuation of ``tau`` from ``tau0`` along the leaf points
    ``path``; returns the ``tau`` of each point.

    One lift of ``path[0]`` to the branch of the coordinate at ``tau0``
    fixes a sign ``s`` and a period shift, and every point ``z`` is tracked
    at ``s z + shift``.  The lifted first point is reached in ``steps``
    straight sub-steps from the coordinate at ``tau0``.
    """
    state = _FormState(p1, p2, min(precision, 1e-12))
    scale = max(1.0, abs(p1), abs(p2))
    w0 = state.start(tau0)
    # the fresh zero search may compute the coordinate with either global
    # sign; tracking -z visits the same moduli but mirrors the slit side,
    # so fold the sign into the requested path instead of the lift
    s, first = _lift(path[0], w0, p1, p2)
    shift = first - s * path[0]
    for k in range(1, steps):
        _newton_track(state, w0 + k / steps * (first - w0), precision, scale, trace=trace)
    taus = [_newton_track(state, first, precision, scale, trace=trace)]
    for z in path[1:]:
        taus.append(_newton_track(state, s * z + shift, precision, scale, trace=trace))
    return taus


def _center_seed(p1: complex, p2: complex, z: complex) -> complex | None:
    """Quadratic model ``tau0 + 2 pi i z^2/(16 p1^2)`` of tau near the flat
    center ``tau0 = p2/p1``; ``None`` when the leaf has no flat center."""
    tau0 = p2 / p1 if p1 else 0j
    if not tau0.imag > 0:
        return None
    tau = tau0 + TWO_PI_I * z * z / (16 * p1 * p1)
    if tau.imag <= 0:
        tau = tau0 + 1j * max(1e-6, abs(z) ** 2)
    return tau


def leaf_to_teich(
    chi: PeriodCharacter,
    z_rel: complex,
    tau_guess: complex,
    precision: float = 1e-9,
) -> TeichPoint:
    """Invert the leaf coordinate: the ``tau`` whose differential with the
    periods of ``chi`` has relative period ``z_rel`` (mod sign and periods).

    Three strategies run :func:`_follow` in turn until one lands on a
    ``tau`` whose coordinate reproduces ``z_rel``: ``newton`` from the
    guess, ``homotopy`` (the target slides from the coordinate at the
    guess to ``z_rel`` in 16 steps) and, on leaves with a flat center,
    ``continuation`` (the walk from ``0.2 z_rel`` near the center out to
    ``z_rel``).  Raises :class:`NoDoubleZeroSplit` at the completion points
    (``z_rel`` in the period lattice: flat center or slit tips) and
    :class:`NoConvergence` with the shared Newton trace when all fail.
    """
    p1, p2 = complex_periods(chi)
    z = complex(z_rel)
    scale = max(1.0, abs(p1), abs(p2))
    if abs(_lift(z, 0, p1, p2, (1,))[1]) < 1e-10 * scale:
        raise NoDoubleZeroSplit("z_rel lies in the period lattice: leaf completion point")
    tau = complex(tau_guess)
    if not tau.imag > 0:
        raise InvalidInput("tau_guess must lie in the upper half plane")

    a, b = solve_form(tau, p1, p2, min(precision, 1e-12))
    if abs(b) < 1e-8 * max(1.0, abs(a)):
        seed = _center_seed(p1, p2, z)
        if seed is not None:
            tau = seed

    strategies = [("newton", tau, [z], 1), ("homotopy", tau, [z], 16)]
    center = _center_seed(p1, p2, 0.2 * z)
    if center is not None:
        strategies.append(("continuation", center, [(0.2 + 0.05 * k) * z for k in range(17)], 1))
    trace: list = []
    for name, tau0, path, steps in strategies:
        try:
            tau_out = _follow(p1, p2, tau0, path, precision, steps, trace)[-1]
        except (NoConvergence, NoDoubleZeroSplit):
            continue
        if _inversion_verified(chi, z, tau_out, precision):
            stats.record("invert", {"strategy": name, "newton_iterations": len(trace)})
            return TeichPoint(tau_out)
    raise NoConvergence("no strategy landed on a tau that reproduces the coordinate", trace)


def _inversion_verified(
    chi: PeriodCharacter, z: complex, tau_out: complex, precision: float
) -> bool:
    """Check that ``tau_out`` reproduces ``z`` up to sign and a short
    period translation.

    A freshly evaluated coordinate may differ from the requested one by
    the orientation of the zero pair or by a small number of periods
    (different integration path); anything farther means the solver
    wandered to another sheet and the result should not be accepted.
    """
    try:
        zb = leaf_coordinate(chi, tau_out, min(precision, 1e-12))
    except IsoleafError:
        return False
    p1, p2 = complex_periods(chi)
    tol = max(1e-6, 1e3 * precision) * max(1.0, abs(z))
    best = min(
        abs(zb - s * z - m * p1 - n * p2)
        for s in (1, -1)
        for m in range(-2, 3)
        for n in range(-2, 3)
    )
    return best < tol


def leaf_coordinate(
    chi: PeriodCharacter, tau: complex, precision: float = 1e-12
) -> complex:
    """Forward map: the relative-period coordinate of ``tau`` on the leaf."""
    p1, p2 = complex_periods(chi)
    a, b = solve_form(tau, p1, p2, precision)
    return relative_period(tau, a, b, precision)


# -- chamber traces and boundary limits ------------------------------------


def hyperbolic_distance(z: complex, w: complex) -> float:
    """Distance in the hyperbolic metric of the upper half plane."""
    z, w = complex(z), complex(w)
    if z.imag <= 0 or w.imag <= 0:
        raise ValueError("hyperbolic distance needs upper-half-plane points")
    arg = 1 + abs(z - w) ** 2 / (2 * z.imag * w.imag)
    return math.acosh(max(1.0, arg))


def model_point(t: float) -> complex:
    """The comparison curve ``t + i log t`` (t > 0)."""
    if t <= 0:
        raise ValueError("model curve is defined for t > 0")
    return complex(t, math.log(t))


def _companion(p: int, q: int) -> tuple[int, int]:
    """Complete primitive ``(p, q)`` to a positive basis with short projection.

    Returns ``(r, s)`` with ``p s - q r = 1`` minimizing the projection of
    ``r + s i`` onto ``p + q i``.  This is not
    `~isoleaf.period_algebra.symplectic_partner`: at the ties (1, -1) and
    (-1, -1) the two round the projection to opposite sides, and σ of a
    trace is read in this basis, so trading one for the other shifts σ by 1.
    """
    g, x, y = _ext_gcd(p, q)
    # p*x + q*y = 1 -> choose r = -y, s = x so that p*s - q*r = 1
    r, s = -y, x
    norm2 = p * p + q * q
    proj = p * r + q * s  # Re(v * conj(u)) in the square-lattice embedding
    k = round(proj / norm2)
    return r - k * p, s - k * q


def _wall_crossings(za: complex, zb: complex, p1: complex, p2: complex) -> bool:
    """Whether the segment ``[za, zb]`` crosses a slit ray ``{s*gamma : s >= 1}``.

    A slit with endpoint ``gamma`` crosses the segment exactly when the
    lattice point ``gamma`` lies in the closed triangle ``(0, za, zb)``; the
    origin itself is excluded.  A straight path subdivided at any points
    sweeps the same triangle, so one test covers it.
    """
    det = p1.real * p2.imag - p2.real * p1.imag
    if abs(det) < 1e-12:
        return False

    def coords(z: complex) -> tuple[float, float]:
        m = (z.real * p2.imag - p2.real * z.imag) / det
        n = (p1.real * z.imag - z.real * p1.imag) / det
        return m, n

    ax, ay = coords(za)
    bx, by = coords(zb)
    cross_ab = ax * by - bx * ay
    if abs(cross_ab) < 1e-15:
        return False
    lo_n = math.floor(min(0.0, ay, by)) - 1
    hi_n = math.ceil(max(0.0, ay, by)) + 1
    # P=(m,n) is in triangle(0,A,B) iff the barycentric coordinates
    # alpha = cross(P,B)/cross(A,B), beta = cross(A,P)/cross(A,B)
    # satisfy alpha >= 0, beta >= 0, alpha + beta <= 1
    tol = 1e-9
    for n in range(lo_n, hi_n + 1):
        # alpha = (m*by - bx*n)/cross_ab >= -tol etc.: linear in m
        lo_m, hi_m = -math.inf, math.inf
        for coeff, const in (
            (by / cross_ab, -bx * n / cross_ab),  # alpha
            (-ay / cross_ab, ax * n / cross_ab),  # beta
        ):
            if abs(coeff) < 1e-15:
                if const < -tol:
                    lo_m, hi_m = 1.0, 0.0
                    break
                continue
            bound = (-tol - const) / coeff
            if coeff > 0:
                lo_m = max(lo_m, bound)
            else:
                hi_m = min(hi_m, bound)
        if lo_m > hi_m:
            continue
        # alpha + beta <= 1 + tol
        coeff = (by - ay) / cross_ab
        const = (ax - bx) * n / cross_ab
        if abs(coeff) < 1e-15:
            if const > 1 + tol:
                continue
        else:
            bound = (1 + tol - const) / coeff
            if coeff > 0:
                hi_m = min(hi_m, bound)
            else:
                lo_m = max(lo_m, bound)
        m_first = math.ceil(lo_m - 1e-12)
        m_last = math.floor(hi_m + 1e-12)
        if any(m or n for m in range(m_first, m_last + 1)):
            return True
    return False


def _trace_grid(samples: Sequence[float], horizon: float) -> list[float]:
    """Monotone grid through 0 and every sample, refined near the center."""
    pts = {0.0}
    pts.update(float(t) for t in samples)
    tmax = max(horizon, max(pts))
    t = 0.0
    while t < 1.0:
        t += 1 / 8
        pts.add(min(t, tmax))
    while t < tmax:
        t = min(t * 1.06 + 1 / 16, tmax)
        pts.add(t)
    return sorted(pts)


@dataclass
class ChamberTrace:
    """A normalized Teichmueller trace along one cylinder-chamber wall."""

    u: tuple[int, int]
    v: tuple[int, int]
    epsilon: float
    cusp: Fraction | None  # raw-boundary limit -p/q; None means infinity
    points: list[tuple[float, complex]]  # requested (t, sigma(t))
    raw: list[tuple[float, complex]]  # full internal grid (t, tau(t))

    def sigma(self, tau: complex) -> complex:
        """The chamber normalization: exact change of marking to (u, v)."""
        p, q = self.u
        r, s = self.v
        return (s * tau + r) / (q * tau + p)

    def distances(
        self, model: Callable[[float], complex] = model_point
    ) -> list[tuple[float, float]]:
        """Hyperbolic distances from the trace to the model curve.

        Parameters where the model leaves the upper half plane (for the
        default curve ``t + i log t`` this is ``t <= 1``) are skipped.
        """
        out = []
        for t, sig in self.points:
            if t <= 0:
                continue
            m = model(t)
            if m.imag <= 0 or sig.imag <= 0:
                continue
            out.append((t, hyperbolic_distance(sig, m)))
        return out


def _raw_wall_trace(
    chi: PeriodCharacter,
    u: tuple[int, int],
    grid: Sequence[float],
    precision: float,
    epsilon: float | None,
) -> tuple[float, list[tuple[float, complex]]]:
    """Continuation of tau along ``z = t*u - i*eps*u/|u|``; returns raw taus."""
    p1, p2 = complex_periods(chi)
    p, q = u
    u_c = p * p1 + q * p2
    eps = epsilon if epsilon is not None else abs(u_c) / 64
    unit = u_c / abs(u_c)

    for _ in range(40):
        offset = 1j * eps * unit
        if not _wall_crossings(grid[0] * u_c - offset, grid[-1] * u_c - offset, p1, p2):
            break
        eps /= 2
    else:
        raise NoConvergence("wall offset halving failed to clear slits")
    path = [t * u_c - 1j * eps * unit for t in grid]
    tau0 = _center_seed(p1, p2, path[0])
    if tau0 is None:
        raise WrongLeafKind("trace requires a leaf with a flat center point")
    taus = _follow(p1, p2, tau0, path, precision)
    return eps, [(float(t), tau) for t, tau in zip(grid, taus)]


def chamber_trace(
    chi: PeriodCharacter,
    u: Sequence[int],
    t_samples: Sequence[float],
    precision: float = 1e-9,
    epsilon: float | None = None,
    horizon: float | None = None,
) -> ChamberTrace:
    """Trace the wall of the cylinder chamber with core ``u`` into ``H^2``.

    Follows the leaf points ``z = t u - i eps u/|u|`` just inside the
    adjacent torus chamber, follows them with the Newton continuation of
    :func:`leaf_to_teich`, and applies the exact integral chamber normalization: the
    change of marking to the basis ``(u, v)``, which sends the chamber's
    boundary limit to ``infinity``.
    """
    kind = classify(chi)
    if kind.kind != "positive":
        raise WrongLeafKind("chamber traces are implemented for positive leaves")
    p, q = (int(u[0]), int(u[1]))
    if gcd(p, q) != 1:
        raise InvalidInput("u must be a primitive lattice element")
    samples = sorted(float(t) for t in t_samples)
    if samples and samples[0] < 0:
        raise InvalidInput("trace parameters must be >= 0")
    tmax = samples[-1] if samples else 1.0
    grid = _trace_grid(samples, horizon if horizon is not None else tmax)
    eps, raw = _raw_wall_trace(chi, (p, q), grid, precision, epsilon)

    r, s = _companion(p, q)
    by_t = dict(raw)
    points = []
    for t in samples:
        tau = by_t[t]
        points.append((t, (s * tau + r) / (q * tau + p)))
    cusp = Fraction(-p, q) if q else None
    return ChamberTrace(
        u=(p, q), v=(r, s), epsilon=eps, cusp=cusp, points=points, raw=raw
    )


def trace_many(
    chi: PeriodCharacter,
    us: Iterable[Sequence[int]],
    t_samples: Sequence[float],
    precision: float = 1e-9,
) -> dict[tuple[int, int], ChamberTrace]:
    """Chamber traces of several classes, keyed by class."""
    us = [tuple(int(c) for c in u) for u in us]
    return {u: chamber_trace(chi, u, t_samples, precision) for u in us}


def _least_squares(columns: Sequence[Sequence[float]], values: Sequence[float]) -> list[float]:
    """Coefficients ``x`` minimizing ``|sum_j x_j columns[j] - values|``.

    Modified Gram-Schmidt QR with ``values`` carried as an extra column, then
    back substitution; unlike the normal equations it does not square the
    condition number of nearly collinear columns such as ``1/t`` and
    ``log t/t^2``.
    """
    n = len(columns)
    qs: list[list[float]] = []
    r = [[0.0] * n for _ in range(n)]
    rhs = []
    y = list(values)
    for j, col in enumerate(columns):
        v = list(col)
        for i, qi in enumerate(qs):
            r[i][j] = math.fsum(a * b for a, b in zip(qi, v))
            v = [b - r[i][j] * a for a, b in zip(qi, v)]
        r[j][j] = math.sqrt(math.fsum(b * b for b in v))
        if r[j][j] == 0.0:
            raise DegenerateSystem("least-squares columns are linearly dependent")
        qj = [b / r[j][j] for b in v]
        qs.append(qj)
        c = math.fsum(a * b for a, b in zip(qj, y))
        y = [b - c * a for a, b in zip(qj, y)]
        rhs.append(c)
    x = [0.0] * n
    for j in reversed(range(n)):
        x[j] = (rhs[j] - math.fsum(r[j][k] * x[k] for k in range(j + 1, n))) / r[j][j]
    return x


@dataclass
class BoundaryLimit:
    """Extrapolated raw boundary point of a cylinder-chamber wall."""

    u: tuple[int, int]
    estimate: float  # math.inf when the trace escapes to i*infinity
    rational: Fraction | None  # nearest p'/q' with q' <= |q|; None = infinity
    samples: list[tuple[float, complex]] = field(repr=False, default_factory=list)


def boundary_limit(
    chi: PeriodCharacter,
    u: Sequence[int],
    tmax: float = 192.0,
    precision: float = 1e-9,
) -> BoundaryLimit:
    """Extrapolate the un-normalized trace of chamber ``u`` to its cusp.

    Fits ``Re tau(t)`` against ``[1, 1/t, log t/t^2, 1/t^2]`` on the tail of
    the trace and returns the constant term together with the nearest
    rational of denominator at most ``|q|`` (``None`` when the trace
    diverges to ``i*infinity``, the cusp of the chambers with ``q = 0``).
    """
    kind = classify(chi)
    if kind.kind != "positive":
        raise WrongLeafKind("boundary limits are implemented for positive leaves")
    p, q = (int(u[0]), int(u[1]))
    if gcd(p, q) != 1:
        raise InvalidInput("u must be a primitive lattice element")
    grid = _trace_grid([tmax], tmax)
    _, raw = _raw_wall_trace(chi, (p, q), grid, precision, None)
    tail = [(t, tau) for t, tau in raw if t >= max(8.0, tmax / 8)]

    ts = [t for t, _ in tail]
    res = [tau.real for _, tau in tail]
    ones = [1.0] * len(ts)
    drift = _least_squares([ones, ts], res)[1]
    if abs(drift) > 0.05:
        # Re tau grows linearly: the wall escapes to the cusp at infinity
        return BoundaryLimit(u=(p, q), estimate=math.inf, rational=None, samples=tail)
    basis = [ones, [1 / t for t in ts], [math.log(t) / t**2 for t in ts], [1 / t**2 for t in ts]]
    estimate = _least_squares(basis, res)[0]

    best: Fraction | None = None
    for den in range(1, abs(q) + 1):
        cand = Fraction(round(estimate * den), den)
        if best is None or abs(estimate - cand) < abs(estimate - best):
            best = cand
    return BoundaryLimit(u=(p, q), estimate=estimate, rational=best, samples=tail)
