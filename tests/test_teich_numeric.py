"""Weierstrass layer, leaf inversion, chamber traces, boundary limits."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoleaf import stats
from isoleaf.period_algebra import (
    InvalidInput,
    LatticeElement,
    PeriodCharacter,
    WrongLeafKind,
    symplectic_partner,
)
from isoleaf.teich_numeric import (
    DegenerateSystem,
    NoConvergence,
    NoDoubleZeroSplit,
    PoleAt,
    TeichPoint,
    WeierstrassData,
    _FormState,
    _carlson_rf,
    _companion,
    _least_squares,
    _lift,
    _newton_track,
    _trace_grid,
    _wall_crossings,
    boundary_limit,
    chamber_trace,
    complex_periods,
    form_zero,
    hyperbolic_distance,
    leaf_coordinate,
    leaf_to_teich,
    model_point,
    reduce_tau,
    relative_period,
    solve_form,
    trace_many,
    wp,
    wzeta,
)

TWO_PI_I = 2j * math.pi

CHI_POS = PeriodCharacter.gaussian((1, 0), (0, 1))
CHI_NEG = PeriodCharacter.gaussian((1, 0), (0, -1))
CHI_ARITH = PeriodCharacter.gaussian((1, 0), (0, 0))
CHI_NONARITH = PeriodCharacter.quadratic(2, (1, 0), (0, 1))
CHI_SKEW = PeriodCharacter.gaussian((1, 0), (Fraction(-1, 4), Fraction(5, 4)))

# strategy: tau well inside the standard fundamental-domain box
taus = st.tuples(
    st.floats(-0.45, 0.45), st.floats(0.9, 1.8)
).map(lambda p: complex(p[0], p[1]))


def lattice_sum_wp(z, tau, N=100):
    """Direct symmetric truncation of the defining lattice sum of wp."""
    m, n = np.meshgrid(np.arange(-N, N + 1), np.arange(-N, N + 1))
    w = (m + n * tau).ravel()
    w = w[np.abs(w) > 1e-12]
    return 1 / z**2 + np.sum(1 / (z - w) ** 2 - 1 / w**2)


def lattice_sum_zeta(z, tau, N=100):
    """Direct symmetric truncation of the defining lattice sum of zeta."""
    m, n = np.meshgrid(np.arange(-N, N + 1), np.arange(-N, N + 1))
    w = (m + n * tau).ravel()
    w = w[np.abs(w) > 1e-12]
    return 1 / z + np.sum(1 / (z - w) + 1 / w + z / w**2)


def integrate_form(a, b, tau, z0, z1, pieces=8, order=48):
    """Gauss-Legendre line integral of ``(a + b wp) dz`` from z0 to z1."""
    x, wts = np.polynomial.legendre.leggauss(order)
    total = 0j
    for k in range(pieces):
        za = z0 + (z1 - z0) * k / pieces
        zb = z0 + (z1 - z0) * (k + 1) / pieces
        mid, half = (za + zb) / 2, (zb - za) / 2
        for xi, wi in zip(x, wts):
            total += wi * (a + b * wp(mid + half * xi, tau)) * half
    return total


class TestTauReduction:
    def test_fundamental_domain(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            tau = complex(rng.uniform(-8, 8), rng.uniform(0.05, 4.0))
            tr, (a, b, c, d) = reduce_tau(tau)
            assert a * d - b * c == 1
            assert abs(tr.real) <= 0.5 + 1e-9
            assert abs(tr) >= 1 - 1e-9
            assert abs((a * tau + b) / (c * tau + d) - tr) < 1e-12

    def test_already_reduced(self):
        tr, m = reduce_tau(0.1 + 1.4j)
        assert tr == 0.1 + 1.4j and m == (1, 0, 0, 1)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            reduce_tau(1 - 1j)

    def test_teich_point_validation(self):
        assert TeichPoint(0.2 + 0.7j).tau == 0.2 + 0.7j
        with pytest.raises(ValueError):
            TeichPoint(0.2 - 0.7j)


class TestWeierstrass:
    def test_against_lattice_sums(self):
        # independent oracle: the defining Eisenstein-type lattice sums
        for tau in (0.3 + 1.7j, 1j, -0.4 + 0.9j):
            for z in (0.31 + 0.27j, 0.5, 0.1 + 0.6j):
                assert abs(wp(z, tau) - lattice_sum_wp(z, tau)) < 5e-4
                assert abs(wzeta(z, tau) - lattice_sum_zeta(z, tau)) < 5e-5

    @pytest.mark.parametrize("tau", [1.2e-7j, 0.004j, 1 / 240 * 1j, 240j, 0.5 + 0.001j])
    def test_modulus_past_double_range_is_typed(self, tau):
        # the reduced modulus has Im above 237, where the series overflow in
        # double precision: near the cusp 0, 1/2 or infinity
        with pytest.raises(InvalidInput, match="too close to a cusp"):
            WeierstrassData(tau)

    @pytest.mark.parametrize("height", [10, 20, 30, 50, 100, 150, 200])
    def test_high_modulus_stays_finite(self, height):
        # from Im tau about 30 on, q^k underflows to 0 within the table while
        # e^{-2 pi i k z0} overflows; their product was nan, and so were eta1,
        # eta2 and wp.  A tau near the cusp 0 reduces to the same height.
        for tau in (0.1 + height * 1j, -0.37 + height * 1j, 1j / height):
            data = WeierstrassData(tau)
            legendre = data.eta1 * tau - data.eta2
            assert abs(legendre - TWO_PI_I) < 1e-8 * max(1, abs(data.eta2))
            z = 0.25 + 0.3 * tau
            assert all(cmath.isfinite(v) for v in (data.wp(z), data.wzeta(z)))
        data = WeierstrassData(0.1 + height * 1j)
        assert abs(data.eta1 - math.pi**2 / 3) < 1e-12

    def test_square_lattice_eta(self):
        # classical: eta1(i) = pi, and eta2(i) = -i pi by the Legendre
        # relation combined with the quarter-turn symmetry of Z[i]
        data = WeierstrassData(1j)
        assert abs(data.eta1 - math.pi) < 1e-12
        assert abs(data.eta2 + 1j * math.pi) < 1e-12

    def test_eta1_matches_lattice_zeta(self):
        # eta1 = 2 zeta(1/2): compare with the direct lattice sum
        for tau in (0.3 + 1.7j, -0.2 + 1.1j):
            data = WeierstrassData(tau)
            assert abs(data.eta1 - 2 * lattice_sum_zeta(0.5, tau)) < 1e-4

    def test_legendre_relation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.5))
            data = WeierstrassData(tau)
            assert abs(data.eta1 * tau - data.eta2 - TWO_PI_I) < 1e-8

    def test_parity_and_zeta_oddness(self):
        tau = 0.23 + 1.31j
        for z in (0.31 + 0.27j, -0.4 + 0.55j, 0.12 - 0.08j):
            assert abs(wp(z, tau) - wp(-z, tau)) < 1e-9
            assert abs(wzeta(z, tau) + wzeta(-z, tau)) < 1e-9

    def test_quasi_periodicity(self):
        tau = -0.17 + 1.23j
        data = WeierstrassData(tau)
        z = 0.29 + 0.41j
        assert abs(wzeta(z + 1, tau) - wzeta(z, tau) - data.eta1) < 1e-10
        assert abs(wzeta(z + tau, tau) - wzeta(z, tau) - data.eta2) < 1e-10
        assert abs(wp(z + 1, tau) - wp(z, tau)) < 1e-10
        assert abs(wp(z + tau, tau) - wp(z, tau)) < 1e-10

    def test_zeta_derivative_is_minus_wp(self):
        tau, z, h = 0.3 + 1.7j, 0.37 + 0.22j, 1e-5
        dz = (wzeta(z + h, tau) - wzeta(z - h, tau)) / (2 * h)
        assert abs(dz + wp(z, tau)) < 1e-7

    def test_wp_prime_consistency(self):
        tau, z, h = 0.3 + 1.7j, 0.37 + 0.22j, 1e-5
        data = WeierstrassData(tau)
        dz = (wp(z + h, tau) - wp(z - h, tau)) / (2 * h)
        assert abs(dz - data.wp_prime(z)) < 1e-6

    def test_differential_equation(self):
        # wp'^2 = 4 (wp - e1)(wp - e2)(wp - e3): ties the three series
        # and the half-period values together
        for tau in (0.3 + 1.7j, -0.11 + 0.93j):
            data = WeierstrassData(tau)
            e1, e2, e3 = data.half_period_values()
            assert abs(e1 + e2 + e3) < 1e-9
            for z in (0.31 + 0.27j, 0.05 + 0.61j):
                lhs = data.wp_prime(z) ** 2
                p = data.wp(z)
                rhs = 4 * (p - e1) * (p - e2) * (p - e3)
                assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_modular_transformations(self):
        tau, z = 0.3 + 1.7j, 0.31 + 0.27j
        assert abs(wp(z, tau + 1) - wp(z, tau)) < 1e-10
        assert abs(wp(z, -1 / tau) - tau**2 * wp(tau * z, tau)) < 1e-8

    def test_poles(self):
        tau = 0.3 + 1.7j
        for z in (0, 1, tau, 1 + tau, -2 + tau):
            with pytest.raises(PoleAt):
                wp(z, tau)
            with pytest.raises(PoleAt):
                wzeta(z, tau)

    @settings(max_examples=25, deadline=None)
    @given(taus, st.floats(0.05, 0.45), st.floats(0.05, 0.45))
    def test_random_parity_and_periods(self, tau, x, y):
        z = complex(x, y)
        data = WeierstrassData(tau)
        assert abs(data.wp(z) - data.wp(-z)) < 1e-8
        assert abs(data.wzeta(z + 1) - data.wzeta(z) - data.eta1) < 1e-8


class TestSolveForm:
    def test_flat_center_square_lattice(self):
        # periods (1, i) at tau = i: the holomorphic form dz itself
        a, b = solve_form(1j, 1, 1j)
        assert abs(a - 1) < 1e-12 and abs(b) < 1e-12

    def test_negative_leaf_square_lattice(self):
        # periods (1, -i) at tau = i force a pure wp-component
        a, b = solve_form(1j, 1, -1j)
        assert abs(a) < 1e-12
        assert abs(b + 1 / math.pi) < 1e-12

    def test_reintegration(self):
        # quadrature along a fundamental parallelogram edge pair must
        # reproduce the prescribed periods
        cases = [
            (1j, 1, -1j),
            (0.2 + 1.3j, 0, 1),
            (0.37 + 1.21j, 1, 1j),
            (-0.28 + 0.97j, 2 - 1j, 0.5j),
        ]
        d = 0.31 + 0.43j
        for tau, p1, p2 in cases:
            a, b = solve_form(tau, p1, p2)
            assert abs(integrate_form(a, b, tau, d, d + 1) - p1) < 1e-8
            assert abs(integrate_form(a, b, tau, d, d + tau) - p2) < 1e-8

    def test_degenerate(self):
        with pytest.raises(DegenerateSystem):
            solve_form(0.5 + 1.2j, 0, 0)

    @settings(max_examples=25, deadline=None)
    @given(taus, st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    def test_linear_system_residual(self, tau, x, y, u):
        p1, p2 = complex(x, y), complex(u, 1.0)
        data = WeierstrassData(tau)
        a, b = solve_form(tau, p1, p2)
        assert abs((a - b * data.eta1) - p1) < 1e-10
        assert abs((a * tau - b * data.eta2) - p2) < 1e-10


class TestRelativePeriod:
    def test_zero_satisfies_equation(self):
        tau = 0.2 + 1.3j
        a, b = solve_form(tau, 0, 1)
        z0 = form_zero(tau, a, b)
        assert abs(a + b * wp(z0, tau)) < 1e-9

    def test_sign_ambiguity(self):
        tau = 0.2 + 1.3j
        a, b = solve_form(tau, 0, 1)
        z0 = form_zero(tau, a, b)
        rp = relative_period(tau, a, b, seed=z0)
        rm = relative_period(tau, a, b, seed=-z0)
        assert abs(rp + rm) < 1e-9

    def test_double_zero_rejected(self):
        tau = 0.3 + 1.2j
        data = WeierstrassData(tau)
        e1, _, _ = data.half_period_values()
        with pytest.raises(NoDoubleZeroSplit):
            form_zero(tau, -e1, 1)

    def test_no_zero_rejected(self):
        with pytest.raises(NoDoubleZeroSplit):
            relative_period(0.2 + 1.3j, 1, 0)

    def test_near_pole_zero(self):
        # a large wp-target pushes the zero next to the lattice pole;
        # the asymptotic seed z0 ~ 1/sqrt(target) must still converge
        tau = 1.0000j
        a, b = solve_form(tau, 1, 1.0001j)
        z0 = form_zero(tau, a, b)
        assert abs(a + b * wp(z0, tau)) < 1e-6 * abs(a)


def grid_zero(tau, a, b, precision=1e-12):
    """The cold zero search by a grid scan: Newton from the two pole seeds
    (for a large target) and the best 6 nodes of a 14 x 14 grid of wp."""
    data = WeierstrassData(tau, precision)
    target = -a / b
    escale = max(1.0, *(abs(e) for e in data.half_period_values()))

    def newton(z):
        for _ in range(60):
            try:
                f = data.wp(z) - target
            except PoleAt:
                return None
            if abs(f) < precision * max(1.0, abs(target)):
                return z
            df = data.wp_prime(z)
            if abs(df) < 1e-14:
                return None
            step = -f / df
            cap = 0.45 * min(1.0, abs(tau))
            if abs(step) > cap:
                step *= cap / abs(step)
            z = z + step
        return None

    seeds = []
    if abs(target) > 4 * escale:
        root = 1 / cmath.sqrt(target)
        seeds += [root, -root]
    grid = []
    for i in range(14):
        for j in range(14):
            z = (i + 0.5) / 14 + (j + 0.5) / 14 * tau
            try:
                grid.append((abs(data.wp(z) - target), z))
            except PoleAt:
                continue
    grid.sort(key=lambda item: item[0])
    seeds += [z for _, z in grid[:6]]
    for z in seeds:
        root = newton(z)
        if root is not None:
            return root
    raise NoConvergence("grid search failed")


def distance_mod_sign_and_lattice(z, w, tau):
    """Distance from ``w`` to the nearest of ``+-z + Z + Z tau``."""
    best = math.inf
    for s in (1, -1):
        d = s * z - w
        n = round(d.imag / tau.imag)
        m = round((d - n * tau).real)
        best = min(best, abs(d - m - n * tau))
    return best


def random_tau(rng):
    """tau inside and outside the fundamental domain, Im tau from 0.1 to 10."""
    return complex(rng.uniform(-2.0, 2.0), 10 ** rng.uniform(-1.0, 1.0))


class TestColdStart:
    """The zero search without a seed against the grid-scan search."""

    def test_half_period_values_match_wp(self):
        rng = np.random.default_rng(41)
        taus = [random_tau(rng) for _ in range(300)]
        taus += [1j, cmath.exp(1j * math.pi / 3), 0.5 + 0.5j, -0.5 + 10j, 3 + 0.1j]
        for tau in taus:
            data = WeierstrassData(tau)
            expected = (data.wp(0.5), data.wp(tau / 2), data.wp((1 + tau) / 2))
            for got, want in zip(data.half_period_values(), expected):
                assert abs(got - want) < 1e-13 * max(1.0, abs(want)), tau

    def test_carlson_rf_inverts_wp(self):
        # wp(R_F(c - e1, c - e2, c - e3)) = c (DLMF 19.25.35) for zeros in
        # the cell, next to the pole and next to each half period
        rng = np.random.default_rng(37)
        worst = 0.0
        for k in range(2400):
            tau = random_tau(rng)
            data = WeierstrassData(tau)
            kind = k % 4
            if kind == 0:
                z = rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * tau
            elif kind == 1:
                z = 1e-6 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            else:
                h = (0.5, tau / 2, (1 + tau) / 2)[k % 3]
                z = h + 1e-4 * abs(tau) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            try:
                c = data.wp(z)
            except PoleAt:
                continue
            e1, e2, e3 = data.half_period_values()
            root = _carlson_rf(c - e1, c - e2, c - e3)
            worst = max(worst, abs(data.wp(root) - c) / abs(c))
        assert worst < 1e-12

    def test_cold_zero_matches_grid_search(self):
        rng = np.random.default_rng(43)
        rejected = 0
        for k in range(240):
            tau = random_tau(rng) if k % 2 else complex(
                rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
            kind = k % 4
            if kind == 0:  # a generic zero in the cell
                z = rng.uniform(0.02, 0.98) + rng.uniform(0.02, 0.98) * tau
            elif kind == 1:  # next to the pole
                z = 10 ** rng.uniform(-6, -2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            else:  # next to a half period
                h = (0.5, tau / 2, (1 + tau) / 2)[k % 3]
                r = 10 ** rng.uniform(-2.5, -1.5) * min(1.0, abs(tau))
                z = h + r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            b = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            a = -b * wp(z, tau)
            try:
                root = form_zero(tau, a, b)
            except NoDoubleZeroSplit:
                # tall lattices: wp(tau/2) and wp((1+tau)/2) nearly agree
                rejected += 1
                continue
            oracle = grid_zero(tau, a, b)
            assert abs(a + b * wp(root, tau)) < 1e-9 * max(1.0, abs(a)), (tau, z)
            assert distance_mod_sign_and_lattice(root, oracle, tau) < 1e-8 * max(
                1.0, abs(oracle)), (tau, z)
        assert rejected < 24

    @pytest.mark.parametrize("chi", [CHI_POS, CHI_NEG, CHI_ARITH, CHI_NONARITH],
                             ids=["positive", "negative", "arithmetic", "nonarith"])
    def test_leaf_coordinate_matches_grid_search(self, chi):
        # equal modulo sign and periods: another zero representative moves
        # the coordinate by an even combination of the periods
        rng = np.random.default_rng(47)
        p1, p2 = complex_periods(chi)
        for _ in range(50):
            tau = complex(rng.uniform(-0.6, 0.6), rng.uniform(0.5, 2.5))
            a, b = solve_form(tau, p1, p2)
            z0 = grid_zero(tau, a, b)
            oracle = 2 * a * z0 - 2 * b * wzeta(z0, tau)
            w = leaf_coordinate(chi, tau)
            best = min(
                abs(w - s * oracle - m * p1 - n * p2)
                for s in (1, -1)
                for m in range(-6, 7)
                for n in range(-6, 7)
            )
            assert best < 1e-9 * max(1.0, abs(w)), tau


class TestLeafInversion:
    def test_negative_leaf_guess_grid(self):
        # the open defect near Re tau = 0 on the negative leaf: 28 of these
        # 441 guesses failed with the grid-scan zero search; the count must
        # not grow (the aim is 0)
        tau = -0.03098791621432012 + 1.696927668931043j
        z = 1.0267664921025104 - 1.4996472176117546j
        assert abs(leaf_coordinate(CHI_NEG, tau) - z) < 1e-12
        failures = 0
        for i in range(-10, 11):
            for j in range(-10, 11):
                try:
                    leaf_to_teich(CHI_NEG, z, tau + 0.005 * complex(i, j))
                except NoConvergence:
                    failures += 1
        assert failures <= 28

    @pytest.mark.parametrize(
        "z, guess",
        [
            (-0.21679980021930967 + 0.9883734034787558j, 0.80648179012625 + 2.8811626551819036j),
            (-0.1089178905321335 + 1.369457481965759j, 0.9684027411299567 + 1.9746495824526407j),
            (-0.0506930279566115 + 1.2352009259732917j, 0.582738655895259 + 2.703835795110629j),
        ],
    )
    def test_centre_fallback_keeps_the_sign(self, z, guess):
        # Newton and the homotopy fail from these guesses; the walk out of
        # the flat centre must end at +-z, whichever sign its first lift
        # takes (a lift to -0.2 z once ended the walk at 0.6 z)
        p1, p2 = complex_periods(CHI_SKEW)
        with stats.collect() as rec:
            point = leaf_to_teich(CHI_SKEW, z, guess)
        assert rec["invert"]["strategy"] == "continuation"
        z_back = leaf_coordinate(CHI_SKEW, point.tau)
        best = min(
            abs(z_back - s * z - m * p1 - n * p2)
            for s in (1, -1)
            for m in range(-2, 3)
            for n in range(-2, 3)
        )
        assert best < 5e-10

    def test_coordinate_round_trips_all_kinds(self):
        # invert, then evaluate the coordinate again; agreement is up to
        # the stated sign and period-translation ambiguity
        rng = np.random.default_rng(11)
        for chi in (CHI_POS, CHI_NEG, CHI_ARITH, CHI_NONARITH):
            p1, p2 = complex_periods(chi)
            for _ in range(5):
                tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 1.8))
                z = leaf_coordinate(chi, tau)
                guess = tau + complex(
                    rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)
                )
                point = leaf_to_teich(chi, z, guess, precision=1e-9)
                z_back = leaf_coordinate(chi, point.tau)
                best = min(
                    abs(z_back - s * z - m * p1 - n * p2)
                    for s in (1, -1)
                    for m in range(-4, 5)
                    for n in range(-4, 5)
                )
                assert best < 1e-6

    def test_tau_recovery_discrete_kinds(self):
        # when the period lattice is discrete, nearby coordinate
        # representatives stay far apart and the inversion pins tau itself
        rng = np.random.default_rng(23)
        for chi in (CHI_POS, CHI_NEG, CHI_ARITH):
            for _ in range(7):
                tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 1.8))
                z = leaf_coordinate(chi, tau)
                guess = tau + complex(
                    rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)
                )
                point = leaf_to_teich(chi, z, guess, precision=1e-9)
                assert abs(point.tau - tau) < 1e-6

    def test_coordinate_round_trip_in_cylinder_chamber(self):
        # coordinates sampled inside the first cylinder chamber, inverted
        # from the flat center of the leaf; the freshly evaluated
        # coordinate may flip orientation and shift by the corresponding
        # short period translation, nothing more
        for z in (1.4 - 0.2j, 2.2 - 0.35j, 3.1 - 0.15j, 1.05 - 0.6j):
            point = leaf_to_teich(CHI_POS, z, 1j)
            z_back = leaf_coordinate(CHI_POS, point.tau)
            best = min(
                abs(z_back - s * z - m - n * 1j)
                for s in (1, -1)
                for m in range(-2, 3)
                for n in range(-2, 3)
            )
            assert best < 1e-6

    def test_known_value_on_positive_leaf(self):
        # frozen: coordinate -i/2 on the (1, i) leaf, inverted from the
        # flat center guess, lands on the imaginary axis near 0.9060i
        point = leaf_to_teich(CHI_POS, -0.5j, 1j)
        assert abs(point.tau - 0.9060j) < 2e-3
        z_back = leaf_coordinate(CHI_POS, point.tau)
        assert min(abs(z_back - s * (-0.5j)) for s in (1, -1)) < 1e-8

    def test_completion_points_rejected(self):
        for z in (0, 1, 1j, 3 + 2j):
            with pytest.raises(NoDoubleZeroSplit):
                leaf_to_teich(CHI_POS, z, 1.1j)
        with pytest.raises(NoDoubleZeroSplit):
            leaf_to_teich(CHI_ARITH, 2.0, 1.1j)

    def test_bad_guess_rejected(self):
        with pytest.raises(ValueError):
            leaf_to_teich(CHI_POS, 0.4 - 0.1j, 1 - 1j)

    def test_path_continuation_consistency(self):
        # walking a segment of the leaf in 10 vs 20 steps, reusing each
        # tau as the next guess, must land on the same endpoint
        z0, z1 = 0.4 - 0.13j, 1.3 - 0.13j
        ends = []
        for steps in (10, 20):
            tau = 1j
            for k in range(1, steps + 1):
                z = z0 + (z1 - z0) * k / steps
                tau = leaf_to_teich(CHI_POS, z, tau, precision=1e-10).tau
            ends.append(tau)
        assert abs(ends[0] - ends[1]) < 1e-8
        assert ends[0].imag > 0

    def test_nonarith_coordinate_is_half_total(self):
        # cross-check of scale: the coordinate equals the integral between
        # the two zeros, which re-integration reproduces independently
        tau = 0.31 + 1.27j
        p1, p2 = complex_periods(CHI_NONARITH)
        a, b = solve_form(tau, p1, p2)
        z0 = form_zero(tau, a, b)
        # detour around the origin: the straight segment from -z0 to z0
        # would pass through the pole of wp
        way = 0.5 - 0.2j
        direct = integrate_form(a, b, tau, -z0, way, pieces=12)
        direct += integrate_form(a, b, tau, way, z0, pieces=12)
        z = 2 * a * z0 - 2 * b * wzeta(z0, tau)
        # the straight segment may differ from the tracked path by a
        # full period of the character
        diff = direct - z
        best = min(
            abs(diff - m * p1 - n * p2)
            for m in range(-3, 4)
            for n in range(-3, 4)
        )
        assert best < 1e-8


class TestNewtonTrack:
    def test_secant_slope_is_carried_and_matches_derivative(self):
        p1, p2 = complex_periods(CHI_POS)
        state = _FormState(p1, p2, 1e-12)
        w0 = state.start(1.2j)
        tau = _newton_track(state, w0 + 0.05, 1e-9, 1.0)
        assert state.tau == tau and state.dw is not None
        assert abs(state.central_difference(None) - state.dw) < 1e-2 * abs(state.dw)

    def test_stale_slope_is_recomputed(self):
        # a carried slope of the wrong sign cannot reduce the residual; the
        # damping fails once, the slope is recomputed and Newton converges
        p1, p2 = complex_periods(CHI_POS)
        state = _FormState(p1, p2, 1e-12)
        w0 = state.start(1.2j)
        target = w0 + 0.05
        state.dw = -state.central_difference(None)
        trace = []
        tau = _newton_track(state, target, 1e-9, 1.0, trace=trace)
        assert abs(state.w - target) < 1e-9
        assert trace[0][0] == trace[1][0] == 1.2j  # the retry stays at the start
        assert tau == state.tau

    def test_retry_counts_against_the_iteration_limit(self):
        p1, p2 = complex_periods(CHI_POS)
        state = _FormState(p1, p2, 1e-12)
        w0 = state.start(1.2j)
        state.dw = -state.central_difference(None)
        with pytest.raises(NoConvergence, match="iteration limit"):
            _newton_track(state, w0 + 0.05, 1e-9, 1.0, max_iter=1)
        assert state.tau == 1.2j and state.dw is None


def match_target(w0, z, p1, p2, signs=(1, -1)):
    """The period lift of the inversion before `_lift`: the lattice point
    from rounding both real lattice coordinates, or small offsets on a
    degenerate span."""
    det = p1.real * p2.imag - p2.real * p1.imag
    best = None
    for s in signs:
        base = s * z
        if abs(det) > 1e-12:
            d = base - w0
            m = round((d.real * p2.imag - p2.real * d.imag) / det)
            n = round((p1.real * d.imag - d.real * p1.imag) / det)
            cands = [base - m * p1 - n * p2]
        else:
            cands = [base - m * p1 - n * p2 for m in range(-4, 5) for n in range(-4, 5)]
        for cand in cands:
            if best is None or abs(cand - w0) < abs(best - w0):
                best = cand
    return best


def align_zero(z0, seed, tau):
    """The zero lift of the continuation before `_lift`: ``z0``, or a
    translate of ``+-z0`` by the point nearest ``seed`` in the nearest row."""
    best = z0
    for s in (1, -1):
        base = s * z0
        d = base - seed
        n = round(d.imag / tau.imag)
        m = round((d - n * tau).real)
        cand = base - m - n * tau
        if abs(cand - seed) < abs(best - seed):
            best = cand
    return best


class TestLift:
    # the three benchmark leaves, the negative, arithmetic and a real
    # quadratic leaf, and a skewed complex basis
    BASES = [(1, 1j), (1, 0.5 + 1j), (1, -0.25 + 1.25j), (1, -1j), (1, 0),
             (1, math.sqrt(2)), (0.8 + 0.6j, -1.1 + 0.35j)]

    def test_never_farther_than_the_period_lift_it_replaces(self):
        rng = np.random.default_rng(61)
        cases = 0
        for p1, p2 in self.BASES:
            p1, p2 = complex(p1), complex(p2)
            det = p1.real * p2.imag - p2.real * p1.imag
            for k in range(2000):
                z = complex(*rng.uniform(-6, 6, size=2))
                if k % 2:  # near a translate of +-z, as a continuation asks
                    m, n = rng.integers(-3, 4, size=2)
                    w0 = rng.choice([1, -1]) * z + m * p1 + n * p2 + complex(*rng.normal(0, 0.2, 2))
                else:
                    w0 = complex(*rng.uniform(-6, 6, size=2))
                for signs in ((1, -1), (1,)):
                    s, lifted = _lift(z, w0, p1, p2, signs)
                    assert s in signs
                    assert abs(lifted - w0) <= abs(match_target(w0, z, p1, p2, signs) - w0)
                    if abs(det) > 1e-12:  # a translate of s z by the lattice
                        d = lifted - s * z
                        m = (d.real * p2.imag - p2.real * d.imag) / det
                        n = (p1.real * d.imag - d.real * p1.imag) / det
                        assert abs(m - round(m)) + abs(n - round(n)) < 1e-9
                    cases += 1
        assert cases >= 20000

    def test_never_farther_than_the_zero_lift_it_replaces(self):
        rng = np.random.default_rng(67)
        for k in range(6000):
            # tau off the fundamental domain too, down to nearly real
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.01, 3))
            z0 = complex(*rng.uniform(-3, 3, size=2))
            seed = complex(*rng.uniform(-3, 3, size=2))
            s, lifted = _lift(z0, seed, 1, tau)
            assert abs(lifted - seed) <= abs(align_zero(z0, seed, tau) - seed)


def fan_crossings(path, p1, p2):
    """The per-segment scan: a slit crosses the path iff it crosses one of
    the fan triangles ``(0, z_k, z_k+1)``."""
    return any(_wall_crossings(za, zb, p1, p2) for za, zb in zip(path, path[1:]))


class TestWallCrossings:
    # the three benchmark leaves (1, g2) and a sheared, flat lattice
    LATTICES = [(1, 1j), (1, 0.5 + 1j), (1, -0.25 + 1.25j), (1, 2.3 + 0.15j)]

    def test_wall_paths_match_the_fan(self):
        grid = _trace_grid([4.0 * 2**k for k in range(7)], 256.0)
        rng = np.random.default_rng(53)
        outcomes = set()
        for p1, p2 in self.LATTICES:
            for _ in range(40):
                p, q = (int(c) for c in rng.integers(-4, 5, size=2))
                if math.gcd(p, q) != 1:
                    continue
                u_c = p * p1 + q * p2
                unit = u_c / abs(u_c)
                eps = abs(u_c) / 64 / 2 ** rng.integers(0, 14)
                path = [t * u_c - 1j * eps * unit for t in grid[: rng.integers(2, len(grid) + 1)]]
                fan = fan_crossings(path, p1, p2)
                assert _wall_crossings(path[0], path[-1], p1, p2) == fan, (p1, p2, p, q, eps)
                outcomes.add(fan)
        assert outcomes == {True, False}

    def test_random_straight_paths_match_the_fan(self):
        rng = np.random.default_rng(59)
        outcomes = set()
        for p1, p2 in self.LATTICES:
            for _ in range(200):
                za, zb = (complex(*rng.uniform(-6, 6, size=2)) for _ in range(2))
                cuts = np.sort(rng.uniform(0, 1, size=rng.integers(0, 12)))
                path = [za] + [za + s * (zb - za) for s in cuts] + [zb]
                fan = fan_crossings(path, p1, p2)
                assert _wall_crossings(za, zb, p1, p2) == fan, (p1, p2, za, zb)
                outcomes.add(fan)
        assert outcomes == {True, False}


class TestChamberTrace:
    def test_normalization_pins_origin(self):
        # chambers over the two basis directions: sigma(0) = i in the
        # small-offset limit, exactly up to the offset itself
        for u in ((1, 0), (0, 1)):
            tr = chamber_trace(CHI_POS, u, [0.0])
            assert abs(tr.points[0][1] - 1j) < 1e-3

    def test_companions_and_cusps(self):
        tr = chamber_trace(CHI_POS, (1, 0), [1.0])
        assert tr.v == (0, 1) and tr.cusp is None
        tr = chamber_trace(CHI_POS, (0, 1), [1.0])
        assert tr.v == (-1, 0) and tr.cusp == Fraction(0, 1)
        tr = chamber_trace(CHI_POS, (1, 1), [1.0])
        assert tr.v == (-1, 0) and tr.cusp == Fraction(-1, 1)
        p, q = tr.u
        r, s = tr.v
        assert p * s - q * r == 1

    def test_companion_differs_from_symplectic_partner_only_at_two_ties(self):
        # both complete u = (p, q) to a basis with det 1 and a short
        # projection; they round the projection 1/2 to opposite sides at
        # these two, so neither can replace the other without moving σ
        differ = {}
        for p in range(-60, 61):
            for q in range(-60, 61):
                if math.gcd(p, q) != 1:
                    continue
                v = symplectic_partner(LatticeElement(p, q))
                if (v.m, v.n) != _companion(p, q):
                    differ[(p, q)] = ((v.m, v.n), _companion(p, q))
        assert differ == {(1, -1): ((0, 1), (1, 0)), (-1, -1): ((0, -1), (1, 0))}

    def test_normalization_sends_cusp_to_infinity(self):
        tr = chamber_trace(CHI_POS, (1, 1), [1.0])
        assert abs(tr.sigma(-1 + 1e-9j)) > 1e7

    def test_frozen_distances_horizontal(self):
        # regression: distances from the trace over u = (1, 0) to the
        # model curve t + i log t
        tr = chamber_trace(CHI_POS, (1, 0), [4, 8, 16, 32, 64])
        d = dict(tr.distances())
        expected = {4: 0.6018, 8: 0.3118, 16: 0.1923, 32: 0.2191, 64: 0.2941}
        for t, val in expected.items():
            assert abs(d[t] - val) < 2e-3

    def test_frozen_distances_diagonal(self):
        tr = chamber_trace(CHI_POS, (1, 1), [4, 8, 16, 32, 64])
        d = dict(tr.distances())
        expected = {4: 0.7292, 8: 0.5094, 16: 0.4558, 32: 0.4762, 64: 0.5199}
        for t, val in expected.items():
            assert abs(d[t] - val) < 2e-3

    def test_distance_stays_bounded(self):
        tr = chamber_trace(CHI_POS, (1, 0), [4, 8, 16, 32, 64])
        assert max(v for _, v in tr.distances()) < 1.0

    def test_log_growth_of_imaginary_part(self):
        # Im sigma grows like (1/pi) log t: each doubling adds about
        # (log 2)/pi ~ 0.2206
        tr = chamber_trace(CHI_POS, (1, 0), [16, 32, 64])
        ims = [s.imag for _, s in tr.points]
        for lo, hi in zip(ims, ims[1:]):
            assert 0.15 < hi - lo < 0.30

    def test_opposite_direction_same_raw_path(self):
        # z and -z are the same leaf point, so u and -u trace identical
        # raw moduli
        t_samples = [1.0, 2.0, 4.0]
        tr_a = chamber_trace(CHI_POS, (1, 0), t_samples)
        tr_b = chamber_trace(CHI_POS, (-1, 0), t_samples)
        for (t1, x), (t2, y) in zip(tr_a.raw, tr_b.raw):
            assert t1 == t2 and abs(x - y) < 1e-7

    def test_epsilon_default_and_override(self):
        tr = chamber_trace(CHI_POS, (1, 0), [1.0])
        assert tr.epsilon == pytest.approx(1 / 64)
        tr = chamber_trace(CHI_POS, (1, 0), [1.0], epsilon=1 / 128)
        assert tr.epsilon == pytest.approx(1 / 128)

    def test_skips_model_outside_half_plane(self):
        tr = chamber_trace(CHI_POS, (1, 0), [0.5, 1.0, 4.0])
        assert [t for t, _ in tr.distances()] == [4.0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            chamber_trace(CHI_POS, (2, 2), [1.0])
        with pytest.raises(WrongLeafKind):
            chamber_trace(CHI_NEG, (1, 0), [1.0])
        with pytest.raises(ValueError):
            chamber_trace(CHI_POS, (1, 0), [-1.0])

    def test_trace_many_matches_single(self):
        t_samples = [1.0, 2.0]
        many = trace_many(CHI_POS, [(1, 0), (0, 1)], t_samples)
        for u in ((1, 0), (0, 1)):
            single = chamber_trace(CHI_POS, u, t_samples)
            for (t1, x), (t2, y) in zip(many[u].points, single.points):
                assert t1 == t2 and abs(x - y) < 1e-12


class TestBoundaryLimit:
    def test_frozen_table(self):
        expected = {
            (1, 0): None,
            (0, 1): Fraction(0, 1),
            (1, 1): Fraction(-1, 1),
            (2, 1): Fraction(-2, 1),
            (2, -1): Fraction(2, 1),
            (1, 2): Fraction(-1, 2),
        }
        for u, rat in expected.items():
            bl = boundary_limit(CHI_POS, u)
            assert bl.u == u
            if rat is None:
                assert bl.estimate == math.inf and bl.rational is None
            else:
                assert bl.rational == rat
                assert abs(bl.estimate - float(rat)) < 0.05
                assert bl.rational.denominator <= abs(u[1])

    def test_shear_equivariance(self):
        # applying the unit upper shear to the direction shifts the
        # boundary point by -1
        for p, q in ((1, 1), (1, 2)):
            a = boundary_limit(CHI_POS, (p, q))
            b = boundary_limit(CHI_POS, (p + q, q))
            assert b.rational == a.rational - 1

    def test_samples_populated(self):
        bl = boundary_limit(CHI_POS, (1, 1))
        assert len(bl.samples) >= 4
        for t, tau in bl.samples:
            assert t > 0 and tau.imag > 0

    def test_wrong_kind(self):
        with pytest.raises(WrongLeafKind):
            boundary_limit(CHI_ARITH, (1, 0))

    @pytest.mark.parametrize("u", [(1, 1), (2, 1), (3, 2)])
    def test_least_squares_matches_numpy(self, u):
        # the tail fit: columns 1, 1/t, log t/t^2, 1/t^2 are nearly collinear
        bl = boundary_limit(CHI_POS, u)
        ts = [t for t, _ in bl.samples]
        res = [tau.real for _, tau in bl.samples]
        cols = [[1.0] * len(ts), [1 / t for t in ts],
                [math.log(t) / t**2 for t in ts], [1 / t**2 for t in ts]]
        ref, *_ = np.linalg.lstsq(np.column_stack(cols), np.array(res), rcond=None)
        for x, y in zip(_least_squares(cols, res), ref):
            assert abs(x - y) < 1e-9 * max(1.0, abs(y))
        assert bl.estimate == _least_squares(cols, res)[0]
        slope = _least_squares([cols[0], ts], res)[1]
        assert abs(slope - np.polyfit(ts, res, 1)[0]) < 1e-12

    def test_least_squares_rejects_dependent_columns(self):
        with pytest.raises(DegenerateSystem):
            _least_squares([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], [1.0, 0.0, 1.0])


class TestHyperbolic:
    def test_basic_identities(self):
        assert hyperbolic_distance(1j, 1j) == 0.0
        assert hyperbolic_distance(1j, 2j) == pytest.approx(math.log(2))
        a, b = 0.3 + 0.8j, -1.2 + 2.5j
        assert hyperbolic_distance(a, b) == pytest.approx(
            hyperbolic_distance(b, a)
        )

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            hyperbolic_distance(1j, 1 - 1j)

    def test_model_point(self):
        assert model_point(math.e) == pytest.approx(math.e + 1j)
        with pytest.raises(ValueError):
            model_point(0.0)
