"""Tests for Veech group descriptors and the quadratic-unit search."""

import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from isoleaf.period_algebra import (
    GroundField,
    IsoleafError,
    PeriodCharacter,
    mat2_mul,
    normalize,
)
from isoleaf.veech import (
    BadTriple,
    ConjSL2Z,
    NotSquareFree,
    QuadraticV,
    TriangularV,
    fundamental_unit,
    group_contains,
    module_matrix,
    module_triple,
    quadratic_group,
    quadratic_group_search,
    unit_norm,
    unit_power,
    veech_group,
)
from isoleaf.veech import _power, _ring_mul
from paper_model import change_basis, gamma_element

SQUARE_FREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 29, 61, 94]


def old_unit_power(D, u, k):
    """The binary powering loop the library used before, squaring past the top bit."""
    out = (1, 0)
    base = u
    while k:
        if k & 1:
            out = _ring_mul(D, out, base)
        base = _ring_mul(D, base, base)
        k >>= 1
    return out


def walk_search(D, t, l, m):
    """The residue-cycle walk the library used before, as an oracle.

    Steps through eps, eps^2, ... modulo M = |t m N(l + m gamma)| until a
    power of norm one meets the two divisibility conditions; returns its
    exponent and exact generator.
    """
    eps = fundamental_unit(D)
    n_eps = unit_norm(D, eps)
    NL = unit_norm(D, (l, m))
    M = abs(t * m * NL)
    cur = (1 % M, 0)
    for j in range(1, 2 * max(M * M, 1) + 3):
        cur = _ring_mul(D, cur, eps, mod=M)
        norm_ok = n_eps == 1 or j % 2 == 0
        if norm_ok and cur[1] % abs(m) == 0 and ((cur[1] // abs(m)) * NL) % abs(t) == 0:
            return j, old_unit_power(D, eps, j)
    raise AssertionError("the walk found no stabilizing power")


def brute_unit(D):
    """Independent minimal-unit search: smallest beta >= 1 with |norm| = 1."""
    for beta in range(1, 10**7):
        if D % 4 == 1:
            for sign in (-4, 4):
                s2 = D * beta * beta + sign
                if s2 > 0:
                    s = isqrt(s2)
                    if s * s == s2 and (s - beta) % 2 == 0:
                        return ((s - beta) // 2, beta)
        else:
            for sign in (-1, 1):
                s2 = D * beta * beta + sign
                if s2 > 0:
                    s = isqrt(s2)
                    if s * s == s2:
                        return (s, beta)
    raise AssertionError("no unit")


class TestFundamentalUnit:
    def test_reference_units(self):
        assert fundamental_unit(2) == (1, 1)  # 1 + sqrt(2)
        assert fundamental_unit(5) == (0, 1)  # gamma itself
        assert fundamental_unit(3) == (2, 1)  # 2 + sqrt(3)

    def test_norms(self):
        assert unit_norm(2, fundamental_unit(2)) == -1
        assert unit_norm(5, fundamental_unit(5)) == -1
        assert unit_norm(3, fundamental_unit(3)) == 1

    @pytest.mark.parametrize("D", SQUARE_FREE)
    def test_against_minimal_search(self, D):
        u = fundamental_unit(D)
        assert abs(unit_norm(D, u)) == 1
        assert u == brute_unit(D)

    def test_pell_oracle_via_sympy(self):
        # independent continued-fraction machinery for D % 4 != 1
        from sympy.ntheory.continued_fraction import (
            continued_fraction_convergents,
            continued_fraction_periodic,
        )
        from sympy import sqrt as ssqrt

        for D in (2, 3, 6, 7, 10, 11, 94):
            alpha, beta = fundamental_unit(D)
            cf = continued_fraction_periodic(0, 1, D)
            flat = cf[:-1] + cf[-1] * 40
            best = None
            for conv in continued_fraction_convergents(flat):
                p, q = conv.p, conv.q
                if abs(p * p - D * q * q) == 1:
                    best = (p, q)
                    break
            assert best == (alpha, beta)

    def test_rejects_bad_discriminants(self):
        for D in (1, 4, 8, 9, 12, 18, 0, -2):
            with pytest.raises(NotSquareFree):
                fundamental_unit(D)

    def test_unit_power(self):
        eps = fundamental_unit(2)
        assert unit_power(2, eps, 2) == (3, 2)
        assert unit_power(2, eps, 3) == (7, 5)
        assert unit_power(2, eps, 0) == (1, 0)

    @pytest.mark.parametrize("D", [2, 3, 5, 13, 94])
    def test_unit_power_matches_old_loop(self, D):
        eps = fundamental_unit(D)
        for k in range(301):
            assert unit_power(D, eps, k) == old_unit_power(D, eps, k), k

    @given(
        D=st.sampled_from(SQUARE_FREE),
        a1=st.integers(-30, 30),
        b1=st.integers(-30, 30),
        a2=st.integers(-30, 30),
        b2=st.integers(-30, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_norm_multiplicative(self, D, a1, b1, a2, b2):
        from isoleaf.veech import _ring_mul

        u, v = (a1, b1), (a2, b2)
        assert unit_norm(D, _ring_mul(D, u, v)) == unit_norm(D, u) * unit_norm(D, v)


class TestQuadraticGroup:
    def test_sqrt2_module(self):
        search = quadratic_group_search(2, 1, 0, 1)
        assert search.exponent == 2
        assert search.generator == (3, 2)  # 3 + 2 sqrt(2)

    def test_golden_module(self):
        search = quadratic_group_search(5, 1, 0, 1)
        assert search.exponent == 2
        assert search.generator == (1, 1)  # gamma^2 = (3 + sqrt(5)) / 2

    def test_d3_m3_module(self):
        # beta of eps^j runs 1, 4, 15, ...; 15 is divisible by 3, so the
        # third power preserves the module
        search = quadratic_group_search(3, 1, 0, 3)
        assert search.exponent == 3
        assert search.generator == (26, 15)

    def test_exponent_minimality(self):
        for D, tau in ((2, (1, 0, 1)), (5, (1, 0, 1)), (3, (1, 0, 3))):
            search = quadratic_group_search(D, *tau)
            k = search.exponent
            eps = fundamental_unit(D)
            t, l, m = tau
            NL = unit_norm(D, (l, m))
            for j in range(1, k):
                a, b = unit_power(D, eps, j)
                ok = (
                    unit_norm(D, (a, b)) == 1
                    and b % m == 0
                    and ((b // m) * NL) % t == 0
                )
                assert not ok, (D, tau, j)

    def test_bad_triples(self):
        with pytest.raises(BadTriple):
            quadratic_group(2, 0, 1, 1)
        with pytest.raises(BadTriple):
            quadratic_group(2, 1, 1, 0)
        with pytest.raises(BadTriple):
            quadratic_group(2, 2, 0, 2)

    def test_certificate_cycle_is_recorded(self):
        # M' = |m t| / gcd(t, N(3 gamma)) = 3; 3 ramifies, so the order of
        # eps modulo 3 divides 3, and eps^1 = 2 + gamma is not rational mod 3
        search = quadratic_group_search(3, 1, 0, 3)
        assert search.modulus == 3
        assert search.factors == ((3, 1),)
        assert search.bound == 3
        assert search.witnesses == ((3, (2, 1)),)
        assert search.cycle == ()  # no residue cycle is walked
        assert search.generator == (26, 15)

    @given(
        D=st.sampled_from([2, 3, 5, 6, 13, 94]),
        t=st.integers(-60, 60),
        l=st.integers(-60, 60),
        m=st.integers(-60, 60),
    )
    @settings(max_examples=120, deadline=None)
    def test_certificate_checks(self, D, t, l, m):
        if t == 0 or m == 0 or gcd(t, gcd(l, m)) != 1:
            return
        s = quadratic_group_search(D, t, l, m)
        NL = unit_norm(D, (l, m))
        M = abs(m * t) // gcd(t, NL)
        assert s.modulus == M and s.cycle == ()
        n = 1
        for p, e in s.factors:
            assert sympy.isprime(p)
            n *= p**e
        assert n == M
        assert s.bound % s.exponent == 0
        n_eps = unit_norm(D, s.unit)
        assert n_eps ** s.exponent == 1
        assert _power(D, s.unit, s.exponent, M)[1] == 0
        assert [q for q, _ in s.witnesses] == sorted(sympy.factorint(s.exponent))
        for q, residue in s.witnesses:
            assert residue == _power(D, s.unit, s.exponent // q, M)
            assert residue[1] != 0 or n_eps ** (s.exponent // q) == -1

    @given(
        D=st.sampled_from([2, 3, 5, 13, 94]),
        t=st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 25, 27, 30, 49, 60]),
        l=st.sampled_from([0, 1, 2, 5, 8, 9, 16, 35, 49]),
        m=st.sampled_from([1, 2, 3, 4, 6, 9, 16, 25, 27, 42]),
        sign=st.sampled_from([1, -1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_residue_cycle_walk(self, D, t, l, m, sign):
        # composite and prime-power t, l, m, against the former walk
        if gcd(t, gcd(l, m)) != 1:
            return
        search = quadratic_group_search(D, t, sign * l, m)
        want = walk_search(D, t, sign * l, m)
        assert (search.exponent, search.generator) == want

    def test_prime_near_10_12_without_walk(self):
        # t = p prime: M' = p and the exponent divides p - (8|p) or twice it;
        # a walk would take about 10^12 steps
        p = sympy.nextprime(10**12)
        start = time.perf_counter()
        s = quadratic_group_search(2, p, 0, 1)
        assert time.perf_counter() - start < 0.1
        assert s.modulus == p and s.factors == ((p, 1),)
        assert (2 * (p - sympy.legendre_symbol(2, p))) % s.exponent == 0
        assert s.exponent > 10**6
        assert _power(2, s.unit, s.exponent, p)[1] == 0
        for q in sympy.factorint(s.exponent):
            assert _power(2, s.unit, s.exponent // q, p)[1] != 0 or (s.exponent // q) % 2

    def test_modulus_above_certified_range_raises(self):
        big = sympy.nextprime(10**25)
        with pytest.raises(IsoleafError):
            quadratic_group_search(2, big, 0, 1)

    @given(
        D=st.sampled_from([2, 3, 5, 13]),
        t=st.integers(1, 6),
        l=st.integers(0, 5),
        m=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_found_generator_preserves_module(self, D, t, l, m):
        if gcd(t, gcd(l, m)) != 1:
            return
        search = quadratic_group_search(D, t, l, m)
        assert search.exponent is not None  # unit cycles always return to 1
        X = module_matrix(D, (t, l, m), search.generator)
        assert all(x.denominator == 1 for row in X for x in row)
        det = X[0][0] * X[1][1] - X[0][1] * X[1][0]
        assert det == 1
        # the inverse is integral too: both inclusions of eps*module = module
        inv = ((X[1][1], -X[0][1]), (-X[1][0], X[0][0]))
        assert all(x.denominator == 1 for row in inv for x in row)


class TestModuleMatrix:
    def test_sqrt2_generator_matrix(self):
        X = module_matrix(2, (1, 0, 1), (3, 2))
        assert X == ((Fraction(3), Fraction(4)), (Fraction(2), Fraction(3)))

    def test_fails_integrality_when_conditions_fail(self):
        # first power of 2 + sqrt(3) does not preserve the m = 3 module
        X = module_matrix(3, (1, 0, 3), (2, 1))
        assert any(x.denominator != 1 for row in X for x in row)

    @given(
        D=st.sampled_from([2, 3, 5, 13, 17]),
        t=st.integers(1, 5),
        l=st.integers(-4, 4),
        m=st.integers(1, 4),
        alpha=st.integers(-40, 40),
        s=st.integers(-12, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_determinant_is_norm_when_m_divides_beta(self, D, t, l, m, alpha, s):
        beta = m * s
        X = module_matrix(D, (t, l, m), (alpha, beta))
        det = X[0][0] * X[1][1] - X[0][1] * X[1][0]
        assert det == unit_norm(D, (alpha, beta))

    def test_matrix_multiplicativity(self):
        from isoleaf.veech import _ring_mul

        tau = (1, 0, 1)
        u, v = (3, 2), (7, 5)
        Xu = module_matrix(2, tau, u)
        Xv = module_matrix(2, tau, v)
        Xuv = module_matrix(2, tau, _ring_mul(2, u, v))
        prod = tuple(
            tuple(sum(Xu[i][k] * Xv[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        assert prod == Xuv


class TestModuleTriple:
    def F(self, D):
        return GroundField.quadratic(D)

    def test_sqrt2_minus_one(self):
        theta = self.F(2).element(-1, 1)
        assert module_triple(theta) == (1, 0, 1)

    def test_golden_ratio_conjugate(self):
        theta = self.F(5).element(Fraction(-1, 2), Fraction(1, 2))
        assert module_triple(theta) == (1, 0, 1)

    def test_scaled_theta(self):
        theta = self.F(2).element(Fraction(3, 4), Fraction(1, 4))
        assert module_triple(theta) == (4, 3, 1)

    def test_sign_normalization(self):
        theta = self.F(2).element(Fraction(3, 4), Fraction(-1, 4))
        t, l, m = module_triple(theta)
        assert m > 0 and 0 <= l < t

    def test_rejects_rational(self):
        with pytest.raises(BadTriple):
            module_triple(self.F(2).element(Fraction(1, 2)))


class TestVeechGroup:
    def test_positive_identity_conjugator(self):
        chi = PeriodCharacter.gaussian((1, 0), (0, 1))
        desc = veech_group(chi)
        assert isinstance(desc, ConjSL2Z)
        assert desc.conjugator == (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        )

    def test_negative_conjugator(self):
        chi = PeriodCharacter.gaussian((1, 0), (0, -1))
        desc = veech_group(chi)
        assert isinstance(desc, ConjSL2Z)
        assert desc.conjugator == (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(-1)),
        )

    def test_arithmetic_triangular(self):
        assert isinstance(veech_group(PeriodCharacter.rational(1, 0)), TriangularV)
        assert isinstance(
            veech_group(PeriodCharacter.rational(Fraction(2, 3), Fraction(1, 2))),
            TriangularV,
        )

    def test_sqrt2_quadratic(self):
        F = GroundField.quadratic(2)
        chi = PeriodCharacter(F, F.one(), F.element(0, 1))
        desc = veech_group(chi)
        assert desc == QuadraticV(D=2, tau=(1, 0, 1), exponent=2)
        assert desc.generator == (3, 2)

    def test_basis_invariance_positive(self):
        chi = PeriodCharacter.gaussian((2, 1), (1, 3))
        desc = veech_group(chi)
        assert isinstance(desc, ConjSL2Z)
        A = ((1, 1), (0, 1))
        desc2 = veech_group(change_basis(chi, A))
        assert isinstance(desc2, ConjSL2Z)
        # same group: membership of conjugated integral matrices agrees
        for B in (((1, 1), (1, 2)), ((2, 3), (1, 2)), ((0, -1), (1, 0))):
            M = desc.conjugator
            from isoleaf.veech import _as_frac_matrix, _mat_inv

            conj = mat2_mul(mat2_mul(_as_frac_matrix(M), _as_frac_matrix(B)), _mat_inv(_as_frac_matrix(M)))
            assert group_contains(desc, conj)
            assert group_contains(desc2, conj)

    @given(
        words=st.lists(st.sampled_from(["S", "T", "U"]), min_size=0, max_size=6)
    )
    @settings(max_examples=40, deadline=None)
    def test_basis_invariance_quadratic(self, words):
        F = GroundField.quadratic(2)
        chi = PeriodCharacter(F, F.one(), F.element(0, 1))
        A = ((1, 0), (0, 1))

        def mul(X, Y):
            return tuple(
                tuple(sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )

        gens = {
            "S": ((0, -1), (1, 0)),
            "T": ((1, 1), (0, 1)),
            "U": ((1, 0), (1, 1)),
        }
        for w in words:
            A = mul(A, gens[w])
        desc = veech_group(change_basis(chi, A))
        assert isinstance(desc, QuadraticV)
        assert desc.D == 2
        assert desc.exponent == 2
        assert desc.generator == (3, 2)

    def test_quadratic_group_value_is_scaling_invariant(self):
        # theta and a full-module rescaling produce different tau data
        # but the same exponent and generator
        F = GroundField.quadratic(2)
        theta1 = F.element(-1, 1)  # sqrt(2) - 1
        theta2 = F.element(Fraction(4, 7), Fraction(-1, 7))  # (4 - sqrt 2)/7
        t1 = module_triple(theta1)
        t2 = module_triple(theta2)
        assert t1 != t2
        s1 = quadratic_group_search(2, *t1)
        s2 = quadratic_group_search(2, *t2)
        assert s1.exponent == s2.exponent == 2
        assert s1.generator == s2.generator == (3, 2)


class TestGroupContains:
    def test_conjugated_sl2z(self):
        chi = PeriodCharacter.gaussian((2, 1), (1, 3))
        desc = veech_group(chi)
        from isoleaf.veech import _as_frac_matrix, _mat_inv

        M = _as_frac_matrix(desc.conjugator)
        B = ((2, 1), (1, 1))
        A = mat2_mul(mat2_mul(M, _as_frac_matrix(B)), _mat_inv(M))
        assert group_contains(desc, A)
        bad = mat2_mul(
            mat2_mul(M, _as_frac_matrix(((2, 1), (1, 2)))), _mat_inv(M)
        )  # det 3
        assert not group_contains(desc, bad)

    def test_triangular_members(self):
        desc = TriangularV()
        assert group_contains(desc, ((1, Fraction(7, 3)), (0, 5)))
        assert group_contains(desc, ((-1, 2), (0, -3)))
        assert not group_contains(desc, ((1, 0), (1, 1)))
        assert not group_contains(desc, ((-1, 0), (0, 3)))
        assert not group_contains(desc, ((2, 0), (0, 1)))

    def test_quadratic_powers(self):
        F = GroundField.quadratic(2)
        chi = PeriodCharacter(F, F.one(), F.element(0, 1))
        desc = veech_group(chi)
        G = desc.matrix

        def mul(X, Y):
            return tuple(
                tuple(sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )

        I = ((1, 0), (0, 1))
        powers = [I]
        for _ in range(3):
            powers.append(mul(powers[-1], G))
        for P in powers:
            assert group_contains(desc, P)
            negP = tuple(tuple(-x for x in row) for row in P)
            assert group_contains(desc, negP)
        inv = ((G[1][1], -G[0][1]), (-G[1][0], G[0][0]))
        assert group_contains(desc, inv)
        assert not group_contains(desc, ((1, 1), (0, 1)))
        assert not group_contains(desc, ((2, 1), (1, 1)))


    def test_quadratic_powers_without_cap(self):
        from isoleaf.veech import _as_frac_matrix, _mat_inv, module_matrix

        chi = PeriodCharacter.quadratic(2, (1, 0), (0, 1))
        desc = veech_group(chi)
        G = _as_frac_matrix(desc.matrix)

        def power(X, k):
            P = _as_frac_matrix(((1, 0), (0, 1)))
            for _ in range(k):
                P = mat2_mul(P, X)
            return P

        def neg(X):
            return tuple(tuple(-x for x in row) for row in X)

        for k in (0, 1, 511, 512, 600):
            for base in (G, _mat_inv(G)):
                P = power(base, k)
                assert group_contains(desc, P), k
                assert group_contains(desc, neg(P)), k
                if k:
                    # det 1 and integral, but it does not commute with G
                    assert not group_contains(desc, mat2_mul(P, ((1, 1), (0, 1)))), k
        # the trace of G but not commuting with it
        assert not group_contains(desc, ((5, 4), (1, 1)))
        # commutes with G and has det 1, but is 11/7 + 6/7 sqrt 2, no unit
        assert not group_contains(desc, module_matrix(2, desc.tau, (Fraction(11, 7), Fraction(6, 7))))
        # the square root of G: det -1
        assert not group_contains(desc, module_matrix(2, desc.tau, (1, 1)))
        # exponent 0 makes G the identity: no Lucas sequence to search
        with pytest.raises(IsoleafError, match="not hyperbolic"):
            group_contains(QuadraticV(2, desc.tau, 0), ((5, 4), (1, 1)))


class TestGammaElement:
    def test_square_identity(self):
        for D in (2, 3, 5, 13):
            F = GroundField.quadratic(D)
            g = gamma_element(F)
            if D % 4 == 1:
                assert g * g == g + (D - 1) // 4
            else:
                assert g * g == F.element(D)

    def test_unit_value_exceeds_one(self):
        for D in (2, 3, 5, 13, 94):
            F = GroundField.quadratic(D)
            a, b = fundamental_unit(D)
            val = F.element(a) + b * gamma_element(F)
            assert (val - 1).sign() > 0
