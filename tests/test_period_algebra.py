"""Exact-arithmetic core: fields, characters, classification, triples."""

import time
from fractions import Fraction
from math import gcd, floor

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from isoleaf.period_algebra import (
    CharacteristicTriple,
    FieldElement,
    FieldMismatch,
    GroundField,
    InvalidInput,
    LatticeElement,
    NotSymplectic,
    PeriodCharacter,
    TrivialCharacter,
    WrongLeafKind,
    ZeroElement,
    change_basis,
    classify,
    coordinate_triples,
    enumerate_triples,
    is_primitive,
    mat2_det,
    mat2_mul,
    normalize,
    pm_representative,
    symplectic_partner,
    volume,
)
from isoleaf import period_algebra
from isoleaf.period_algebra import _basis_change_to_one_zero, _ext_gcd, _factor, _is_square_free

# ---------------------------------------------------------------------------
# factoring and square-freeness


def trial_division_square_free(n):
    """The trial-division test the library used before (n >= 2)."""
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


class TestFactor:
    def test_square_free_matches_trial_division_below_10_5(self):
        for n in range(2, 10**5):
            assert _is_square_free(n) == trial_division_square_free(n), n

    def test_prime_after_10_16_is_fast(self):
        p = sympy.nextprime(10**16)
        start = time.perf_counter()
        assert _is_square_free(p)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "n",
        [
            1, 2, 997 * 997, 1000003**2, 2**61 - 1, 3**40 * 1009, sympy.nextprime(10**24),
        ],
    )
    def test_matches_sympy(self, n):
        assert _factor(n) == sympy.factorint(n)

    def test_products_of_large_primes(self):
        # known factorizations; sympy takes about a second on each
        p = sympy.nextprime(10**12)
        assert _factor((10**9 + 7) ** 2 * p) == {10**9 + 7: 2, p: 1}
        assert _factor((2**31 - 1) * (2**61 - 1)) == {2**31 - 1: 1, 2**61 - 1: 1}

    @given(st.integers(1, 10**18))
    @settings(max_examples=200, deadline=None)
    def test_random_matches_sympy(self, n):
        assert _factor(n) == sympy.factorint(n)

    def test_rho_budget_bounds_the_work(self, monkeypatch):
        # two 10-digit primes take tens of thousands of rho squarings:
        # within the default budget, far past a budget of 256
        n = sympy.nextprime(10**9) * sympy.nextprime(3 * 10**9)
        assert _factor(n) == sympy.factorint(n)
        monkeypatch.setattr(period_algebra, "_RHO_STEPS", 256)
        with pytest.raises(InvalidInput, match="within 256 rho steps"):
            _factor(n)

    def test_prime_above_proof_range_raises(self):
        with pytest.raises(InvalidInput):
            _factor(sympy.nextprime(4 * 10**24))
        with pytest.raises(InvalidInput):
            GroundField.quadratic(sympy.nextprime(4 * 10**24))


# ---------------------------------------------------------------------------
# ground fields and elements

Q = GroundField.rational()
QI = GroundField.gaussian()
Q2 = GroundField.quadratic(2)


class TestGroundField:
    def test_square_free_validation(self):
        with pytest.raises(ValueError):
            GroundField.quadratic(4)
        with pytest.raises(ValueError):
            GroundField.quadratic(12)
        with pytest.raises(ValueError):
            GroundField.quadratic(1)
        for D in (2, 3, 5, 6, 7, 10, 11, 13):
            GroundField.quadratic(D)

    def test_symbol_square(self):
        assert Q.symbol_square is None
        assert QI.symbol_square == -1
        assert Q2.symbol_square == 2

    def test_rational_refuses_symbol(self):
        with pytest.raises(ValueError):
            Q.element(1, 1)
        with pytest.raises(ValueError):
            Q.symbol()


fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def field_elements(field):
    if field.tag == "rational":
        return fractions_st.map(field.element)
    return st.tuples(fractions_st, fractions_st).map(lambda ab: field.element(*ab))


class TestFieldElement:
    def test_arithmetic_basics(self):
        x = Q2.element(1, 1)  # 1 + sqrt(2)
        y = Q2.element(0, 1)  # sqrt(2)
        assert (x * y) == Q2.element(2, 1)  # sqrt2 + 2
        assert (x + y) == Q2.element(1, 2)
        assert (x - 1) == y
        assert x * x == Q2.element(3, 2)

    def test_inverse_gaussian(self):
        z = QI.element(2, 1)
        w = z.inverse()
        assert z * w == QI.one()
        assert w == QI.element(Fraction(2, 5), Fraction(-1, 5))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Q2.zero().inverse()

    @given(field_elements(Q2), field_elements(Q2))
    def test_norm_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()

    @given(field_elements(QI), field_elements(QI))
    def test_gaussian_norm_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()

    @given(field_elements(Q2))
    def test_inverse_roundtrip(self, x):
        if not x.is_zero():
            assert x * x.inverse() == Q2.one()

    @given(field_elements(Q2))
    def test_sign_matches_float(self, x):
        s = x.sign()
        f = float(x)
        if abs(f) > 1e-9:
            assert s == (1 if f > 0 else -1)
        if x.is_zero():
            assert s == 0

    @given(field_elements(Q2))
    def test_floor_matches_float(self, x):
        fl = x.floor()
        approx = float(x)
        # the float floor can only disagree within rounding error of an int
        assert abs(fl - floor(approx)) <= 1
        assert x >= fl
        assert x < fl + 1

    def test_floor_near_integers(self):
        # sqrt(2) ~ 1.414..., floor 1; -sqrt(2) floor -2
        assert Q2.element(0, 1).floor() == 1
        assert (-Q2.element(0, 1)).floor() == -2
        assert Q2.element(3).floor() == 3
        assert Q2.element(Fraction(-7, 2)).floor() == -4
        # 41/29 < sqrt(2) < 41/29 + tiny: exercise the adjustment loop
        x = Q2.element(0, 1) - Fraction(41, 29)
        assert x.sign() == 1
        assert x.floor() == 0

    def test_order_is_exact_near_ties(self):
        # 665857/470832 is a continued-fraction convergent of sqrt(2)
        c = Fraction(665857, 470832)
        s = Q2.element(0, 1)
        assert s < c  # sqrt(2) is strictly below this convergent
        assert s > Fraction(470832 * 2, 665857)

    def test_gaussian_has_no_order(self):
        with pytest.raises(ValueError):
            QI.element(0, 1).sign()
        with pytest.raises(ValueError):
            QI.element(0, 1).floor()
        with pytest.raises(ValueError):
            float(QI.element(0, 1))

    def test_complex_embedding(self):
        assert complex(QI.element(2, 3)) == 2 + 3j
        assert abs(complex(Q2.element(1, 1)) - (1 + 2**0.5)) < 1e-12
        assert float(Q2.element(1, 1)) == pytest.approx(1 + 2**0.5)

    def test_mixed_field_rejected(self):
        with pytest.raises(FieldMismatch):
            QI.element(0, 1) + Q2.element(0, 1)

    def test_rational_coercion_across_fields(self):
        # a purely rational element of one field coerces into another
        assert QI.element(0, 1) + Q.element(2) == QI.element(2, 1)

    def test_json_roundtrip(self):
        for x in (Q2.element(Fraction(3, 7), Fraction(-2, 5)), QI.element(1, -1)):
            back = FieldElement.from_json(x.field, x.to_json())
            assert back == x

    def test_powers(self):
        x = Q2.element(1, 1)
        assert x**0 == Q2.one()
        assert x**3 == x * x * x
        assert x**-2 == (x * x).inverse()


# ---------------------------------------------------------------------------
# lattice elements


class TestLatticeElement:
    def test_primitive_examples(self):
        assert is_primitive(LatticeElement(1, 0))
        assert not is_primitive(LatticeElement(2, 2))
        assert is_primitive(LatticeElement(2, 3))

    def test_primitive_rejects_zero(self):
        with pytest.raises(ZeroElement):
            is_primitive(LatticeElement(0, 0))

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_primitive_matches_divisor_oracle(self, m, n):
        u = LatticeElement(m, n)
        if u.is_zero():
            return
        # brute force: u = k*w for some integer k >= 2 and lattice w?
        divisible = any(
            m % k == 0 and n % k == 0 for k in range(2, max(abs(m), abs(n)) + 1)
        )
        assert is_primitive(u) == (not divisible)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_symplectic_partner(self, m, n):
        u = LatticeElement(m, n)
        if u.is_zero() or gcd(m, n) != 1:
            return
        v = symplectic_partner(u)
        assert u.det(v) == 1
        # minimality: no shift by u does strictly better in Euclidean norm
        for k in (-2, -1, 1, 2):
            w = LatticeElement(v.m + k * u.m, v.n + k * u.n)
            assert w.m**2 + w.n**2 >= v.m**2 + v.n**2

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_ext_gcd_bezout(self, a, b):
        g, s, t = _ext_gcd(a, b)
        assert g == gcd(a, b) >= 0
        assert s * a + t * b == g

    def test_merged_euclid_matches_inline_euclid(self):
        # every primitive pair of the box, against the loops the two callers
        # inlined before they shared `_ext_gcd`
        pairs = [(m, n) for m in range(-60, 61) for n in range(-60, 61) if gcd(m, n) == 1]
        assert len(pairs) > 8000
        for m, n in pairs:
            v = symplectic_partner(LatticeElement(m, n))
            assert (v.m, v.n) == inline_symplectic_partner(m, n), (m, n)
            assert _basis_change_to_one_zero(m, n) == inline_basis_change_to_one_zero(m, n), (m, n)

    def test_basis_change_rejects_imprimitive_pairs(self):
        for p, q in ((0, 0), (2, 4), (-3, 0)):
            with pytest.raises(ValueError):
                _basis_change_to_one_zero(p, q)

    def test_pm_representative(self):
        assert pm_representative(LatticeElement(-1, 2)) == LatticeElement(1, -2)
        assert pm_representative(LatticeElement(0, -3)) == LatticeElement(0, 3)
        assert pm_representative(LatticeElement(2, 5)) == LatticeElement(2, 5)


def _inline_euclid(m, n):
    """``(x, y)`` with ``x m + y n = 1``, by the loop each caller inlined."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    a, b = m, n
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a == -1:
        x0, y0 = -x0, -y0
    return x0, y0


def inline_symplectic_partner(m, n):
    """`symplectic_partner` of a primitive ``(m, n)`` as first written."""
    x0, y0 = _inline_euclid(m, n)
    v0 = (-y0, x0)
    t = Fraction(-(v0[0] * m + v0[1] * n), m * m + n * n)
    k = (t + Fraction(1, 2)).numerator // (t + Fraction(1, 2)).denominator
    best = (v0[0] + k * m, v0[1] + k * n)
    for kk in (k - 1, k + 1):
        cand = (v0[0] + kk * m, v0[1] + kk * n)
        if (cand[0] ** 2 + cand[1] ** 2, *cand) < (best[0] ** 2 + best[1] ** 2, *best):
            best = cand
    return best


def inline_basis_change_to_one_zero(p, q):
    """`_basis_change_to_one_zero` of a primitive ``(p, q)`` as first
    written, with the shear by ``n = (p, q) . (-q, p)`` it applied."""
    x0, y0 = _inline_euclid(p, q)
    A = ((x0, -q), (y0, p))
    assert mat2_det(A) == 1
    n = p * A[0][1] + q * A[1][1]
    return mat2_mul(A, ((1, -n), (0, 1)))


# ---------------------------------------------------------------------------
# characters: volume and classification


class TestVolume:
    def test_unit_square(self, chi_positive):
        assert volume(chi_positive) == 1

    def test_reflected_unit_square(self, chi_negative):
        assert volume(chi_negative) == -1

    def test_hand_expansion(self):
        # Im((2 - i)(1 + 3i)) = Im(2 + 6i - i + 3) = 5
        chi = PeriodCharacter.gaussian((2, 1), (1, 3))
        assert volume(chi) == 5

    def test_trivial_rejected(self):
        with pytest.raises(TrivialCharacter):
            PeriodCharacter.gaussian((0, 0), (0, 0))


class TestClassify:
    def test_positive(self, chi_positive):
        assert classify(chi_positive).is_positive

    def test_arithmetic_unit(self, chi_arithmetic):
        kind = classify(chi_arithmetic)
        assert kind.is_arithmetic
        assert kind.generator == Q.one()

    def test_nonarith_sqrt2(self, chi_nonarith):
        kind = classify(chi_nonarith)
        assert kind.is_nonarithmetic
        assert kind.theta == Q2.element(-1, 1)  # sqrt(2) - 1

    def test_arith_generator_of_coprime_pair(self):
        kind = classify(PeriodCharacter.rational(3, 5))
        assert kind.is_arithmetic and kind.generator == Q.one()
        kind = classify(PeriodCharacter.rational(Fraction(2, 3), Fraction(1, 2)))
        # Z(2/3) + Z(1/2) = Z/6
        assert kind.generator == Q.element(Fraction(1, 6))

    def test_arith_with_zero_component(self):
        kind = classify(PeriodCharacter.rational(0, 7))
        assert kind.is_arithmetic and kind.generator == Q.element(7)
        kind = classify(PeriodCharacter.rational(-4, 0))
        assert kind.generator == Q.element(4)

    def test_arith_gaussian_collinear(self):
        # (1+i, 2+2i): volume 0, ratio 2 rational -> cyclic group
        chi = PeriodCharacter.gaussian((1, 1), (2, 2))
        kind = classify(chi)
        assert kind.is_arithmetic
        assert kind.generator == QI.element(1, 1)

    def test_nonarith_in_quadratic_field(self):
        chi = PeriodCharacter.quadratic(2, (0, 1), (2, 3))
        kind = classify(chi)
        assert kind.is_nonarithmetic
        # g2/g1 = (2 + 3 sqrt2)/sqrt2 = 3 + sqrt2, fractional part sqrt2 - 1
        assert kind.theta == Q2.element(-1, 1)

    def test_quadratic_field_rational_ratio_is_arithmetic(self):
        chi = PeriodCharacter.quadratic(2, (0, 1), (0, 3))
        kind = classify(chi)
        assert kind.is_arithmetic
        assert kind.generator == Q2.element(0, 1)


# ---------------------------------------------------------------------------
# change of basis


class TestChangeBasis:
    def test_identity(self, chi_positive):
        out = change_basis(chi_positive, ((1, 0), (0, 1)))
        assert out == chi_positive

    def test_shear(self, chi_positive):
        out = change_basis(chi_positive, ((1, 1), (0, 1)))
        assert out.g1 == QI.one()
        assert out.g2 == QI.element(1, 1)
        assert volume(out) == 1

    def test_rotation_on_arithmetic(self):
        chi = PeriodCharacter.rational(1, 0)
        out = change_basis(chi, ((0, -1), (1, 0)))
        assert (out.g1, out.g2) == (Q.zero(), Q.element(-1))
        assert volume(out) == 0

    def test_rejects_non_symplectic(self, chi_positive):
        with pytest.raises(NotSymplectic):
            change_basis(chi_positive, ((1, 0), (0, -1)))
        with pytest.raises(NotSymplectic):
            change_basis(chi_positive, ((2, 0), (0, 1)))


sl2z_generators = [((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, -1), (1, 0))]


@st.composite
def sl2z_words(draw):
    word = draw(st.lists(st.sampled_from(sl2z_generators), max_size=8))
    A = ((1, 0), (0, 1))
    for g in word:
        A = mat2_mul(A, g)
    return A


@st.composite
def gaussian_characters(draw):
    coords = [
        draw(st.fractions(min_value=-9, max_value=9, max_denominator=12))
        for _ in range(4)
    ]
    if all(c == 0 for c in coords):
        coords[0] = Fraction(1)
    return PeriodCharacter.gaussian((coords[0], coords[1]), (coords[2], coords[3]))


class TestInvariance:
    @given(gaussian_characters(), sl2z_words())
    def test_volume_invariant(self, chi, A):
        assert volume(change_basis(chi, A)) == volume(chi)

    @given(gaussian_characters(), sl2z_words())
    def test_kind_invariant(self, chi, A):
        assert classify(change_basis(chi, A)).kind == classify(chi).kind

    @given(gaussian_characters(), st.integers(1, 12))
    def test_kind_invariant_under_positive_scaling(self, chi, k):
        scaled = PeriodCharacter(chi.field, chi.g1 * k, chi.g2 * k)
        assert classify(scaled).kind == classify(chi).kind


# ---------------------------------------------------------------------------
# characteristic triples


class TestTriples:
    def test_bound_one_contains_reference_triple(self, chi_negative):
        triples = enumerate_triples(chi_negative, 1)
        coords = [tuple((e.m, e.n) for e in t.elements()) for t in triples]
        # the triple with period values (1, -i, -1+i), in canonical rotation
        assert ((-1, -1), (1, 0), (0, 1)) in coords

    def test_reference_triple_values(self, chi_negative):
        target = {1 + 0j, -1j, -1 + 1j}
        found = False
        for t in enumerate_triples(chi_negative, 1):
            vals = {complex(chi_negative.lattice_value(e)) for e in t.elements()}
            if vals == target:
                found = True
                # hand oracle: Im(conj(u_i) u_{i+1}) = -1 for all pairs
                e = t.elements()
                for j in range(3):
                    a = chi_negative.lattice_value(e[j])
                    b = chi_negative.lattice_value(e[(j + 1) % 3])
                    assert (a.conjugate() * b).imag_fraction() == -1
        assert found

    def test_bound_zero_empty(self, chi_negative):
        assert enumerate_triples(chi_negative, 0) == []

    def test_positive_rejected(self, chi_positive):
        with pytest.raises(WrongLeafKind):
            enumerate_triples(chi_positive, 1)

    def test_triples_canonical_and_valid(self, chi_negative):
        vol = volume(chi_negative)
        triples = enumerate_triples(chi_negative, 2)
        assert triples == sorted(triples, key=CharacteristicTriple.sort_key)
        assert len(triples) == len(set(triples))
        for t in triples:
            e = t.elements()
            assert (e[0] + e[1] + e[2]).is_zero()
            for j in range(3):
                assert e[j].det(e[(j + 1) % 3]) == 1
                a = chi_negative.lattice_value(e[j])
                b = chi_negative.lattice_value(e[(j + 1) % 3])
                assert (a.conjugate() * b).imag_fraction() == vol
            # canonical rotation is lexicographically least
            rots = [t.rotated(j) for j in range(3)]
            keys = [tuple((x.m, x.n) for x in r) for r in rots]
            assert min(keys) == keys[0]

    def test_bound_growth(self, chi_negative):
        n1 = len(enumerate_triples(chi_negative, 1))
        n2 = len(enumerate_triples(chi_negative, 2))
        assert 0 < n1 < n2

    @pytest.mark.parametrize("bound", range(0, 11))
    def test_partner_enumeration_matches_pair_scan(self, chi_negative, bound):
        want = _pair_scan_triples(bound)
        assert coordinate_triples(bound) == want
        assert enumerate_triples(chi_negative, bound) == want


def _pair_scan_triples(bound):
    """Characteristic triples from every (a, b) pair of max-norm <= bound: O(B^4)."""
    out = set()
    rng = range(-bound, bound + 1)
    for m1 in rng:
        for n1 in rng:
            a = LatticeElement(m1, n1)
            if a.is_zero():
                continue
            for m2 in rng:
                for n2 in rng:
                    b = LatticeElement(m2, n2)
                    if a.det(b) != 1:
                        continue
                    c = -a - b
                    if c.max_norm() > bound:
                        continue
                    out.add(CharacteristicTriple.make(a, b, c))
    return sorted(out, key=CharacteristicTriple.sort_key)


# ---------------------------------------------------------------------------
# normalization


class TestNormalize:
    def test_positive_to_unit_square(self):
        chi = PeriodCharacter.gaussian((2, 1), (1, 3))  # volume 5
        norm = normalize(chi)
        assert norm.kind.is_positive
        assert complex(norm.character.g1) == 1
        assert complex(norm.character.g2) == 1j
        # the plane map sends g1 -> 1 and g2 -> i
        M = norm.matrix
        for g, target in ((chi.g1, (1, 0)), (chi.g2, (0, 1))):
            x = M[0][0] * g.a + M[0][1] * g.b
            y = M[1][0] * g.a + M[1][1] * g.b
            assert (x.a, y.a) == target
        # orientation-preserving
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        assert det.sign() > 0

    def test_negative_to_reflected_square(self):
        chi = PeriodCharacter.gaussian((0, 2), (1, 0))  # volume -2
        norm = normalize(chi)
        assert norm.kind.is_negative
        assert complex(norm.character.g2) == -1j
        M = norm.matrix
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        assert det.sign() > 0
        for g, target in ((chi.g1, (1, 0)), (chi.g2, (0, -1))):
            x = M[0][0] * g.a + M[0][1] * g.b
            y = M[1][0] * g.a + M[1][1] * g.b
            assert (x.a, y.a) == target

    def test_arithmetic_to_unit(self):
        chi = PeriodCharacter.rational(Fraction(3, 2), Fraction(5, 2))
        norm = normalize(chi)
        assert norm.kind.is_arithmetic
        assert norm.character.g1 == Q.one()
        assert norm.character.g2 == Q.zero()
        # generator of Z(3/2) + Z(5/2) = Z/2
        assert norm.kind.generator == Q.element(Fraction(1, 2))
        # scaled periods followed by the basis change give exactly (1, 0)
        a = norm.kind.generator
        p = int((chi.g1 / a).a)
        q = int((chi.g2 / a).a)
        A = norm.basis_change
        assert mat2_det(A) == 1
        new = (p * A[0][0] + q * A[1][0], p * A[0][1] + q * A[1][1])
        assert new == (1, 0)

    def test_nonarith_theta_in_unit_interval(self):
        chi = PeriodCharacter.quadratic(2, (3, 1), (0, 2))
        norm = normalize(chi)
        assert norm.kind.is_nonarithmetic
        theta = norm.character.g2
        assert theta.sign() > 0
        assert (1 - theta).sign() > 0
        assert norm.character.g1 == norm.character.field.one()
        assert mat2_det(norm.basis_change) == 1

    def test_nonarith_reference(self, chi_nonarith):
        norm = normalize(chi_nonarith)
        assert norm.character.g2 == Q2.element(-1, 1)


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    @pytest.mark.parametrize(
        "chi",
        [
            PeriodCharacter.gaussian((2, 1), (1, 3)),
            PeriodCharacter.rational(Fraction(3, 2), Fraction(-5, 7)),
            PeriodCharacter.quadratic(5, (1, 0), (Fraction(1, 2), Fraction(1, 2))),
        ],
    )
    def test_roundtrip(self, chi):
        data = chi.to_json_dict()
        back = PeriodCharacter.from_json_dict(data)
        assert back == chi

    def test_big_integers_survive(self):
        big = Fraction(10**40 + 1, 10**39)
        chi = PeriodCharacter.rational(big, 1)
        back = PeriodCharacter.from_json_dict(chi.to_json_dict())
        assert back.g1.a == big
