"""Surface shapes: membership half-planes, slit tori, hexagons, wall forms."""

from fractions import Fraction
from math import pi

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isoleaf.period_algebra import (
    CharacteristicTriple,
    GroundField,
    LatticeElement,
    PeriodCharacter,
    enumerate_triples,
)
from isoleaf.surface_kernel import (
    BadSideIndex,
    CoreType,
    CylinderSurface,
    ExactComplex,
    HexagonSurface,
    InvalidSurface,
    NotOnBoundary,
    ParallelogramWall,
    PinchedTorus,
    PointInH2m2,
    SlitDegenerateSurface,
    TorusSurface,
    WallCrossing,
    core_type,
    _im_conj_mult,
    cylinder_boundary_surface,
    cylinder_member_min,
    hexagon_boundary_surface,
    hexagon_from_rotation,
    to_exact_complex,
    volume_constraint_check,
)

QI = GroundField.gaussian()
Q = GroundField.rational()

CHI_POS = PeriodCharacter.gaussian((1, 0), (0, 1))
CHI_NEG = PeriodCharacter.gaussian((1, 0), (0, -1))
CHI_ARITH = PeriodCharacter.rational(1, 0)


def gz(a, b=0):
    """Exact plane point from Gaussian-rational parts."""
    return to_exact_complex(QI.element(a, b))


# the reference triple with period values (1, -i, -1+i) on chi = (1, -i)
REF_ROT = (LatticeElement(1, 0), LatticeElement(0, 1), LatticeElement(-1, -1))
REF_TRIPLE = CharacteristicTriple.make(*REF_ROT)


# ---------------------------------------------------------------------------
# core types and volume constraints


class TestCoreType:
    def test_torus(self):
        surf = TorusSurface(CHI_POS, gz(Fraction(1, 2)))
        assert core_type(surf) is CoreType.TorusType

    def test_cylinder(self):
        surf = CylinderSurface(
            CHI_POS, LatticeElement(1, 0), LatticeElement(0, 1), gz(0, -1)
        )
        assert core_type(surf) is CoreType.CylinderType

    def test_hexagon_degenerate(self):
        surf = hexagon_from_rotation(
            CHI_NEG, REF_ROT, gz(Fraction(1, 5), Fraction(1, 5))
        )
        assert core_type(surf) is CoreType.DegenerateType

    def test_slit_degenerate(self):
        surf = SlitDegenerateSurface.from_rationals(1, 1, 1)
        assert core_type(surf) is CoreType.DegenerateType

    def test_unknown_rejected(self):
        with pytest.raises(InvalidSurface):
            core_type("not a surface")


class TestVolumeConstraint:
    def test_torus_needs_positive_volume(self):
        surf = TorusSurface(CHI_POS, gz(Fraction(1, 2)))
        assert volume_constraint_check(surf, CHI_POS)

    def test_torus_rejected_on_negative(self):
        surf = TorusSurface(CHI_NEG, gz(Fraction(1, 2)))
        assert not volume_constraint_check(surf, CHI_NEG)

    def test_slit_form_on_arithmetic(self):
        surf = SlitDegenerateSurface.from_rationals(1, 2, 3)
        assert volume_constraint_check(surf, CHI_ARITH)

    def test_hexagon_needs_negative(self):
        surf = hexagon_from_rotation(
            CHI_NEG, REF_ROT, gz(Fraction(1, 5), Fraction(1, 5))
        )
        assert volume_constraint_check(surf, CHI_NEG)
        assert not volume_constraint_check(surf, CHI_POS)

    def test_cylinder_everywhere(self):
        surf = CylinderSurface(
            CHI_POS, LatticeElement(1, 0), LatticeElement(0, 1), gz(0, -1)
        )
        for chi in (CHI_POS, CHI_NEG, CHI_ARITH):
            assert volume_constraint_check(surf, chi)


# ---------------------------------------------------------------------------
# cylinder membership


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def cylinder_member_pair(chi, u, v, z):
    """Membership as two inequalities: both Im(conj(u) z) and Im(conj(u)(z - v)) negative."""
    uval = to_exact_complex(chi.lattice_value(u))
    vval = to_exact_complex(chi.lattice_value(v))
    return _im_conj_mult(uval, z).sign() < 0 and _im_conj_mult(uval, z - vval).sign() < 0


def cylinder_member_areas(chi, u, v, z):
    """Membership as positivity of the two parallelogram areas over the core."""
    uval = to_exact_complex(chi.lattice_value(u))
    vval = to_exact_complex(chi.lattice_value(v))
    area_p = -_im_conj_mult(uval, z)
    area_q = -_im_conj_mult(uval, z - vval)
    return area_p.sign() > 0 and area_q.sign() > 0


class TestCylinderMembership:
    @given(small_fractions, small_fractions)
    def test_three_formulations_agree_positive(self, x, y):
        u, v = LatticeElement(1, 0), LatticeElement(0, 1)
        z = gz(x, y)
        a = cylinder_member_min(CHI_POS, u, z)
        b = cylinder_member_pair(CHI_POS, u, v, z)
        c = cylinder_member_areas(CHI_POS, u, v, z)
        assert a == b == c

    @given(small_fractions, small_fractions)
    def test_three_formulations_agree_negative(self, x, y):
        u, v = LatticeElement(1, 1), LatticeElement(0, 1)
        z = gz(x, y)
        a = cylinder_member_min(CHI_NEG, u, z)
        b = cylinder_member_pair(CHI_NEG, u, v, z)
        c = cylinder_member_areas(CHI_NEG, u, v, z)
        assert a == b == c

    def test_invalid_z_rejected(self):
        with pytest.raises(InvalidSurface):
            CylinderSurface(CHI_POS, LatticeElement(1, 0), LatticeElement(0, 1), gz(0, 1))

    def test_boundary_z_rejected(self):
        # Im(conj(u) z) = 0 exactly: on the wall, not in the chamber
        with pytest.raises(InvalidSurface):
            CylinderSurface(
                CHI_POS, LatticeElement(1, 0), LatticeElement(0, 1), gz(Fraction(1, 2), 0)
            )

    def test_imprimitive_core_rejected(self):
        with pytest.raises(InvalidSurface):
            CylinderSurface(CHI_POS, LatticeElement(2, 2), LatticeElement(0, 1), gz(0, -1))

    def test_non_basis_rejected(self):
        with pytest.raises(InvalidSurface):
            CylinderSurface(CHI_POS, LatticeElement(1, 0), LatticeElement(0, -1), gz(0, -1))

    def test_negative_leaf_strip(self):
        # on the negative leaf the chamber lies strictly below Im = Vol
        u, v = LatticeElement(1, 0), LatticeElement(0, 1)
        CylinderSurface(CHI_NEG, u, v, gz(0, -2))
        with pytest.raises(InvalidSurface):
            CylinderSurface(CHI_NEG, u, v, gz(0, Fraction(-1, 2)))


# ---------------------------------------------------------------------------
# slit tori


class TestTorusSurface:
    def test_reference_valid(self):
        TorusSurface(CHI_POS, gz(Fraction(1, 2)))

    def test_completion_point_rejected(self):
        with pytest.raises(InvalidSurface):
            TorusSurface(CHI_POS, gz(0))

    @pytest.mark.parametrize(
        "alpha",
        [
            (Fraction(3, 2), 0),  # 1.5 * (1, 0)
            (1, 2),  # exactly the tip of the (1, 2) slit
            (2, 4),  # 2 * (1, 2)
            (0, -3),  # 3 * (0, -1)
            (Fraction(-5, 4), Fraction(-5, 4)),  # 1.25 * (-1, -1)
        ],
    )
    def test_wrapping_slits_rejected(self, alpha):
        with pytest.raises(InvalidSurface):
            TorusSurface(CHI_POS, gz(*alpha))

    @pytest.mark.parametrize(
        "alpha",
        [
            (Fraction(1, 2), 0),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(-3, 4), Fraction(1, 4)),
            (Fraction(99, 100), 0),
        ],
    )
    def test_short_slits_valid(self, alpha):
        TorusSurface(CHI_POS, gz(*alpha))

    def test_slit_scale_decomposition(self):
        surf = TorusSurface(CHI_POS, gz(Fraction(1, 2), Fraction(1, 2)))
        s, gamma = surf.slit_scale()
        assert (gamma.m, gamma.n) == (1, 1)
        assert s == Q.element(Fraction(1, 2))


# ---------------------------------------------------------------------------
# hexagons


def valid_hexagon_points():
    """Random chart points (x, y) with x, y > 0 and x + y < 1."""
    return st.tuples(
        st.fractions(min_value=Fraction(1, 64), max_value=Fraction(9, 10), max_denominator=64),
        st.fractions(min_value=Fraction(1, 64), max_value=Fraction(9, 10), max_denominator=64),
    ).filter(lambda xy: xy[0] + xy[1] < 1)


class TestHexagonSurface:
    def test_chart_triangle_is_unit_triangle(self):
        # in the chart anchored at the value-1 slot, the region is
        # {x > 0, y > 0, x + y < 1}: check the three corners are excluded
        # and an interior point is accepted
        hexagon_from_rotation(CHI_NEG, REF_ROT, gz(Fraction(1, 5), Fraction(1, 5)))
        for bad in [(0, Fraction(1, 2))], [(Fraction(1, 2), 0)], [(Fraction(1, 2), Fraction(1, 2))]:
            with pytest.raises(InvalidSurface):
                hexagon_from_rotation(CHI_NEG, REF_ROT, gz(*bad[0]))

    @given(valid_hexagon_points())
    def test_halfplane_oracle(self, xy):
        x, y = xy
        surf = hexagon_from_rotation(CHI_NEG, REF_ROT, gz(x, y))
        assert core_type(surf) is CoreType.DegenerateType

    @given(valid_hexagon_points())
    def test_black_triangle_area_exact(self, xy):
        surf = hexagon_from_rotation(CHI_NEG, REF_ROT, gz(*xy))
        assert surf.black_triangle_area() == -CHI_NEG.volume() / 2

    @given(valid_hexagon_points())
    def test_corner_angle_accounting(self, xy):
        surf = hexagon_from_rotation(CHI_NEG, REF_ROT, gz(*xy))
        angles = surf.surface_corner_angles()
        for a in angles.values():
            assert pi - 1e-9 <= a <= 2 * pi + 1e-9
        b_sum = sum(angles[k] for k in ("B1", "B2", "B3"))
        w_sum = sum(angles[k] for k in ("W1", "W2", "W3"))
        assert b_sum == pytest.approx(4 * pi, abs=1e-9)
        assert w_sum == pytest.approx(4 * pi, abs=1e-9)

    def test_area_on_other_triples(self):
        for triple in enumerate_triples(CHI_NEG, 2)[:6]:
            a, b, _ = triple.elements()
            va = to_exact_complex(CHI_NEG.lattice_value(a))
            vb = to_exact_complex(CHI_NEG.lattice_value(b))
            # a point safely inside: (va - vb) / 4 satisfies all three
            # inequalities for this family (checked by construction below)
            z = (va - vb) * Fraction(1, 4)
            try:
                surf = HexagonSurface(CHI_NEG, triple, z)
            except InvalidSurface:
                continue
            assert surf.black_triangle_area() == Fraction(1, 2)

    def test_edge_identifications_close_up(self):
        surf = hexagon_from_rotation(CHI_NEG, REF_ROT, gz(Fraction(1, 5), Fraction(1, 5)))
        c = surf.corners()
        for (edge_a, edge_b), shift in surf.edge_identifications():
            # the identification translates the first edge onto the second
            pa, pb = c[edge_a[:2]], c[edge_a[2:]]
            qa, qb = c[edge_b[:2]], c[edge_b[2:]]
            assert pa + shift == qa
            assert pb + shift == qb


# ---------------------------------------------------------------------------
# slit degenerate surfaces


class TestSlitDegenerateSurface:
    def test_positive_lengths_required(self):
        with pytest.raises(InvalidSurface):
            SlitDegenerateSurface.from_rationals(1, 0, 1)
        with pytest.raises(InvalidSurface):
            SlitDegenerateSurface.from_rationals(1, -1, 1)

    def test_equality_is_componentwise(self):
        a = SlitDegenerateSurface.from_rationals(1, 2, 3)
        b = SlitDegenerateSurface.from_rationals(1, 2, 3)
        c = SlitDegenerateSurface.from_rationals(3, 2, 1)
        assert a == b
        assert a != c

    def test_marking_swap_involution(self):
        a = SlitDegenerateSurface.from_rationals(1, 2, 3)
        assert a.swap_marking() != a
        assert a.swap_marking().swap_marking() == a

    @given(
        st.fractions(min_value=Fraction(1, 8), max_value=5, max_denominator=16),
        st.fractions(min_value=Fraction(1, 8), max_value=5, max_denominator=16),
        st.fractions(min_value=Fraction(1, 8), max_value=5, max_denominator=16),
    )
    def test_total_length(self, a, b, c):
        surf = SlitDegenerateSurface.from_rationals(a, b, c)
        assert surf.total_length() == Q.element(a + b + c)


# ---------------------------------------------------------------------------
# cylinder boundary degeneration (arithmetic walls)


class TestCylinderBoundary:
    def test_reference_values(self):
        assert cylinder_boundary_surface(1, 0, 1, Fraction(3, 2)) == (
            SlitDegenerateSurface.from_rationals(
                Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), b_at_left=True
            )
        )
        assert cylinder_boundary_surface(2, 1, 1, Fraction(-1, 2)) == (
            SlitDegenerateSurface.from_rationals(
                Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), b_at_left=False
            )
        )

    def test_center_is_pinched_torus(self):
        assert isinstance(cylinder_boundary_surface(1, 0, 1, 0), PinchedTorus)
        assert isinstance(cylinder_boundary_surface(1, 0, -1, 0), PinchedTorus)

    def test_other_segment_points_leave_stratum(self):
        assert isinstance(cylinder_boundary_surface(2, 1, 1, 0), PointInH2m2)
        assert isinstance(cylinder_boundary_surface(2, 1, 1, 1), PointInH2m2)
        assert isinstance(cylinder_boundary_surface(2, 1, 1, 3), PointInH2m2)
        assert isinstance(cylinder_boundary_surface(1, 0, 1, -2), PointInH2m2)
        assert isinstance(cylinder_boundary_surface(3, 2, 1, Fraction(5)), PointInH2m2)

    def test_l_zero_family(self):
        # S(t, 1-t, n+t) on segment (n, n+1)
        got = cylinder_boundary_surface(1, 0, 1, Fraction(7, 3))
        want = SlitDegenerateSurface.from_rationals(
            Fraction(1, 3), Fraction(2, 3), Fraction(7, 3)
        )
        assert got == want

    @given(
        st.integers(1, 8),
        st.integers(0, 7),
        st.fractions(min_value=-12, max_value=12, max_denominator=32),
    )
    def test_marking_involution(self, k, l, t):
        from math import gcd

        if not (l < k and gcd(k, l) == 1):
            return
        plus = cylinder_boundary_surface(k, l, 1, -t)
        minus = cylinder_boundary_surface(k, l, -1, t)
        if isinstance(plus, SlitDegenerateSurface):
            assert minus == plus.swap_marking()
        else:
            assert type(minus) is type(plus)

    @given(
        st.integers(1, 8),
        st.integers(0, 7),
        st.fractions(min_value=-12, max_value=12, max_denominator=32),
    )
    def test_lengths_positive_and_sum_consistent(self, k, l, t):
        from math import gcd

        if not (l < k and gcd(k, l) == 1):
            return
        surf = cylinder_boundary_surface(k, l, 1, t)
        if not isinstance(surf, SlitDegenerateSurface):
            return
        l1, l2, l3 = surf.lengths()
        assert l1.sign() > 0 and l2.sign() > 0 and l3.sign() > 0
        # the middle segment keeps the wall inside one segmentation gap:
        # l1 + l2 = k on the far families, l1 + l2 = k - ... : check the
        # slit total only through the reconstruction l3 = |t| on three of
        # the four families and l1 + l2 + l3 bounded by |t| + k
        assert float(l1 + l2 + l3) <= abs(float(t)) + k + 1e-9

    def test_rejects_bad_indices(self):
        with pytest.raises(InvalidSurface):
            cylinder_boundary_surface(4, 2, 1, Fraction(1, 2))
        with pytest.raises(InvalidSurface):
            cylinder_boundary_surface(2, -1, 1, Fraction(1, 2))
        with pytest.raises(InvalidSurface):
            cylinder_boundary_surface(2, 1, 0, Fraction(1, 2))

    def test_rejects_non_real(self):
        with pytest.raises(NotOnBoundary):
            cylinder_boundary_surface(1, 0, 1, QI.element(0, 1))
        with pytest.raises(NotOnBoundary):
            cylinder_boundary_surface(1, 0, 1, 0.5)


# ---------------------------------------------------------------------------
# hexagon boundary walls


class TestHexagonBoundary:
    def test_side_borders_matching_cylinder(self):
        # side i borders the cylinder chamber of core class u_i, at the
        # boundary point u_{i+1} + s u_i
        for i in range(1, 4):
            wc = hexagon_boundary_surface(CHI_NEG, REF_TRIPLE, i, Fraction(1, 2))
            assert isinstance(wc, WallCrossing)
            a, b, _ = REF_TRIPLE.rotated(i - 1)
            assert wc.neighbor == a
            expect = to_exact_complex(CHI_NEG.lattice_value(b)) + Fraction(1, 2) * to_exact_complex(
                CHI_NEG.lattice_value(a)
            )
            assert wc.neighbor_z == expect

    def test_reference_values_named_sides(self):
        # labeling the triple by values (1, -i, -1+i): the side holding
        # value 1 borders CC_1, value -i borders CC_{-i}, etc.
        values = {
            complex(CHI_NEG.lattice_value(e)): j
            for j, e in enumerate(REF_TRIPLE.elements(), start=1)
        }
        for value, j in values.items():
            wc = hexagon_boundary_surface(CHI_NEG, REF_TRIPLE, j, Fraction(1, 3))
            assert complex(CHI_NEG.lattice_value(wc.neighbor)) == value

    def test_neighbor_z_on_boundary_line(self):
        for i in range(1, 4):
            wc = hexagon_boundary_surface(CHI_NEG, REF_TRIPLE, i, Fraction(2, 7))
            uval = to_exact_complex(CHI_NEG.lattice_value(wc.neighbor))
            im = uval.re * wc.neighbor_z.im - uval.im * wc.neighbor_z.re
            assert im == Q.element(CHI_NEG.volume())

    def test_wall_is_parallelogram_with_marked_points(self):
        wc = hexagon_boundary_surface(CHI_NEG, REF_TRIPLE, 1, Fraction(1, 2))
        w = wc.wall
        assert isinstance(w, ParallelogramWall)
        c0, c1, c2, c3 = w.corners
        # opposite sides parallel and equal
        assert c1 - c0 == c2 - c3
        assert c3 - c0 == c2 - c1
        letters = {w.marked_bottom[0], w.marked_top[0]}
        assert letters == {"B", "W"}

    def test_endpoints_leave_stratum(self):
        assert isinstance(
            hexagon_boundary_surface(CHI_NEG, REF_TRIPLE, 1, 0), PointInH2m2
        )
        assert isinstance(
            hexagon_boundary_surface(CHI_NEG, REF_TRIPLE, 2, 1), PointInH2m2
        )

    def test_bad_side_index(self):
        with pytest.raises(BadSideIndex):
            hexagon_boundary_surface(CHI_NEG, REF_TRIPLE, 0, Fraction(1, 2))
        with pytest.raises(BadSideIndex):
            hexagon_boundary_surface(CHI_NEG, REF_TRIPLE, 4, Fraction(1, 2))
