"""Tests for the leaf atlas builders, gluing rules, stars and wall tree."""

import copy
import dataclasses
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoleaf.leaf_atlas import (
    Atlas,
    BadSegment,
    CylArithChamber,
    CylChamber,
    DegChamber,
    Gluing,
    NonIntegralStar,
    NotAVertex,
    NotInterior,
    NonQuadraticTheta,
    RationalTheta,
    TorusChamber,
    adjacency_graph,
    arithmetic_reachability,
    atlas_from_json_dict,
    atlas_to_json_dict,
    build_arithmetic,
    build_negative,
    build_nonarith,
    build_positive,
    check_atlas,
    connectivity_check,
    glue_target,
    primitive_elements,
    singularity_star,
    total_half_turns,
    wall_surface_match,
    wall_tree,
)
from isoleaf import leaf_atlas
from isoleaf.leaf_atlas import Sector, _Unglued, _iota_image, _partner_offset, _walk_star
from isoleaf.period_algebra import (
    CharacteristicTriple,
    GroundField,
    IsoleafError,
    LatticeElement,
    PeriodCharacter,
    WrongLeafKind,
    pm_representative,
    symplectic_partner,
)
from isoleaf.surface_kernel import SlitDegenerateSurface, cylinder_boundary_surface


def lat(m, n):
    return LatticeElement(m, n)


def _cyclic_variants(seq):
    seq = list(seq)
    out = []
    for s in (seq, seq[::-1]):
        for i in range(len(s)):
            out.append(tuple(s[i:] + s[:i]))
    return out


# ---------------------------------------------------------------------------
# sector angle accounting


class TestTotalHalfTurns:
    def field(self):
        return GroundField.gaussian()

    def g(self, a, b):
        return self.field().element(a, b)

    def test_pure_half_turns(self):
        sectors = [Sector(None, ("x",), half_turns=h) for h in (2, 1, 2, 1)]
        assert total_half_turns(sectors) == 6

    def test_four_right_angles(self):
        i = self.g(0, 1)
        sectors = [Sector(None, ("x",), ratio=i) for _ in range(4)]
        assert total_half_turns(sectors) == 2

    def test_two_ratio_sectors_straight(self):
        # pi/4 + 3pi/4: product is a negative real number
        sectors = [
            Sector(None, ("x",), ratio=self.g(1, 1)),
            Sector(None, ("x",), ratio=self.g(-1, 1)),
        ]
        assert total_half_turns(sectors) == 1

    def test_mixed(self):
        i = self.g(0, 1)
        sectors = [
            Sector(None, ("x",), half_turns=1),
            Sector(None, ("x",), ratio=i),
            Sector(None, ("x",), ratio=i),
            Sector(None, ("x",), half_turns=3),
        ]
        # pi + (pi/2 + pi/2) + 3 pi
        assert total_half_turns(sectors) == 5

    def test_non_real_product_rejected(self):
        with pytest.raises(NonIntegralStar):
            total_half_turns([Sector(None, ("x",), ratio=self.g(1, 1))])

    def test_nonpositive_imaginary_ratio_rejected(self):
        with pytest.raises(NonIntegralStar):
            total_half_turns([Sector(None, ("x",), ratio=self.g(1, -1))])

    def test_many_wraps(self):
        # twelve pi/3-like sectors: ratio 1 + i*sqrt(3) is not exact here,
        # use right angles: eight of them wrap twice around
        i = self.g(0, 1)
        sectors = [Sector(None, ("x",), ratio=i) for _ in range(8)]
        assert total_half_turns(sectors) == 4


# ---------------------------------------------------------------------------
# arithmetic leaves


class TestArithmeticAtlas:
    def test_chamber_census_kmax3(self):
        atlas = build_arithmetic(3)
        pairs = sorted({(c.k, c.l) for c in atlas.chambers})
        assert pairs == [(1, 0), (2, 1), (3, 1), (3, 2)]
        assert len(atlas.chambers) == 8

    def test_phi_census(self):
        atlas = build_arithmetic(12)
        from sympy import totient

        for k in range(1, 13):
            for sign in (+1, -1):
                count = sum(
                    1 for c in atlas.chambers if c.k == k and c.sign == sign
                )
                assert count == int(totient(k))

    def test_center_chambers_glued_along_core_interval(self):
        atlas = build_arithmetic(3)
        found = {}
        for g in atlas.gluings:
            a, b = g.seg_a.chamber, g.seg_b.chamber
            if (a.k, a.l, a.sign) == (1, 0, 1) and (b.k, b.l, b.sign) == (1, 0, -1):
                found[(g.seg_a.lo.a, g.seg_a.hi.a)] = (
                    g.seg_b.lo.a,
                    g.seg_b.hi.a,
                    g.sigma,
                    g.c.a,
                )
        # the (1,0) chambers share the interval (-1,1), identity on each half
        assert found[(Fraction(-1), Fraction(0))] == (
            Fraction(-1),
            Fraction(0),
            1,
            Fraction(0),
        )
        assert found[(Fraction(0), Fraction(1))] == (
            Fraction(0),
            Fraction(1),
            1,
            Fraction(0),
        )

    def test_center_star(self):
        atlas = build_arithmetic(2)
        assert atlas.center is not None
        assert atlas.center.total == 2
        assert atlas.center.tag == "pinched_torus"
        assert len(atlas.center.sectors) == 2
        star = singularity_star(atlas, (CylArithChamber(1, 0, +1), 0))
        assert star.total == 2 and star.tag == "pinched_torus"

    def test_reference_star_walk(self):
        atlas = build_arithmetic(3)
        star = singularity_star(atlas, (CylArithChamber(2, 1, +1), 0))
        assert star.total == 6
        walked = tuple(
            (s.chamber.k, s.chamber.l, s.chamber.sign, Fraction(s.vertex[1][0]))
            for s in star.sectors
        )
        expected = (
            (2, 1, 1, Fraction(0)),
            (1, 0, -1, Fraction(1)),
            (1, 0, 1, Fraction(1)),
            (2, 1, -1, Fraction(0)),
            (1, 0, 1, Fraction(-1)),
            (1, 0, -1, Fraction(-1)),
        )
        assert walked in _cyclic_variants(expected)

    def test_all_stars_six_pi(self):
        atlas = build_arithmetic(6)
        assert atlas.singularities, "expected complete singular stars"
        for s in atlas.singularities:
            assert s.total == 6
            assert len(s.sectors) == 6

    def test_invariant_suite(self):
        report = check_atlas(build_arithmetic(6))
        assert report.passed, report.failures

    def test_connected(self):
        connected, tree = connectivity_check(build_arithmetic(8))
        assert connected
        atlas_size = len(build_arithmetic(8).chambers)
        assert len(tree) == atlas_size - 1

    def test_truncation_rays_per_chamber(self):
        atlas = build_arithmetic(4)
        per_chamber = {}
        for seg in atlas.truncated:
            per_chamber.setdefault(seg.chamber, []).append(seg)
        assert set(per_chamber) == set(atlas.chambers)
        for segs in per_chamber.values():
            assert len(segs) == 2
            assert any(s.lo is None for s in segs)
            assert any(s.hi is None for s in segs)

    def test_not_a_vertex(self):
        atlas = build_arithmetic(3)
        with pytest.raises(NotAVertex):
            singularity_star(atlas, (CylArithChamber(2, 1, +1), Fraction(1, 2)))


class TestGlueTarget:
    def test_family_four_reference(self):
        assert glue_target(2, 1, +1, (1, 3)) == (
            3,
            1,
            -1,
            (Fraction(0), Fraction(2)),
            (1, Fraction(-1)),
        )

    def test_family_one_reference(self):
        # the wall at the first segment left of the puncture
        assert glue_target(2, 1, +1, (-1, 0)) == (
            1,
            0,
            -1,
            (Fraction(-2), Fraction(-1)),
            (1, Fraction(-1)),
        )

    def test_family_one_identity(self):
        assert glue_target(1, 0, +1, (-1, 0)) == (
            1,
            0,
            -1,
            (Fraction(-1), Fraction(0)),
            (1, Fraction(0)),
        )

    def test_family_three(self):
        # (3,2,+) on (0,2): target l, (n'+1)l - k with n' = ceil(3/2)-1 = 1
        assert glue_target(3, 2, +1, (0, 2)) == (
            2,
            1,
            -1,
            (Fraction(1), Fraction(3)),
            (1, Fraction(1)),
        )

    def test_family_two(self):
        # (2,1,+) on (-3,-1): n=1, target ((n+1)k-l, k) = (3,2)
        assert glue_target(2, 1, +1, (-3, -1)) == (
            3,
            2,
            -1,
            (Fraction(-2), Fraction(0)),
            (1, Fraction(1)),
        )

    def test_bad_segments(self):
        with pytest.raises(BadSegment):
            glue_target(2, 1, +1, (0, 2))  # crosses the point l=1
        with pytest.raises(BadSegment):
            glue_target(2, 1, +1, (Fraction(1, 2), 1))
        with pytest.raises(BadSegment):
            glue_target(3, 1, +1, (0, 2))  # hi is not the next point (it is 1)

    @given(
        kl=st.sampled_from(
            [(k, l) for k in range(1, 11) for l in range(k) if gcd(k, l) == 1]
        ),
        idx=st.integers(min_value=-4, max_value=4),
        minus_side=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_and_surface_match(self, kl, idx, minus_side):
        k, l = kl
        # canonical segment number idx counted from the puncture
        pts = sorted(
            {Fraction(n * k + l) for n in range(-7, 8)} | {Fraction(0)}
        )
        zero_at = pts.index(Fraction(0))
        lo, hi = pts[zero_at + idx], pts[zero_at + idx + 1]
        if minus_side:
            src = (k, l, -1)
            lo, hi = -hi, -lo
        else:
            src = (k, l, +1)
        k2, l2, s2, (lo2, hi2), (sigma, c) = glue_target(*src, (lo, hi))
        # exact isometry between the segments
        assert sigma == 1
        assert lo2 == lo + c and hi2 == hi + c
        assert gcd(k2, l2) == 1 and 0 <= l2 < k2 and s2 == -src[2]
        # going back from the target segment recovers the source
        back = glue_target(k2, l2, s2, (lo2, hi2))
        assert back == (src[0], src[1], src[2], (lo, hi), (1, -c))
        # the degenerating surfaces agree at the midpoint
        mid = (lo + hi) / 2
        sa = cylinder_boundary_surface(src[0], src[1], src[2], mid)
        sb = cylinder_boundary_surface(k2, l2, s2, mid + c)
        assert isinstance(sa, SlitDegenerateSurface)
        assert sa == sb


class TestWallTree:
    def test_kmax2_shape(self):
        tree = wall_tree(build_arithmetic(2))
        assert tree.root == ("center",)
        assert len(tree.branches) == 2
        assert len(tree.quotient_edges) == 3
        for b in tree.branches:
            assert b.length == 1
            assert not b.truncated
            assert len(b.children) == 2
            for c in b.children:
                assert c.truncated and not c.children

    def test_kmax3_acyclic_and_branching(self):
        tree = wall_tree(build_arithmetic(3))
        assert len(tree.branches) == 2

        seen = []

        def visit(node):
            seen.append(id(node))
            # interior vertices branch in two; truncated ends do not branch
            if node.truncated:
                assert node.children == []
            else:
                assert len(node.children) in (0, 2)
            for c in node.children:
                visit(c)

        for b in tree.branches:
            visit(b)
        assert len(seen) == len(set(seen))  # a tree: no shared nodes

    def test_edge_lengths_are_segment_lengths(self):
        tree = wall_tree(build_arithmetic(3))

        def visit(node):
            assert node.length == node.record.seg_a.hi.a - node.record.seg_a.lo.a
            assert node.length >= 1
            for c in node.children:
                visit(c)

        for b in tree.branches:
            visit(b)

    @pytest.mark.parametrize("kmax", range(1, 22))
    def test_matches_star_walk_oracle(self, kmax):
        atlas = build_arithmetic(kmax)
        tree = wall_tree(atlas)
        branches, quotient = _oracle_wall_tree(atlas)
        assert tree.quotient_edges == quotient
        for got, want in zip(tree.branches, branches, strict=True):
            _assert_same_node(got, want)

    def test_loaded_atlas_gives_the_same_tree(self):
        atlas = build_arithmetic(8)
        again = atlas_from_json_dict(json.loads(json.dumps(atlas_to_json_dict(atlas))))
        branches, quotient = _oracle_wall_tree(atlas)
        tree = wall_tree(again)
        assert tree.quotient_edges == quotient
        for got, want in zip(tree.branches, branches, strict=True):
            _assert_same_node(got, want)


def _oracle_orbit_key(g):
    variants = [g, g.reverse(), _iota_image(g), _iota_image(g).reverse()]
    return min(v.key() for v in variants)


@pytest.mark.parametrize("kmax", range(1, 13))
def test_derived_orbit_key_is_the_least_of_four_gluing_keys(kmax):
    atlas = build_arithmetic(kmax)
    again = atlas_from_json_dict(json.loads(json.dumps(atlas_to_json_dict(atlas))))
    for a in (atlas, again):
        for g in a.gluings:
            assert leaf_atlas._orbit_key(g, g.key()) == _oracle_orbit_key(g)


def _oracle_endpoint(atlas, g, which):
    # a fresh star walk from the wall's endpoint germ
    seg = g.seg_a
    v = seg.lo if which == "lo" else seg.hi
    if seg.chamber.k == 1 and v.is_zero():
        return ("center",), False
    germ = (seg.chamber, seg.part, v, +1 if which == "lo" else -1)
    try:
        return _walk_star(atlas, germ).ident, False
    except _Unglued:
        return None, True


def _oracle_wall_tree(atlas):
    """Branches and quotient of the wall tree, walking every endpoint star."""
    walls = {g.seg_a.key(): g for g in atlas.gluings if g.seg_a.chamber.sign == +1}
    walls = list(walls.values())
    by_vertex, ends = {}, {}
    for g in walls:
        ends[g.seg_a.key()] = [_oracle_endpoint(atlas, g, w) for w in ("lo", "hi")]
        for ident, _ in ends[g.seg_a.key()]:
            if ident is not None:
                by_vertex.setdefault(ident, []).append(g)

    def grow(g, came_from, depth):
        (id_lo, tr_lo), (id_hi, tr_hi) = ends[g.seg_a.key()]
        if id_lo == came_from and id_hi != came_from:
            far, trunc = id_hi, tr_hi
        else:
            far, trunc = id_lo, tr_lo
        node = (g, g.seg_a.hi.a - g.seg_a.lo.a, far, trunc, [])
        if trunc or far is None or far == ("center",) or depth <= 0:
            return node
        orbits = {}
        for h in by_vertex.get(far, []):
            orbits.setdefault(_oracle_orbit_key(h), []).append(h)
        for key in sorted(orbits):
            if key != _oracle_orbit_key(g):
                rep = min(orbits[key], key=lambda h: h.key())
                node[4].append(grow(rep, far, depth - 1))
        return node

    roots = [g for g in walls if ("center",) in [e[0] for e in ends[g.seg_a.key()]]]
    roots.sort(key=lambda g: g.key())
    branches = [grow(g, ("center",), 4 * atlas.bound + 8) for g in roots]
    return branches, sorted({_oracle_orbit_key(g) for g in walls})


def _assert_same_node(got, want):
    record, length, far, truncated, children = want
    assert got.record.key() == record.key()
    assert got.length == length
    assert got.far_vertex == far
    assert got.truncated == truncated
    for c_got, c_want in zip(got.children, children, strict=True):
        _assert_same_node(c_got, c_want)


class TestReachability:
    def test_chains_to_root(self):
        chains = arithmetic_reachability(12)
        from sympy import totient

        assert len(chains) == sum(int(totient(k)) for k in range(1, 13))
        for (k, l), chain in chains.items():
            assert chain[0] == (k, l)
            assert chain[-1] == (1, 0)
            ks = [p[0] for p in chain]
            assert ks == sorted(ks, reverse=True)
            assert len(set(chain)) == len(chain)

    def test_euclidean_descent_example(self):
        chains = arithmetic_reachability(8)
        assert chains[(8, 5)] == [(8, 5), (5, 2), (2, 1), (1, 0)]
        assert chains[(7, 3)] == [(7, 3), (3, 2), (2, 1), (1, 0)]


class TestWallSurfaceMatch:
    def test_interior_samples_match(self):
        atlas = build_arithmetic(4)
        checked = 0
        for g in atlas.gluings:
            if g.seg_a.chamber.sign != +1:
                continue
            lo, hi = g.seg_a.lo.a, g.seg_a.hi.a
            for j in (1, 2, 3):
                t = lo + (hi - lo) * Fraction(j, 4)
                assert wall_surface_match(atlas, g, t)
                checked += 1
        assert checked > 30

    def test_endpoint_rejected(self):
        atlas = build_arithmetic(2)
        g = next(g for g in atlas.gluings if g.seg_a.chamber.sign == +1)
        with pytest.raises(NotInterior):
            wall_surface_match(atlas, g, g.seg_a.lo.a)


# ---------------------------------------------------------------------------
# positive leaves


class TestPositiveAtlas:
    def test_chamber_census_bound1(self):
        atlas = build_positive(1)
        cyls = [c for c in atlas.chambers if isinstance(c, CylChamber)]
        assert len(cyls) == 8
        assert sum(1 for c in atlas.chambers if isinstance(c, TorusChamber)) == 1

    def test_singularities_bound1(self):
        atlas = build_positive(1)
        assert len(atlas.singularities) == 4
        for s in atlas.singularities:
            assert s.total == 6
            pattern = tuple(
                x.half_turns for x in s.sectors
            )
            assert pattern in _cyclic_variants((2, 1, 2, 1))

    def test_star_passes_through_both_tips(self):
        atlas = build_positive(2)
        gamma = lat(1, 2)
        star = singularity_star(atlas, (TorusChamber(), (gamma, 1)))
        tips = [s.vertex[1] for s in star.sectors if isinstance(s.chamber, TorusChamber)]
        assert sorted(tips) == sorted([(1, 2), (-1, -2)])
        cyl_us = {
            (s.chamber.u.m, s.chamber.u.n)
            for s in star.sectors
            if isinstance(s.chamber, CylChamber)
        }
        assert cyl_us == {(1, 2), (-1, -2)}

    def test_one_star_per_antipodal_pair(self):
        atlas = build_positive(2)
        reps = {pm_representative(u) for u in primitive_elements(2)}
        assert len(atlas.singularities) == len(reps)
        idents = {s.ident for s in atlas.singularities}
        assert idents == {("pos", (u.m, u.n)) for u in reps}

    def test_negation_symmetry_of_gluings(self):
        atlas = build_positive(2)
        keys = {g.key() for g in atlas.gluings}
        for g in atlas.gluings:
            seg_a, seg_b = g.seg_a, g.seg_b

            def negate_part(part):
                out = []
                for x in part:
                    out.append(-x if isinstance(x, LatticeElement) else x)
                return tuple(out)

            from isoleaf.leaf_atlas import BoundarySegment

            na = BoundarySegment(
                TorusChamber()
                if isinstance(seg_a.chamber, TorusChamber)
                else CylChamber(-seg_a.chamber.u),
                negate_part(seg_a.part),
                seg_a.lo,
                seg_a.hi,
            )
            nb = BoundarySegment(
                TorusChamber()
                if isinstance(seg_b.chamber, TorusChamber)
                else CylChamber(-seg_b.chamber.u),
                negate_part(seg_b.part),
                seg_b.lo,
                seg_b.hi,
            )
            assert Gluing(na, nb, g.sigma, g.c).key() in keys

    def test_completeness_flags(self):
        atlas = build_positive(1)
        for c in atlas.chambers:
            assert atlas.complete[c] == (not isinstance(c, TorusChamber))

    def test_invariant_suite(self):
        report = check_atlas(build_positive(3))
        assert report.passed, report.failures


# ---------------------------------------------------------------------------
# negative leaves


class TestNegativeAtlas:
    @pytest.mark.parametrize("bound", [0, -3])
    def test_bound_below_one_rejected(self, bound):
        with pytest.raises(WrongLeafKind):
            build_negative(bound)

    def test_chamber_census_bound2(self):
        atlas = build_negative(2)
        ncyl = sum(1 for c in atlas.chambers if isinstance(c, CylChamber))
        ndeg = sum(1 for c in atlas.chambers if isinstance(c, DegChamber))
        assert ncyl == 16
        assert ndeg == len({t for t in (c.triple for c in atlas.chambers if isinstance(c, DegChamber))})
        assert ndeg > 0

    def test_connected(self):
        connected, _ = connectivity_check(build_negative(2))
        assert connected

    def test_triangle_sides_glue_to_their_cylinders(self):
        atlas = build_negative(2)
        for g in atlas.gluings:
            if not isinstance(g.seg_a.chamber, DegChamber):
                continue
            T = g.seg_a.chamber.triple
            i = g.seg_a.part[1]
            a = T.rotated(i - 1)[0]
            assert isinstance(g.seg_b.chamber, CylChamber)
            assert g.seg_b.chamber.u == a
            # the coarse segment is the partner-offset window
            b = T.rotated(i - 1)[1]
            m = _partner_offset(a, b)
            assert g.seg_b.lo.a == m and g.seg_b.hi.a == m + 1
            assert g.sigma == 1 and g.c.a == m

    def test_all_stars_six_pi_with_eight_alternating_sectors(self):
        atlas = build_negative(2)
        assert atlas.singularities
        for s in atlas.singularities:
            assert s.total == 6
            assert len(s.sectors) == 8
            kinds = [isinstance(x.chamber, DegChamber) for x in s.sectors]
            assert kinds in (
                [False, True] * 4,
                [True, False] * 4,
            )

    def test_reference_star_chambers(self):
        atlas = build_negative(2)
        star = singularity_star(atlas, (CylChamber(lat(1, 0)), 0))
        assert star.ident == ("neg", (0, 1), (1, 0))
        assert star.total == 6
        u1, u2 = lat(1, 0), lat(0, 1)
        expected_triples = {
            CharacteristicTriple.make(u1, u2, -u1 - u2),
            CharacteristicTriple.make(-u1, -u2, u1 + u2),
            CharacteristicTriple.make(u2, -u1, u1 - u2),
            CharacteristicTriple.make(-u2, u1, u2 - u1),
        }
        got = {
            s.chamber.triple for s in star.sectors if isinstance(s.chamber, DegChamber)
        }
        assert got == expected_triples
        cyl_us = {
            (s.chamber.u.m, s.chamber.u.n)
            for s in star.sectors
            if isinstance(s.chamber, CylChamber)
        }
        assert cyl_us == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_negation_symmetry_of_records(self):
        atlas = build_negative(2)
        data = set()
        for g in atlas.gluings:
            if isinstance(g.seg_a.chamber, DegChamber):
                T = g.seg_a.chamber.triple
                i = g.seg_a.part[1]
                a = T.rotated(i - 1)[0]
                data.add((T, a, g.c.a))
        for (T, a, m) in data:
            negT = CharacteristicTriple.make(*(-e for e in T.elements()))
            b = None
            els = negT.elements()
            j = els.index(-a)
            b = negT.rotated(j)[1]
            m2 = _partner_offset(-a, b)
            assert (negT, -a, Fraction(m2)) in data

    def test_completeness_flags(self):
        atlas = build_negative(2)
        for c in atlas.chambers:
            assert atlas.complete[c] == isinstance(c, DegChamber)

    def test_truncation_rays(self):
        atlas = build_negative(2)
        ray_chambers = {seg.chamber for seg in atlas.truncated}
        for seg in atlas.truncated:
            assert (seg.lo is None) != (seg.hi is None)
        # every cylinder chamber that received gluings has two tail rays
        glued_cyls = {
            g.seg_a.chamber
            for g in atlas.gluings
            if isinstance(g.seg_a.chamber, CylChamber)
        }
        assert ray_chambers == glued_cyls

    def test_invariant_suite(self):
        report = check_atlas(build_negative(2))
        assert report.passed, report.failures

    def test_incomplete_vertex_raises(self):
        atlas = build_negative(1)
        # t = 5 on any cylinder boundary is far outside the glued window
        with pytest.raises(NotAVertex):
            singularity_star(atlas, (CylChamber(lat(1, 0)), 5))

    def test_incomplete_vertex_message_names_the_germ(self):
        with pytest.raises(NotAVertex) as info:
            singularity_star(build_negative(1), (CylChamber(lat(1, 0)), 5))
        assert str(info.value) == (
            "(CylChamber(u=LatticeElement(m=1, n=0)), 5) is not an interior vertex of the "
            "atlas: no gluing at (CylChamber(u=LatticeElement(m=1, n=0)), ('line',), 5, -1)"
        )

    def test_walk_into_an_open_germ_names_it(self):
        atlas = build_negative(1)
        g = atlas.gluings[0]
        germ = (g.seg_a.chamber, g.seg_a.part, g.seg_a.lo, +1)
        with pytest.raises(_Unglued) as info:
            leaf_atlas._walk(atlas, germ, {leaf_atlas._germ_key(germ): 1}, {})
        assert str(info.value) == f"{germ} leads to an unglued boundary"


class TestStarWalkCost:
    """Each germ starts at most one `_other_germ` step; each triangle's corners are computed once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"_other_germ": 0, "_triangle_corners": 0}
        for name in calls:

            def counted(*args, _fn=getattr(leaf_atlas, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)

            monkeypatch.setattr(leaf_atlas, name, counted)
        return calls

    @pytest.mark.parametrize(
        "build",
        [lambda: build_negative(12), lambda: build_arithmetic(24)],
        ids=["negative-12", "arithmetic-24"],
    )
    def test_one_walk_per_germ(self, calls, build):
        atlas = build()
        triples = sum(1 for c in atlas.chambers if isinstance(c, DegChamber))

        def assert_within(atlas):
            germs = len(atlas._germ_index)
            assert calls["_other_germ"] <= germs
            assert calls["_triangle_corners"] <= triples

        assert_within(atlas)
        text = json.dumps(atlas_to_json_dict(atlas))
        calls.update(dict.fromkeys(calls, 0))
        assert_within(atlas_from_json_dict(json.loads(text)))


def _every_germ_stars(atlas):
    """Stars by a plain walk from every germ that no closed star holds yet."""
    visited, stars = set(), {}
    for g in atlas.gluings:
        seg = g.seg_a
        for v, direction in ((seg.lo, +1), (seg.hi, -1)):
            germ = (seg.chamber, seg.part, v, direction)
            if v is None or leaf_atlas._germ_key(germ) in visited:
                continue
            try:
                sectors, keys = leaf_atlas._walk(atlas, germ, {}, {})
            except (_Unglued, NotAVertex):
                continue
            visited.update(keys)
            star = leaf_atlas._star(atlas, sectors)
            stars[star.ident] = star
    return [stars[k] for k in sorted(stars)]


_NEGATIVE_3 = build_negative(3)
_NONARITH_3 = build_nonarith(GroundField.quadratic(2).element(0, 1), 3)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nonarith=st.booleans())
def test_open_walks_skipped_without_changing_stars(data, nonarith):
    # dropping gluings (a reverse may stay) leaves open chains and
    # one-sided crossings; the stars must be those of the plain walk
    whole = _NONARITH_3 if nonarith else _NEGATIVE_3
    n = len(whole.gluings)
    drop = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    gluings = [g for i, g in enumerate(whole.gluings) if i not in drop]
    atlas = Atlas(whole.kind, whole.character, whole.bound, whole.chambers, gluings, [], [])
    leaf_atlas._collect_stars(atlas)
    assert atlas.singularities == _every_germ_stars(atlas)


def _walk_outcome(atlas, germ, max_steps, open_=None):
    try:
        sectors, _ = leaf_atlas._walk(atlas, germ, {} if open_ is None else open_, {}, max_steps)
    except (_Unglued, NonIntegralStar) as exc:
        return type(exc)
    return tuple(sectors)


@pytest.mark.parametrize("max_steps", [1, 2, 3, 8])
def test_walk_through_open_germ_keeps_step_limit(max_steps):
    # the second germ of each walk is walked first, so the walk from the
    # first stops there; it must end as the plain walk with the same limit
    gluings = _NEGATIVE_3.gluings[::2]
    atlas = Atlas("negative", _NEGATIVE_3.character, 3, _NEGATIVE_3.chambers, gluings, [], [])
    ends = set()
    for g in gluings:
        germ = (g.seg_a.chamber, g.seg_a.part, g.seg_a.lo, +1)
        try:
            nxt = leaf_atlas._cross(atlas, leaf_atlas._other_germ(atlas, germ, {})[0])
        except _Unglued:
            continue
        open_ = {}
        _walk_outcome(atlas, nxt, max_steps, open_)
        ends.add(_walk_outcome(atlas, germ, max_steps))
        assert _walk_outcome(atlas, germ, max_steps, open_) == _walk_outcome(atlas, germ, max_steps)
    # both ends occur: a limit below a chain's length, and an unglued boundary
    assert (NonIntegralStar in ends) == (max_steps < 8)
    assert (_Unglued in ends) == (max_steps > 1)


# ---------------------------------------------------------------------------
# non-arithmetic leaves


class TestNonArithAtlas:
    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_rejected(self, bound):
        theta = GroundField.quadratic(2).element(Fraction(1, 3), Fraction(1, 7))
        with pytest.raises(WrongLeafKind):
            build_nonarith(theta, bound)

    def theta(self):
        F = GroundField.quadratic(2)
        return F.element(-1, 1)  # sqrt(2) - 1

    def test_rejects_rational_theta(self):
        with pytest.raises(RationalTheta):
            build_nonarith(Fraction(1, 3), 1)
        with pytest.raises(RationalTheta):
            build_nonarith(2, 1)
        F = GroundField.quadratic(2)
        with pytest.raises(RationalTheta):
            build_nonarith(F.element(Fraction(1, 2)), 1)

    def test_rejects_inexact_theta(self):
        with pytest.raises(NonQuadraticTheta):
            build_nonarith(0.41421356, 1)

    def test_chambers_are_cylinders_only(self):
        atlas = build_nonarith(self.theta(), 1)
        assert all(isinstance(c, CylChamber) for c in atlas.chambers)
        assert len(atlas.chambers) == 8

    def test_theta_normalized_into_unit_interval(self):
        F = GroundField.quadratic(2)
        atlas = build_nonarith(F.element(3, 1), 2)  # 3 + sqrt(2)
        theta = atlas.character.g2
        assert theta.sign() > 0 and (F.one() - theta).sign() > 0

    def test_all_stars_six_pi(self):
        atlas = build_nonarith(self.theta(), 2)
        assert atlas.singularities
        for s in atlas.singularities:
            assert s.total == 6
            assert len(s.sectors) == 6

    def test_records_are_translations(self):
        atlas = build_nonarith(self.theta(), 2)
        for g in atlas.gluings:
            assert g.sigma == 1
            assert (g.seg_b.lo - g.seg_a.lo) == g.c
            assert (g.seg_b.hi - g.seg_a.hi) == g.c

    def test_adjacency_matches_collapsed_negative_atlas(self):
        """Contraction-limit oracle: flatten each triangle of the negative
        atlas onto the line and read adjacencies from interval overlaps."""
        theta = self.theta()
        chi = PeriodCharacter(theta.field, theta.field.one(), theta)
        neg = build_negative(2)
        expected_edges = set()
        for c in neg.chambers:
            if not isinstance(c, DegChamber):
                continue
            a1, a2, a3 = c.triple.elements()
            p = chi.lattice_value(a1)
            q = -chi.lattice_value(a2)
            zero = theta.field.zero()

            def interval(x, y):
                return (x, y) if (y - x).sign() > 0 else (y, x)

            iv = {1: interval(zero, p), 2: interval(q, zero), 3: interval(p, q)}
            sides = {1: a1, 2: a2, 3: a3}
            for i in (1, 2, 3):
                for j in range(i + 1, 4):
                    (a, b), (x, y) = iv[i], iv[j]
                    lo = a if (x - a).sign() < 0 else x
                    hi = b if (y - b).sign() > 0 else y
                    if (hi - lo).sign() > 0:
                        expected_edges.add(
                            frozenset((CylChamber(sides[i]), CylChamber(sides[j])))
                        )
        nodes, edges = adjacency_graph(build_nonarith(theta, 2))
        assert nodes == {CylChamber(u) for u in primitive_elements(2)}
        assert edges == expected_edges

    def test_invariant_suite(self):
        report = check_atlas(build_nonarith(self.theta(), 2))
        assert report.passed, report.failures

    def test_other_quadratic_field(self):
        F = GroundField.quadratic(5)
        theta = F.element(Fraction(-1, 2), Fraction(1, 2))  # (sqrt(5)-1)/2
        atlas = build_nonarith(theta, 1)
        report = check_atlas(atlas)
        assert report.passed, report.failures
        for s in atlas.singularities:
            assert s.total == 6


# ---------------------------------------------------------------------------
# serialization


class TestAtlasJson:
    def atlases(self):
        F = GroundField.quadratic(2)
        return [
            build_positive(1),
            build_negative(2),
            build_arithmetic(3),
            build_nonarith(F.element(-1, 1), 2),
        ]

    def test_schema_marker(self):
        for atlas in self.atlases():
            assert atlas_to_json_dict(atlas)["schema"] == "isoleaf-atlas/1"

    def test_byte_identical_roundtrip(self):
        for atlas in self.atlases():
            d1 = atlas_to_json_dict(atlas)
            s1 = json.dumps(d1, sort_keys=True, separators=(",", ":"))
            rebuilt = atlas_from_json_dict(json.loads(s1))
            s2 = json.dumps(
                atlas_to_json_dict(rebuilt), sort_keys=True, separators=(",", ":")
            )
            assert s1 == s2

    def test_completeness_survives_the_roundtrip(self):
        atlases = self.atlases() + [build_positive(3)]
        for atlas in atlases:
            rebuilt = atlas_from_json_dict(json.loads(json.dumps(atlas_to_json_dict(atlas))))
            assert len(rebuilt.complete) == len(atlas.chambers)
            assert rebuilt.complete == atlas.complete
        assert sum(atlases[-1].complete.values()) == 32  # every cylinder chamber

    def test_integers_as_decimal_strings(self):
        d = atlas_to_json_dict(build_arithmetic(2))
        assert d["bound"] == "2"
        assert all(
            isinstance(c.get("k", "0"), str) for c in d["chambers"]
        )

    def test_unknown_schema_rejected(self):
        d = atlas_to_json_dict(build_arithmetic(2))
        d["schema"] = "isoleaf-atlas/999"
        from isoleaf.period_algebra import IsoleafError

        with pytest.raises(IsoleafError):
            atlas_from_json_dict(d)

    @pytest.mark.parametrize(
        "case",
        [
            "schema-only",
            "list",
            "zero-denominator",
            "two-coordinates-over-Q",
            "non-integer",
            "unknown-kind",
            "chamber-not-an-object",
        ],
    )
    def test_malformed_documents_raise_isoleaf_error(self, case):
        doc = atlas_to_json_dict(build_arithmetic(2))
        if case == "schema-only":
            doc = {"schema": "isoleaf-atlas/1"}
        elif case == "list":
            doc = []
        elif case == "zero-denominator":
            doc["gluings"][0]["c"] = [["1", "0"]]
        elif case == "two-coordinates-over-Q":
            doc["gluings"][0]["a"]["lo"] = [["1", "2"], ["3", "4"]]
        elif case == "non-integer":
            doc["truncated"][0]["hi"] = [["x", "2"]]
        elif case == "unknown-kind":
            doc["kind"] = "hyperbolic"
        else:
            doc["chambers"][0] = "cyl_arith"
        with pytest.raises(IsoleafError):
            atlas_from_json_dict(doc)

    @pytest.mark.parametrize("sigma", [2, 0, 1.5, -1.9, 1.0, True, "1", None, [1]])
    def test_sigma_other_than_plus_or_minus_one_rejected(self, sigma):
        doc = atlas_to_json_dict(build_arithmetic(2))
        doc["gluings"][0]["sigma"] = sigma
        with pytest.raises(IsoleafError) as exc:
            atlas_from_json_dict(doc)
        assert str(exc.value) == f"malformed atlas: a gluing's sigma is 1 or -1, got {sigma!r}"

    def test_sigma_minus_one_accepted(self):
        doc = atlas_to_json_dict(build_positive(1))
        assert {g["sigma"] for g in doc["gluings"]} == {1, -1}
        assert {g.sigma for g in atlas_from_json_dict(doc).gluings} == {1, -1}

    def test_chamber_of_another_kind_rejected(self):
        docs = [atlas_to_json_dict(atlas) for atlas in self.atlases()]
        foreign = {
            "torus": {"type": "torus"},
            "cyl": {"type": "cyl", "u": ["0", "1"]},
            "cyl_arith": {"type": "cyl_arith", "k": "1", "l": "0", "sign": -1},
            "deg": next(c for c in docs[1]["chambers"] if c["type"] == "deg"),
        }
        for doc in docs:
            own = {c["type"] for c in doc["chambers"]}
            for tag in sorted(set(foreign) - own):
                for where in ("chambers", "gluings", "truncated"):
                    bad = json.loads(json.dumps(doc))
                    if where == "chambers":
                        bad["chambers"][-1] = foreign[tag]
                    elif where == "gluings":
                        bad["gluings"][-1]["b"]["chamber"] = foreign[tag]
                    elif bad["truncated"]:
                        bad["truncated"][0]["chamber"] = foreign[tag]
                    else:
                        continue
                    with pytest.raises(IsoleafError, match=f"'{tag}' is not a chamber type of"):
                        atlas_from_json_dict(bad)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_positive(4),
            lambda: build_negative(4),
            lambda: build_arithmetic(8),
            lambda: build_nonarith(GroundField.quadratic(2).element(-1, 1), 3),
        ],
        ids=["positive-4", "negative-4", "arithmetic-8", "nonarith-3"],
    )
    def test_one_object_per_chamber(self, build):
        built = build()
        loaded = atlas_from_json_dict(json.loads(json.dumps(atlas_to_json_dict(built))))
        for atlas in (built, loaded):
            own = {id(c) for c in atlas.chambers}
            assert len(own) == len(set(atlas.chambers)) == len(built.chambers)
            segs = [s for g in atlas.gluings for s in (g.seg_a, g.seg_b)] + atlas.truncated
            assert all(id(s.chamber) in own for s in segs)
        # the loader makes each distinct part and coordinate once, too
        segs = [s for g in loaded.gluings for s in (g.seg_a, g.seg_b)] + loaded.truncated
        parts = [s.part for s in segs]
        coords = [x for s in segs for x in (s.lo, s.hi) if x is not None]
        coords += [g.c for g in loaded.gluings]
        for values in (parts, coords):
            assert len({id(x) for x in values}) == len(set(values))

    def test_each_dump_is_its_own(self):
        atlas = build_negative(2)
        first, second = atlas_to_json_dict(atlas), atlas_to_json_dict(atlas)
        assert first == second

        def containers(x, out):
            if isinstance(x, (dict, list)):
                out.add(id(x))
                for y in x.values() if isinstance(x, dict) else x:
                    containers(y, out)
            return out

        assert not containers(first, set()) & containers(second, set())
        # one call's leaves are shared: an edit in place shows in many places
        glued = first["gluings"][0]["a"]
        glued["chamber"]["u"][0] = "99"
        glued["lo"][0][0] = "99"
        glued["part"].append("edited")
        assert atlas_to_json_dict(atlas) == second

    def test_text_round_trip_unshares_what_deepcopy_keeps(self):
        # a gluing's side and its reverse record are one segment dict; a deep
        # copy keeps that, so one edit moves both, a text round trip only one
        doc = atlas_to_json_dict(build_negative(1))
        for copied, moved in ((copy.deepcopy(doc), 2), (json.loads(json.dumps(doc)), 1)):
            copied["gluings"][0]["a"]["lo"] = [["7", "1"]]
            sides = [g[s] for g in copied["gluings"] for s in "ab"]
            assert sum(side["lo"] == [["7", "1"]] for side in sides) == moved

    @pytest.mark.parametrize("value", [[], {}, ["1"], [["1", "0"]], {"x": 1}, {1}, object()])
    def test_unhashable_or_foreign_chamber_fields_rejected(self, value):
        docs = [atlas_to_json_dict(build_negative(1)), atlas_to_json_dict(build_arithmetic(2))]
        paths = {
            "cyl": [("u", 0), ("u", 1), ("u",)],
            "deg": [("triple", 0), ("triple", 1, 0), ("triple",)],
            "cyl_arith": [("k",), ("l",), ("sign",)],
        }
        for doc in docs:
            for where in ("chambers", "gluings", "truncated"):
                for tag, fields in paths.items():
                    for path in fields:
                        bad = json.loads(json.dumps(doc))
                        if where == "chambers":
                            chamber = next((c for c in bad["chambers"] if c["type"] == tag), None)
                        elif where == "gluings":
                            chamber = bad["gluings"][-1]["a"]["chamber"]
                        else:
                            chamber = bad["truncated"][0]["chamber"]
                        if chamber is None or chamber["type"] != tag:
                            continue
                        node = chamber
                        for key in path[:-1]:
                            node = node[key]
                        node[path[-1]] = value
                        with pytest.raises(IsoleafError) as info:
                            atlas_from_json_dict(bad)
                        assert "\n" not in str(info.value)

    def test_unhashable_coordinates_rejected(self):
        doc = atlas_to_json_dict(build_negative(1))
        for value in ([[[], "1"]], [[{"x": 1}, "1"]], [{"x": 1}], [{1}], 5, None):
            bad = json.loads(json.dumps(doc))
            bad["gluings"][0]["c"] = value
            with pytest.raises(IsoleafError, match="malformed field element"):
                atlas_from_json_dict(bad)

    def test_singularity_records_preserved(self):
        atlas = build_arithmetic(3)
        d = atlas_to_json_dict(atlas)
        assert d["center"] == {"half_turns": 2, "tag": "pinched_torus"}
        assert all(s["half_turns"] == 6 for s in d["singularities"])


# ---------------------------------------------------------------------------
# the marking involution on arithmetic records


class TestIotaInvolution:
    def test_involution_is_an_involution(self):
        atlas = build_arithmetic(4)
        for g in atlas.gluings:
            assert _iota_image(_iota_image(g)).key() == g.key()

    def test_closure(self):
        atlas = build_arithmetic(4)
        keys = {g.key() for g in atlas.gluings}
        for g in atlas.gluings:
            assert _iota_image(g).key() in keys


def _without(atlas, *gluings):
    gone = {g.key() for g in gluings}
    return dataclasses.replace(atlas, gluings=[g for g in atlas.gluings if g.key() not in gone])


def _line_seg(chamber, lo, hi):
    return {"chamber": chamber, "part": "('line',)", "lo": lo, "hi": hi}


class TestCheckEntries:
    """The exact failure entries of the two key-image checks, in order."""

    def test_missing_reverse(self):
        atlas = build_negative(2)
        report = check_atlas(_without(atlas, atlas.gluings[0].reverse()))
        assert report.failures == [{
            "check": "gluing-involution",
            "missing-reverse-of": _line_seg("CylChamber(u=LatticeElement(m=-1, n=-1))", "-2", "-1"),
        }]
        assert [name for name, ok in report.checks if not ok] == ["gluing-involution"]

    def test_missing_involution_image(self):
        atlas = build_arithmetic(4)
        image = _iota_image(atlas.gluings[0])
        report = check_atlas(_without(atlas, image))
        assert report.failures == [
            {"check": "gluing-involution",
             "missing-reverse-of": _line_seg("CylArithChamber(k=4, l=1, sign=1)", "0", "1")},
            {"check": "involution-equivariance",
             "missing-involution-image-of": _line_seg("CylArithChamber(k=1, l=0, sign=1)", "-4", "-3")},
        ]

    def test_missing_involution_image_and_its_reverse(self):
        atlas = build_arithmetic(4)
        image = _iota_image(atlas.gluings[0])
        report = check_atlas(_without(atlas, image, image.reverse()))
        assert report.failures == [
            {"check": "involution-equivariance",
             "missing-involution-image-of": _line_seg("CylArithChamber(k=1, l=0, sign=1)", "-4", "-3")},
            {"check": "involution-equivariance",
             "missing-involution-image-of": _line_seg("CylArithChamber(k=4, l=1, sign=-1)", "-1", "0")},
        ]
        assert [name for name, ok in report.checks if not ok] == ["involution-equivariance"]

