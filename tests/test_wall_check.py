"""The exact wall-surface check and the shared gluing keys of `check_atlas`.

The sampled check the exact one replaced is kept here as an oracle: on every
built atlas `check_atlas` gives its report, and on a corpus of broken
gluings the exact check flags every gluing it flags, one entry each.
"""

import dataclasses
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isoleaf import leaf_atlas
from isoleaf.leaf_atlas import (
    Gluing,
    _coord_key,
    _iota_image,
    _iota_key,
    _neg_coord_key,
    _reverse_key,
    _seg_desc,
    _wall_identity,
    build_arithmetic,
    build_negative,
    build_nonarith,
    build_positive,
    check_atlas,
    wall_surface_match,
)
from isoleaf.period_algebra import GroundField
from isoleaf.surface_kernel import (
    PinchedTorus,
    PointInH2m2,
    SlitDegenerateSurface,
    cylinder_boundary_form,
    cylinder_boundary_surface,
)

Q = GroundField.rational()
FORMS_DIFFER = "the slit-length forms of the two sides differ"


def sampled_wall_match(atlas, samples):
    """The wall check before the exact identity: ``samples`` evenly spaced
    interior points of every plus-side gluing, each compared by
    `wall_surface_match`."""
    bad = []
    for g in atlas.gluings:
        if g.seg_a.chamber.sign != +1:
            continue
        lo, hi = g.seg_a.lo, g.seg_a.hi
        for j in range(1, samples + 1):
            t = (lo * (samples + 1 - j) + hi * j) / (samples + 1)
            if not wall_surface_match(atlas, g, t):
                bad.append({"gluing": _seg_desc(g.seg_a), "sample": str(t)})
    return bad


def oracle_report(atlas, samples, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(leaf_atlas, "_check_wall_match", lambda a: sampled_wall_match(a, samples))
        return check_atlas(atlas)


def plus_gluings(atlas):
    return [g for g in atlas.gluings if g.seg_a.chamber.sign == +1]


def shifted(seg, d):
    return dataclasses.replace(seg, lo=seg.lo + d, hi=seg.hi + d)


def merged(atlas):
    """``((g, h), m)``: adjacent plus-side gluings g, h of one chamber and
    their merge m across the common segmentation point, with the map of g."""
    by_start = {(g.seg_a.chamber, g.seg_a.lo): g for g in plus_gluings(atlas)}
    out = []
    for g in plus_gluings(atlas):
        h = by_start.get((g.seg_a.chamber, g.seg_a.hi))
        if h is not None:
            seg_a = dataclasses.replace(g.seg_a, hi=h.seg_a.hi)
            seg_b = dataclasses.replace(g.seg_b, hi=h.seg_a.hi + g.c)
            out.append(((g, h), Gluing(seg_a, seg_b, g.sigma, g.c)))
    return out


# each mutation of one plus-side gluing
MUTATIONS = {
    "constant+1": lambda g: dataclasses.replace(g, c=g.c + 1),
    "constant-1": lambda g: dataclasses.replace(g, c=g.c - 1),
    # the target segment moves with the constant: on a k = 1 target the
    # image is again a canonical segment, and only the identity can refute it
    "constant+1-with-target": lambda g: dataclasses.replace(
        g, c=g.c + 1, seg_b=shifted(g.seg_b, 1)),
    "constant-1-with-target": lambda g: dataclasses.replace(
        g, c=g.c - 1, seg_b=shifted(g.seg_b, -1)),
    "target-endpoints-swapped": lambda g: dataclasses.replace(
        g, seg_b=dataclasses.replace(g.seg_b, lo=g.seg_b.hi, hi=g.seg_b.lo)),
    "sigma-flipped": lambda g: dataclasses.replace(g, sigma=-g.sigma),
    # the reflection that fixes the midpoint's image: same target segment
    "sigma-flipped-about-midpoint": lambda g: dataclasses.replace(
        g, sigma=-g.sigma, c=g.c + g.seg_a.lo + g.seg_a.hi),
    # the mirror segment on CC^-_{k,l} at -t: the same slit lengths, the
    # other marking
    "glued-to-its-mirror": lambda g: Gluing(g.seg_a, _iota_image(g).seg_a, -1, Q.zero()),
}


def corpus(atlas):
    """``(name, replaced gluings, mutant)`` for every mutation of every
    plus-side gluing, and every merge of two adjacent ones."""
    out = [(name, (g,), f(g)) for g in plus_gluings(atlas) for name, f in MUTATIONS.items()]
    return out + [("merged", pair, m) for pair, m in merged(atlas)]


ARITH_8 = build_arithmetic(8)
CORPUS_8 = corpus(ARITH_8)


class TestAgainstTheSampledCheck:
    @pytest.mark.parametrize("kmax", range(1, 13))
    def test_built_atlases(self, kmax, monkeypatch):
        atlas = build_arithmetic(kmax)
        report = check_atlas(atlas)
        assert report.passed
        for samples in (1, 2, 3, 5):
            assert report == oracle_report(atlas, samples, monkeypatch)
        assert all(_wall_identity(g) for g in plus_gluings(atlas))

    @pytest.mark.parametrize("samples", [2, 3, 5])
    def test_each_mutated_gluing(self, samples):
        for name, _, g in CORPUS_8:
            single = dataclasses.replace(ARITH_8, gluings=[g])
            got = leaf_atlas._check_wall_match(single)
            if name == "target-endpoints-swapped":
                # the wall check reads the map, not the stored target ends;
                # the involution check finds them
                assert got == [], (name, g)
            else:
                assert [e["gluing"] for e in got] == [_seg_desc(g.seg_a)], (name, g)
            # every gluing the sampled check flags, the exact one flags
            assert got or not sampled_wall_match(single, samples), (name, g)

    def test_merged_mutants(self):
        # a merged side is not a canonical segment: the exact check flags
        # every merge, while the samples of (-7, -1) + (-1, 0) on CC+_{6,5}
        # all fall left of -1, where the map of the first segment still holds
        merges = [g for name, _, g in CORPUS_8 if name == "merged"]
        assert len(merges) == 64
        missed = dict.fromkeys((1, 3, 5), 0)
        for g in merges:
            single = dataclasses.replace(ARITH_8, gluings=[g])
            [entry] = leaf_atlas._check_wall_match(single)
            assert "not a canonical segment" in entry["reason"]
            for samples in missed:
                missed[samples] += not sampled_wall_match(single, samples)
        assert missed == {1: 20, 3: 8, 5: 4}

    def test_corpus_reaches_the_identity(self):
        # the identity refutes the mutants with canonical sides and leaves
        # the others undecided, which the check reports as such
        verdicts = {}
        for name, _, g in CORPUS_8:
            verdicts.setdefault(name, set()).add(_wall_identity(g))
        assert verdicts["constant+1-with-target"] == {False, None}
        assert verdicts["sigma-flipped-about-midpoint"] == {False}
        assert verdicts["glued-to-its-mirror"] == {False}
        # the identity reads the map's image of the source, not the stored
        # target ends
        assert verdicts["target-endpoints-swapped"] == {True}
        assert verdicts["merged"] == {None}

    def test_one_sample(self):
        # a gluing reflected about the image of its midpoint agrees there,
        # and the one sample sits there: the sampled check passes it
        for name, _, g in CORPUS_8:
            single = dataclasses.replace(ARITH_8, gluings=[g])
            got = leaf_atlas._check_wall_match(single)
            want = sampled_wall_match(single, 1)
            if name == "sigma-flipped-about-midpoint":
                assert want == []
                assert got == [{"gluing": _seg_desc(g.seg_a), "reason": FORMS_DIFFER}]
            else:
                assert got or not want, (name, g)

    @pytest.mark.parametrize("name", sorted(MUTATIONS) + ["merged"])
    @pytest.mark.parametrize("samples", [2, 3, 5])
    def test_whole_reports(self, name, samples, monkeypatch):
        # every fifth mutant of one kind at once, in place of the gluings
        # it replaces
        picked = [(replaced, g) for n, replaced, g in CORPUS_8 if n == name][::5]
        gone = {id(r) for replaced, _ in picked for r in replaced}
        gluings = [g for g in ARITH_8.gluings if id(g) not in gone]
        atlas = dataclasses.replace(ARITH_8, gluings=gluings + [g for _, g in picked])
        report = check_atlas(atlas)
        oracle = oracle_report(atlas, samples, monkeypatch)
        assert not report.passed

        def split(r):
            wall = [f["gluing"] for f in r.failures if f["check"] == "wall-surface-match"]
            rest = [f for f in r.failures if f["check"] != "wall-surface-match"]
            return wall, rest

        (wall, rest), (oracle_wall, oracle_rest) = split(report), split(oracle)
        assert rest == oracle_rest
        assert all(f in wall for f in oracle_wall)
        if name == "target-endpoints-swapped":
            assert wall == []
        else:
            assert wall == [_seg_desc(g.seg_a) for _, g in picked]


class TestDerivedKeys:
    ATLASES = {
        "arith-12": build_arithmetic(12),
        "negative-6": build_negative(6),
        "positive-6": build_positive(6),
        "nonarith-3": build_nonarith(GroundField.quadratic(2).element(0, 1), 3),
    }

    @pytest.mark.parametrize("name", sorted(ATLASES))
    def test_reverse_and_iota_keys(self, name):
        atlas = self.ATLASES[name]
        assert atlas.gluings
        for g in atlas.gluings:
            key = g.key()
            assert _reverse_key(g, key) == g.reverse().key()
            if name.startswith("arith"):
                assert _iota_key(g, key) == _iota_image(g).key()
            else:
                # the marking involution is defined on arithmetic chambers only
                assert _iota_key(g, key) is None

    def test_reverse_key_of_a_stretching_map(self):
        g = ARITH_8.gluings[0]
        for sigma in (2, -3):
            stretched = dataclasses.replace(g, sigma=sigma, c=g.c + Fraction(1, 3))
            assert _reverse_key(stretched, stretched.key()) == stretched.reverse().key()
            flipped = _iota_image(stretched)
            assert leaf_atlas._orbit_key(stretched, stretched.key()) == min(
                v.key() for v in (stretched, stretched.reverse(), flipped, flipped.reverse()))

    def test_negated_coordinate_keys(self):
        F = GroundField.quadratic(5)
        for x in (Q.element(Fraction(-7, 3)), Q.element(0), F.element(Fraction(1, 2), -3)):
            assert _neg_coord_key(_coord_key(x, 0)) == _coord_key(-x, 0)
        assert _neg_coord_key(_coord_key(None, -1)) == _coord_key(None, +1)
        assert _neg_coord_key(_coord_key(None, +1)) == _coord_key(None, -1)


def canonical_segments(atlas):
    seen = {}
    for g in atlas.gluings:
        for seg in (g.seg_a, g.seg_b):
            seen[seg.key()] = seg
    return list(seen.values())


class TestBoundaryForm:
    def test_evaluates_to_the_surface_on_each_canonical_segment(self):
        # the form read at the midpoint gives the surface at every interior
        # point, rational or not
        F = GroundField.quadratic(2)
        inner = F.element(-1, 1)  # sqrt 2 - 1, in (0, 1)
        segments = canonical_segments(ARITH_8)
        assert len(segments) > 150
        for seg in segments:
            ch, lo, hi = seg.chamber, seg.lo, seg.hi
            form, bit = cylinder_boundary_form(ch.k, ch.l, ch.sign, (lo + hi) / 2)
            points = [lo + (hi - lo) * Fraction(j, 5) for j in range(1, 5)]
            for t in points + [F.element(lo.a) + inner * (hi - lo).a]:
                surface = cylinder_boundary_surface(ch.k, ch.l, ch.sign, t)
                assert cylinder_boundary_form(ch.k, ch.l, ch.sign, t) == (form, bit)
                assert surface == SlitDegenerateSurface(*(a + b * t for a, b in form), bit)
            for end in (lo, hi):
                assert cylinder_boundary_form(ch.k, ch.l, ch.sign, end) is None

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda k: st.tuples(st.just(k), st.integers(0, k - 1))),
        st.sampled_from([1, -1]),
        st.fractions(-60, 60, max_denominator=12),
    )
    def test_surface_matches_the_three_branch_formula(self, kl, sign, t):
        k, l = kl
        assume(gcd(k, l) == 1)
        want = three_branch_surface(k, l, sign, t)
        assert cylinder_boundary_surface(k, l, sign, t) == want


def three_branch_surface(k, l, sign, t):
    """The wall surface as first written, one branch per side of 0 and l."""
    t = Q.element(t)
    s = t if sign == 1 else -t
    if s.is_zero():
        if (k, l) == (1, 0):
            return PinchedTorus(location=(k, l, sign))
        return PointInH2m2(location=(k, l, sign, t))
    offset = (s - l) / k
    if offset.q == 0 and offset.d == 1:
        return PointInH2m2(location=(k, l, sign, t))
    if s.sign() < 0:
        n = ((l - s) / k).floor()
        lengths = (-s, (n + 1) * k - l + s, l - s - n * k)
    elif (s - l).sign() < 0:
        lengths = (k + s - l, l - s, s)
    else:
        n = ((s - l) / k).floor()
        lengths = (s - l - n * k, (n + 1) * k + l - s, s)
    return SlitDegenerateSurface(*lengths, b_at_left=t.sign() > 0)
