"""The star walk: sector order, corner germs and the walk's counts.

The atlas JSON keeps only each star's id, half-turns and sector count, so
`tests/test_golden.py` cannot see the order of a star's sectors.  The
digests below pin ``repr`` of every star and of the center, built and
loaded back from JSON, as they were before triangle corners were read on
integers and the walk keyed each germ once.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from isoleaf import leaf_atlas, period_algebra, stats
from isoleaf.leaf_atlas import (
    DegChamber,
    NotAVertex,
    atlas_from_json_dict,
    atlas_to_json_dict,
    build_arithmetic,
    build_negative,
    build_nonarith,
    build_positive,
    primitive_elements,
    singularity_star,
)
from isoleaf.period_algebra import CharacteristicTriple, GroundField, LatticeElement

# name -> (build, sha256 of repr(singularities), sha256 of repr(center))
_NO_CENTER = "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91"
STAR_DIGESTS = {
    "negative-12": (
        lambda: build_negative(12),
        "8ec79b7e828902834feee34f7da988668100b92cd032c97f5469d20c03f757d8",
        _NO_CENTER,
    ),
    "nonarith-sqrt2-8": (
        lambda: build_nonarith(GroundField.quadratic(2).element(0, 1), 8),
        "0906eacb33e6a7f2aca8694687c0be7cd44a5044bcf5c7a207aaefab337d36c0",
        _NO_CENTER,
    ),
    "arithmetic-40": (
        lambda: build_arithmetic(40),
        "34987447aa876774a611e659f05a12f26c70d0c71820589e76d3da72625d044c",
        "b7f7b23762ad0459ba03eb9ae208c99bb63d80ee496fefd6e686807fbc2a65c7",
    ),
    "positive-12": (
        lambda: build_positive(12),
        "d92c2e095c9c922666e6594d6a8323c5f8a94581d834e842747a34ea83a4cde3",
        _NO_CENTER,
    ),
}


def _sha(x) -> str:
    return hashlib.sha256(repr(x).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(STAR_DIGESTS))
def test_star_reprs_of_built_and_loaded_atlases(name):
    build, stars_digest, center_digest = STAR_DIGESTS[name]
    built = build()
    loaded = atlas_from_json_dict(json.loads(json.dumps(atlas_to_json_dict(built))))
    for atlas in (built, loaded):
        assert _sha(atlas.singularities) == stars_digest
        assert _sha(atlas.center) == center_digest


# ---------------------------------------------------------------------------
# triangle corners named by a coordinate

_NEGATIVE_6 = build_negative(6)
# the side whose coordinate 0 is each corner of a chart triangle
_SIDE_AT_ZERO = {"v0": ("side", 1), "v1": ("side", 3), "v2": ("side", 2)}


def test_corner_at_zero_in_every_spelling():
    atlas = _NEGATIVE_6
    zeros = (0, Fraction(0), GroundField.rational().element(0))
    corners = 0
    for star in atlas.singularities:
        for sector in star.sectors:
            if not isinstance(sector.chamber, DegChamber):
                continue
            part = _SIDE_AT_ZERO[sector.vertex[1]]
            walked = [singularity_star(atlas, (sector.chamber, (part, s))) for s in zeros]
            assert walked[0].ident == star.ident
            assert walked[1] == walked[0] and walked[2] == walked[0]
            corners += 1
    assert corners > 0


_TRIANGLE = DegChamber(CharacteristicTriple.make(
    LatticeElement(-5, -4), LatticeElement(4, 3), LatticeElement(1, 1)))


def test_triangle_corner_at_one():
    star = singularity_star(_NEGATIVE_6, (_TRIANGLE, (("side", 1), 1)))
    assert star.ident == ("neg", (1, 1), (5, 4)) and star.total == 6


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 2), Fraction(7, 4), 2, -1])
def test_triangle_side_point_off_the_corners_is_not_a_vertex(s):
    for x in (s, GroundField.rational().element(s)):
        with pytest.raises(NotAVertex, match="is not a corner germ"):
            singularity_star(_NEGATIVE_6, (_TRIANGLE, (("side", 1), x)))


# ---------------------------------------------------------------------------
# costs the builders and the walk report


def test_negative_builder_finds_each_partner_at_most_twice(monkeypatch):
    calls = []
    partner = period_algebra.symplectic_partner

    def counted(u):
        calls.append(u)
        return partner(u)

    monkeypatch.setattr(period_algebra, "symplectic_partner", counted)
    monkeypatch.setattr(leaf_atlas, "symplectic_partner", counted)
    build_negative(12)
    classes = len(primitive_elements(12))
    assert classes == 368
    assert len(calls) <= 2 * classes
    assert max(calls.count(u) for u in set(calls)) <= 2


@pytest.mark.parametrize("build", [
    lambda: build_negative(4),
    lambda: build_nonarith(GroundField.quadratic(2).element(0, 1), 4),
    lambda: build_arithmetic(6),
    lambda: build_positive(3),
], ids=["negative", "nonarith", "arithmetic", "positive"])
def test_walk_counts_and_span(build):
    # every walk ends in a closed star, the center, or an unglued boundary
    with stats.collect() as rec:
        atlas = build()
    counts = rec["counts"]
    closed = len(atlas.singularities) + (atlas.center is not None)
    assert counts["star_walks"] == closed + counts["open_walks"]
    assert rec["spans"]["stars"] >= 0.0
    text = json.dumps(atlas_to_json_dict(atlas))
    with stats.collect() as again:
        atlas_from_json_dict(json.loads(text))
    assert again["counts"] == counts
