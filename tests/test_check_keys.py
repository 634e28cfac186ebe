"""The gluing keyer and the integer chamber walk of `check_atlas`.

Both are checked against reference copies of the formulations they
replace: the key built piece by piece from each segment, and a BFS that
sorts every chamber's neighbours by their sort keys.  Damaged chamber
lists are named by their own counterexamples under ``connectivity``.
"""

from __future__ import annotations

import inspect
import json
from fractions import Fraction

import pytest

from isoleaf import cli, leaf_atlas
from isoleaf.leaf_atlas import (
    BoundarySegment,
    Gluing,
    atlas_from_json_dict,
    atlas_to_json_dict,
    build_arithmetic,
    build_negative,
    build_nonarith,
    build_positive,
    check_atlas,
    connectivity_check,
)
from isoleaf.period_algebra import GroundField, LatticeElement

# ---------------------------------------------------------------------------
# references


def _ref_coord_key(x, inf_sign):
    if x is None:
        return (inf_sign, 0, 1, 0, 1)
    return (0,) + x.fraction_parts()


def _ref_segment_key(seg):
    part = tuple(("lat", x.m, x.n) if isinstance(x, LatticeElement) else x for x in seg.part)
    return (seg.chamber.sort_key(), part, _ref_coord_key(seg.lo, -1), _ref_coord_key(seg.hi, +1))


def _ref_gluing_key(g):
    return (_ref_segment_key(g.seg_a), _ref_segment_key(g.seg_b), g.sigma,
            _ref_coord_key(g.c, 0))


def _ref_spanning_tree(atlas):
    """BFS from the least chamber, each chamber's neighbours sorted by sort key."""
    adj = {c: set() for c in atlas.chambers}
    for g in atlas.gluings:
        a, b = g.seg_a.chamber, g.seg_b.chamber
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    start = min(atlas.chambers, key=lambda c: c.sort_key())
    seen, tree, frontier = {start}, [], [start]
    while frontier:
        nxt = []
        for c in frontier:
            for d in sorted(adj[c], key=lambda c: c.sort_key()):
                if d not in seen:
                    seen.add(d)
                    tree.append((c, d))
                    nxt.append(d)
        frontier = nxt
    return len(seen) == len(atlas.chambers), tree


# ---------------------------------------------------------------------------
# atlases: four kinds, two sizes, built and loaded


def _theta():
    return GroundField.quadratic(2).element(Fraction(1, 3), Fraction(1, 7))


BUILDS = {
    ("positive", 1): lambda: build_positive(1),
    ("positive", 3): lambda: build_positive(3),
    ("negative", 1): lambda: build_negative(1),
    ("negative", 3): lambda: build_negative(3),
    ("arithmetic", 2): lambda: build_arithmetic(2),
    ("arithmetic", 6): lambda: build_arithmetic(6),
    ("nonarith", 1): lambda: build_nonarith(_theta(), 1),
    ("nonarith", 3): lambda: build_nonarith(_theta(), 3),
}


@pytest.fixture(scope="module", params=sorted(BUILDS), ids=lambda p: f"{p[0]}-{p[1]}")
def built(request):
    return BUILDS[request.param]()


@pytest.fixture(scope="module", params=["built", "loaded"])
def atlas(request, built):
    if request.param == "built":
        return built
    return atlas_from_json_dict(json.loads(json.dumps(atlas_to_json_dict(built))))


def test_gluing_and_segment_keys_match_the_reference(atlas):
    keyer = leaf_atlas._keyer()
    for g in atlas.gluings:
        ref = _ref_gluing_key(g)
        assert g.key() == ref
        assert keyer(g) == ref
        assert g.seg_a.key() == ref[0] and keyer.segment(g.seg_b) == ref[1]
    for seg in atlas.truncated:
        assert seg.key() == _ref_segment_key(seg)


def test_gluings_are_stored_in_reference_key_order(atlas):
    keys = [_ref_gluing_key(g) for g in atlas.gluings]
    assert keys == sorted(set(keys))


def test_spanning_tree_matches_the_reference(atlas):
    assert connectivity_check(atlas) == _ref_spanning_tree(atlas)


def test_keys_are_not_kept_on_the_atlas():
    atlas = build_negative(2)
    before = ({**vars(atlas)}, [{**vars(g)} for g in atlas.gluings],
              [{**vars(g.seg_a)} for g in atlas.gluings])
    assert check_atlas(atlas).passed
    atlas_to_json_dict(atlas)
    after = ({**vars(atlas)}, [{**vars(g)} for g in atlas.gluings],
             [{**vars(g.seg_a)} for g in atlas.gluings])
    assert after == before
    assert list(inspect.signature(Gluing.key).parameters) == ["self"]
    assert list(inspect.signature(BoundarySegment.key).parameters) == ["self"]


def test_keyer_keys_equal_coordinates_alike_across_fields():
    # the coordinate memo is looked up by normal form: equal integers, equal key
    Q, F = GroundField.rational(), GroundField.quadratic(2)
    keyer = leaf_atlas._keyer()
    seg = BoundarySegment(build_negative(1).chambers[0], ("line",), Q.element(0), None)
    g_q = Gluing(seg, seg, 1, Q.element(Fraction(1, 2)))
    g_f = Gluing(seg, seg, 1, F.element(Fraction(1, 2)))
    assert keyer(g_q) == keyer(g_f) == _ref_gluing_key(g_q)


# ---------------------------------------------------------------------------
# damaged chamber lists


def _damaged(change):
    doc = atlas_to_json_dict(build_negative(2))
    doc = json.loads(json.dumps(doc))
    doc["chambers"] = change(doc["chambers"])
    return atlas_from_json_dict(doc)


def _connectivity_failures(atlas):
    report = check_atlas(atlas)
    assert dict(report.checks)["connectivity"] is False
    return [f for f in report.failures if f["check"] == "connectivity"]


def test_chamber_listed_twice_is_named():
    atlas = _damaged(lambda cs: cs + [cs[0]])
    first = repr(atlas.chambers[0])
    assert _connectivity_failures(atlas) == [
        {"check": "connectivity", "chamber-listed-twice": first}]
    connected, tree = connectivity_check(atlas)
    assert not connected and len(tree) == len(atlas.chambers) - 2


def test_chamber_listed_three_times_is_named_once():
    atlas = _damaged(lambda cs: cs + [cs[3], cs[0], cs[3]])
    names = [repr(atlas.chambers[0]), repr(atlas.chambers[3])]
    assert _connectivity_failures(atlas) == [
        {"check": "connectivity", "chamber-listed-twice": n} for n in names]


def test_chamber_not_listed_is_named():
    full = build_negative(2)
    atlas = _damaged(lambda cs: cs[1:])
    assert _connectivity_failures(atlas) == [
        {"check": "connectivity", "chamber-not-listed": repr(full.chambers[0])}]
    connected, tree = connectivity_check(atlas)
    assert not connected and len(tree) == len(full.chambers) - 1


def test_listing_faults_come_in_chamber_key_order():
    full = build_negative(2)
    atlas = _damaged(lambda cs: [cs[0], *cs[2:5], *cs[6:], cs[0], cs[3]])
    got = [(k, v) for f in _connectivity_failures(atlas) for k, v in f.items() if k != "check"]
    twice, missing = "chamber-listed-twice", "chamber-not-listed"
    assert got == [(twice, repr(full.chambers[0])), (missing, repr(full.chambers[1])),
                   (twice, repr(full.chambers[3])), (missing, repr(full.chambers[5]))]


def test_a_disconnected_graph_is_still_named():
    full = build_negative(2)
    # drop every gluing at the least chamber: it is listed but cut off
    atlas = leaf_atlas.Atlas(
        kind=full.kind, character=full.character, bound=full.bound, chambers=full.chambers,
        gluings=[g for g in full.gluings
                 if full.chambers[0] not in (g.seg_a.chamber, g.seg_b.chamber)],
        truncated=full.truncated, singularities=full.singularities)
    assert _connectivity_failures(atlas) == [
        {"check": "connectivity", "connectivity": "chamber graph is disconnected"}]


def test_cli_names_a_duplicated_chamber(tmp_path, capsys):
    doc = json.loads(json.dumps(atlas_to_json_dict(build_negative(2))))
    doc["chambers"].append(doc["chambers"][0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert cli.run(["atlas", "check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL connectivity" in out and "chamber-listed-twice" in out
    assert "disconnected" not in out and "KeyError" not in out


# ---------------------------------------------------------------------------
# observability


def test_stats_span_the_key_pass_and_each_check(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ISOLEAF_STATS", raising=False)
    path = tmp_path / "a.json"
    assert cli.run(["atlas", "build", "--kind", "arithmetic", "--kmax", "5",
                    "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.run(["atlas", "check", str(path)]) == 0
    plain = capsys.readouterr().out
    rec_path = tmp_path / "run.json"
    assert cli.run(["--stats", str(rec_path), "atlas", "check", str(path)]) == 0
    assert capsys.readouterr().out == plain
    spans = json.loads(rec_path.read_text())["spans"]
    names = [line.split()[1] for line in plain.splitlines() if line.startswith("ok ")]
    sub = {s for s in spans if s.startswith("check.")}
    assert sub == {"check.keys"} | {f"check.{n}" for n in names}
    assert sum(spans[s] for s in sub) <= spans["check"]
