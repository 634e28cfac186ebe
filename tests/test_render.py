"""SVG figures: determinism, exact counts, affine-ratio fidelity."""

import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoleaf.leaf_atlas import (
    Atlas,
    DegChamber,
    atlas_from_json_dict,
    atlas_to_json_dict,
    build_arithmetic,
    build_negative,
    build_nonarith,
    build_positive,
    wall_tree,
)
from isoleaf.period_algebra import (
    GroundField,
    InvalidInput,
    LatticeElement,
    PeriodCharacter,
)
from isoleaf.render import EmptyAtlas, Scene, Style, render_atlas, render_surface
from isoleaf.surface_kernel import (
    CylinderSurface,
    InvalidSurface,
    SlitDegenerateSurface,
    TorusSurface,
    to_exact_complex,
)
from paper_model import hexagon_from_rotation

QI = GroundField.gaussian()
CHI_POS = PeriodCharacter.gaussian((1, 0), (0, 1))
CHI_NEG = PeriodCharacter.gaussian((1, 0), (0, -1))


def gz(a, b=0):
    return to_exact_complex(QI.element(a, b))


def elements(svg, cls):
    return [e for e in ET.fromstring(svg).iter() if e.get("class") == cls]


def texts(svg, cls):
    return [e.text for e in elements(svg, cls)]


def line_length(el):
    dx = float(el.get("x2")) - float(el.get("x1"))
    dy = float(el.get("y2")) - float(el.get("y1"))
    return math.hypot(dx, dy)


REF_ROT = (LatticeElement(1, 0), LatticeElement(0, 1), LatticeElement(-1, -1))


class TestAtlasFigures:
    def test_positive_slit_and_marker_counts(self):
        svg = render_atlas(build_positive(1))
        assert len(elements(svg, "slit")) == 8
        assert len(elements(svg, "marker-b")) == 8

    def test_positive_slit_count_grows_with_bound(self):
        svg = render_atlas(build_positive(2))
        assert len(elements(svg, "slit")) == 16

    def test_determinism(self):
        for make in (
            lambda: render_atlas(build_positive(1)),
            lambda: render_atlas(build_negative(2)),
            lambda: render_atlas(build_arithmetic(3)),
        ):
            assert make() == make()

    def test_negative_panel_per_degenerate_chamber(self):
        atlas = build_negative(2)
        svg = render_atlas(atlas)
        deg = sum(1 for c in atlas.chambers if isinstance(c, DegChamber))
        assert len(elements(svg, "chamber")) == deg
        assert len(elements(svg, "halfplane")) == deg

    def test_arithmetic_tree_root_degree_two(self):
        svg = render_atlas(build_arithmetic(2))
        root = elements(svg, "marker-w")[0]
        rx, ry = root.get("cx"), root.get("cy")
        incident = [
            e
            for e in elements(svg, "wall")
            if (e.get("x1"), e.get("y1")) == (rx, ry)
            or (e.get("x2"), e.get("y2")) == (rx, ry)
        ]
        assert len(incident) == 2

    def test_arithmetic_edge_length_labels(self):
        svg = render_atlas(build_arithmetic(2))
        labels = texts(svg, "length")
        assert labels and all(lbl for lbl in labels)

    def test_nonarith_axis_picture(self):
        F = GroundField.quadratic(2)
        atlas = build_nonarith(F.element(-1, 1), 1)
        svg = render_atlas(atlas)
        assert len(elements(svg, "marker-b")) == len(atlas.chambers)

    def test_empty_atlas_rejected(self):
        empty = Atlas(
            kind="positive",
            character=CHI_POS,
            bound=0,
            chambers=[],
            gluings=[],
            truncated=[],
            singularities=[],
        )
        with pytest.raises(EmptyAtlas):
            render_atlas(empty)

    def test_affine_ratios(self):
        # drawn slit lengths must reproduce the exact coordinate ratios:
        # the slit over gamma runs from gamma to the viewport edge, so
        # its drawn length is (t_edge - 1)|gamma| under one affine map
        svg = render_atlas(build_positive(1))
        lines = elements(svg, "slit")
        lengths = sorted(line_length(e) for e in lines)
        # bound 1: four axis slits run from gamma to 2 gamma with
        # |gamma| = 1, four diagonal slits likewise with |gamma| = sqrt 2
        assert len(lengths) == 8
        for a, b in zip(lengths[:4], lengths[1:4]):
            assert a == pytest.approx(b, abs=1e-2)
        for a, b in zip(lengths[4:], lengths[5:]):
            assert a == pytest.approx(b, abs=1e-2)
        assert lengths[7] / lengths[0] == pytest.approx(math.sqrt(2), abs=1e-3)

    def test_custom_style_scale(self):
        small = render_atlas(build_positive(1), Style(scale=30))
        big = render_atlas(build_positive(1), Style(scale=60))
        w_small = float(ET.fromstring(small).get("width"))
        w_big = float(ET.fromstring(big).get("width"))
        assert w_big == pytest.approx(2 * w_small)


class TestSurfaceFigures:
    def cylinder(self):
        return CylinderSurface(
            CHI_POS,
            LatticeElement(1, 0),
            LatticeElement(0, 1),
            gz(0, Fraction(-1, 2)),
        )

    def hexagon(self):
        return hexagon_from_rotation(
            CHI_NEG, REF_ROT, gz(Fraction(1, 5), Fraction(1, 5))
        )

    def test_cylinder_two_quads_four_identifications(self):
        svg = render_surface(self.cylinder())
        assert len(elements(svg, "quad")) == 2
        letters = {t.rstrip("'") for t in texts(svg, "ident")}
        assert letters == {"a", "b", "c", "d"}
        assert len(texts(svg, "ident")) == 8

    def test_cylinder_zero_markers(self):
        svg = render_surface(self.cylinder())
        assert len(elements(svg, "marker-b")) == 2
        assert len(elements(svg, "marker-w")) == 2

    def test_hexagon_three_matched_pairs(self):
        svg = render_surface(self.hexagon())
        assert len(elements(svg, "hexagon")) == 1
        assert len(elements(svg, "complement")) == 1
        letters = sorted(texts(svg, "ident"))
        assert letters == ["a", "a'", "b", "b'", "c", "c'"]
        assert len(elements(svg, "marker-b")) == 3
        assert len(elements(svg, "marker-w")) == 3

    def test_slit_segment_labels(self):
        svg = render_surface(SlitDegenerateSurface.from_rationals(1, 1, 1))
        assert texts(svg, "ident") == ["A", "B", "C", "C'", "B'", "A'"]

    def test_slit_marking_side(self):
        left = SlitDegenerateSurface.from_rationals(1, 2, 3)
        svg = render_surface(left)
        blk = elements(svg, "marker-b")[0]
        wht = elements(svg, "marker-w")[0]
        assert float(blk.get("cx")) < float(wht.get("cx"))
        svg = render_surface(left.swap_marking())
        blk = elements(svg, "marker-b")[0]
        wht = elements(svg, "marker-w")[0]
        assert float(blk.get("cx")) > float(wht.get("cx"))

    def test_slit_lengths_affine(self):
        svg = render_surface(SlitDegenerateSurface.from_rationals(1, 2, 3))
        cuts = elements(svg, "cut")
        xs = sorted({float(e.get("x1")) for e in cuts})
        slit = elements(svg, "slit")[0]
        x0 = float(slit.get("x1"))
        # upper cuts at 1 and 3, lower cuts at 3 and 5 along a length-6 slit
        rel = sorted((x - x0) / (line_length(slit)) for x in xs)
        assert rel == pytest.approx([1 / 6, 3 / 6, 5 / 6], abs=1e-3)

    def test_torus_figure(self):
        svg = render_surface(TorusSurface(CHI_POS, gz(Fraction(1, 2))))
        assert len(elements(svg, "quad")) == 1
        assert len(elements(svg, "slit")) == 1

    def test_determinism(self):
        for surf in (
            self.cylinder(),
            self.hexagon(),
            SlitDegenerateSurface.from_rationals(1, 1, 1),
        ):
            assert render_surface(surf) == render_surface(surf)

    def test_unknown_object_rejected(self):
        with pytest.raises(InvalidSurface):
            render_surface(object())

    def test_valid_xml_with_declaration(self):
        svg = render_surface(self.cylinder())
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        ET.fromstring(svg)  # parses


# ---------------------------------------------------------------------------
# the viewport map


def model_map(scene, p):
    """The viewport map as first written: Fraction arithmetic, then float."""
    x, y = p
    s = scene.style.scale
    px = (Fraction(x) - scene.xmin) * s if isinstance(x, Fraction) else (
        float(x) - float(scene.xmin)
    ) * s
    py = (scene.ymax - Fraction(y)) * s if isinstance(y, Fraction) else (
        float(scene.ymax) - float(y)
    ) * s
    return float(px), float(py)


_fractions = st.one_of(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30)),
)
_coords = st.one_of(
    _fractions,
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(-1000, 1000),
)


class TestViewportMap:
    @given(
        x=_coords,
        y=_coords,
        xmin=_fractions,
        ymax=_fractions,
        scale=st.integers(1, 500),
    )
    @example(x=Fraction(-1, 10**7), y=Fraction(1, 10**7), xmin=Fraction(0),
             ymax=Fraction(0), scale=60)
    @example(x=Fraction(1, 3), y=-0.0, xmin=Fraction(1, 3), ymax=Fraction(0), scale=60)
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_fraction_model(self, x, y, xmin, ymax, scale):
        scene = Scene(xmin, xmin - 1, ymax + 1, ymax, style=Style(scale=scale))
        got = scene._map()((x, y))
        want = model_map(scene, (x, y))
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert [scene._fmt(v) for v in got] == [scene._fmt(v) for v in want]

    def test_negative_zero_is_written_as_zero(self):
        scene = Scene(Fraction(0), Fraction(-1), Fraction(1), Fraction(0))
        px, py = scene._map()((Fraction(-1, 10**7), Fraction(1, 10**7)))
        assert px < 0 and py < 0
        assert scene._fmt(px) == scene._fmt(py) == "0.0000"


# ---------------------------------------------------------------------------
# the SVG writer against ElementTree


def et_emit(scene):
    """The SVG text of ``scene`` as ElementTree writes it: the reference the
    text writer of `Scene.emit` must match byte for byte."""
    st_, fmt, pos = scene.style, scene._fmt, scene._map()
    width = fmt(float((scene.xmax - scene.xmin) * st_.scale / scene.unit))
    height = fmt(float((scene.ymax - scene.ymin) * st_.scale / scene.unit))
    root = ET.Element("svg", {"xmlns": "http://www.w3.org/2000/svg", "version": "1.1",
                              "width": width, "height": height,
                              "viewBox": f"0 0 {width} {height}"})
    ET.SubElement(root, "rect", {"class": "bg", "x": "0", "y": "0", "width": width,
                                 "height": height, "fill": "#ffffff"})
    for kind, geom, arg, extra, color in scene.layers:
        if kind == "line":
            (ax, ay), (bx, by) = map(pos, geom)
            attrs = {"class": arg, "x1": fmt(ax), "y1": fmt(ay), "x2": fmt(bx), "y2": fmt(by),
                     "stroke": color or st_.stroke, "stroke-width": "1.5"}
            if extra:
                attrs["stroke-dasharray"] = "5,4"
            ET.SubElement(root, "line", attrs)
        elif kind == "polygon":
            pts = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in map(pos, geom))
            ET.SubElement(root, "polygon", {"class": arg, "points": pts, "fill": extra or st_.fill,
                                            "stroke": color or st_.stroke, "stroke-width": "1.2"})
        elif kind == "marker":
            x, y = pos(geom)
            ET.SubElement(root, "circle", {
                "class": f"marker-{arg}", "cx": fmt(x), "cy": fmt(y),
                "r": fmt(st_.marker_radius), "fill": "#000000" if arg == "b" else "#ffffff",
                "stroke": "#000000", "stroke-width": "1.2"})
        elif kind == "text":
            x, y = pos(geom)
            el = ET.SubElement(root, "text", {
                "class": extra, "x": fmt(x), "y": fmt(y), "fill": color or st_.label_color,
                "font-family": "monospace", "font-size": str(st_.font_size)})
            el.text = arg
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode") + "\n"


# the characters ElementTree escapes, among others and non-ASCII ones
_markup = st.text(
    st.one_of(st.sampled_from('&<>"\r\n\t\'; #=/'), st.characters()), max_size=12
)
_styles = st.builds(
    Style,
    stroke=_markup,
    slit_color=_markup,
    fill=_markup,
    label_color=_markup,
    font_size=st.integers(1, 40),
    marker_radius=st.floats(0, 20),
)
_points = st.tuples(st.fractions(-5, 5, max_denominator=50), st.fractions(-5, 5, max_denominator=50))
_layers = st.lists(
    st.one_of(
        st.tuples(st.just("line"), st.tuples(_points, _points), _markup, st.booleans(),
                  st.none() | _markup),
        st.tuples(st.just("polygon"), st.lists(_points, min_size=1, max_size=4).map(tuple),
                  _markup, st.none() | _markup, st.none() | _markup),
        st.tuples(st.just("marker"), _points, st.sampled_from("bw") | _markup, st.none(),
                  st.none()),
        st.tuples(st.just("text"), _points, _markup, _markup, st.none() | _markup),
    ),
    max_size=8,
)


class TestTextWriter:
    @given(style=_styles, layers=_layers)
    @example(style=Style(), layers=[("text", (Fraction(0), Fraction(0)), "", "label", None)])
    @example(style=Style(stroke='a&b<c>d"e\r\n\tfé☃'),
             layers=[("line", ((0, 0), (1, 1)), "x&y", True, None),
                     ("text", ((0, 0)), '<&>"\r\n\té', 'c"\t', "☃")])
    @settings(max_examples=300, deadline=None)
    def test_matches_elementtree(self, style, layers):
        scene = Scene(Fraction(-6), Fraction(-6), Fraction(6), Fraction(6), style=style,
                      layers=list(layers))
        assert scene.emit() == et_emit(scene)

    @pytest.mark.parametrize("build", [
        lambda: build_arithmetic(12), lambda: build_negative(4), lambda: build_positive(4),
        lambda: build_nonarith(GroundField.quadratic(2).element(0, 1), 4),
    ])
    def test_atlas_figures_match_elementtree(self, build, monkeypatch):
        emitted = []
        monkeypatch.setattr(Scene, "emit", lambda scene: emitted.append(scene) or "")
        render_atlas(build())
        (scene,) = emitted
        monkeypatch.undo()
        assert scene.emit() == et_emit(scene)


# ---------------------------------------------------------------------------
# the integer wall-tree layout against the Fraction layout


def fraction_wall_tree(atlas, style):
    """The wall-tree SVG laid out in world-unit Fractions, as first written:
    the reference the 1/40 integer layout of `render_atlas` must match byte
    for byte."""
    tree = wall_tree(atlas)
    positions, edges, width = [], [], {}

    def widths(node):
        width[id(node)] = sum(map(widths, node.children)) if node.children else 1
        return width[id(node)]

    def place(node, x0, depth, parent):
        here = (x0 + Fraction(width[id(node)], 2), Fraction(-depth))
        positions.append((here, node.truncated))
        edges.append((parent, here, node.length, node.truncated))
        for child in node.children:
            place(child, x0, depth + 1, here)
            x0 += width[id(child)]

    total = sum(map(widths, tree.branches)) or 1
    rootp = (Fraction(total, 2), Fraction(0))
    x0 = 0
    for b in tree.branches:
        place(b, x0, 1, rootp)
        x0 += width[id(b)]
    pts = [rootp] + [p for p, _ in positions]
    xs, ys = [Fraction(p[0]) for p in pts], [Fraction(p[1]) for p in pts]
    m = style.margin
    scene = Scene(min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m, style=style)
    for parent, here, length, truncated in edges:
        scene.add_line(parent, here, "wall", dashed=truncated)
        mid = ((parent[0] + here[0]) / 2 + Fraction(1, 10), (parent[1] + here[1]) / 2)
        frac = Fraction(length)
        scene.add_text(mid, str(frac.numerator) if frac.denominator == 1 else str(frac), "length")
    scene.add_marker(rootp, "w")
    scene.add_text((rootp[0] + Fraction(1, 8), rootp[1] + Fraction(1, 4)), "center", "label")
    for p, truncated in positions:
        scene.add_marker(p, "w" if truncated else "b")
    return scene.emit()


def _loaded(doc):
    return atlas_from_json_dict(json.loads(json.dumps(doc)))


def _unshared_doc(atlas):
    # one call's JSON shares equal leaves, and copy.deepcopy keeps that
    # sharing; a text round trip gives each record its own dicts
    return json.loads(json.dumps(atlas_to_json_dict(atlas)))


def _plus_walls(doc):
    return [g["a"] for g in doc["gluings"] if g["a"]["chamber"]["sign"] == 1]


def _root_wall(doc):
    # the plus-side wall of CC^+_{1,0} on (0, 1), which ends at the center
    return next(a for a in _plus_walls(doc)
                if a["chamber"]["k"] == "1" and a["lo"] == [["0", "1"]])


def _half_ends(doc):
    _root_wall(doc).update(lo=[["1", "2"]], hi=[["3", "2"]])


def _half_root(doc):
    _root_wall(doc)["hi"] = [["1", "2"]]


def _three_gluings(doc):
    doc["gluings"] = doc["gluings"][:3]


def _swapped_root(doc):
    a = _root_wall(doc)
    a["lo"], a["hi"] = a["hi"], a["lo"]


def _all_swapped(doc):
    for a in _plus_walls(doc):
        a["lo"], a["hi"] = a["hi"], a["lo"]


class TestWallTreeLayout:
    @pytest.mark.parametrize("kmax", range(1, 17))
    def test_matches_fraction_layout(self, kmax):
        atlas = build_arithmetic(kmax)
        for a in (atlas, _loaded(atlas_to_json_dict(atlas))):
            assert render_atlas(a) == fraction_wall_tree(a, Style())

    @pytest.mark.parametrize("kmax", [2, 5, 8])
    @pytest.mark.parametrize(
        "damage", [_half_ends, _half_root, _three_gluings, _swapped_root, _all_swapped]
    )
    def test_malformed_atlas_matches_fraction_layout(self, kmax, damage):
        # loadable atlases whose walls end off the stars, whose tree is cut,
        # or whose lengths are negative or half-integers
        doc = _unshared_doc(build_arithmetic(kmax))
        damage(doc)
        atlas = _loaded(doc)
        assert render_atlas(atlas) == fraction_wall_tree(atlas, Style())

    @pytest.mark.parametrize(
        "style",
        [Style(scale=7), Style(margin=Fraction(1, 3)), Style(margin=2, scale=1)],
        ids=["scale-7", "margin-1/3", "margin-2"],
    )
    def test_custom_style_matches_fraction_layout(self, style):
        # a margin finer than 1/40 leaves the viewport a Fraction of 1/40 units
        atlas = build_arithmetic(6)
        assert render_atlas(atlas, style) == fraction_wall_tree(atlas, style)


# ---------------------------------------------------------------------------
# the integer negative-panel layout against the Fraction layout


def fraction_negative(atlas, style):
    """The negative panel grid laid out in world-unit Fractions, as first
    written: the reference the quarter-unit integer layout of `render_atlas`
    must match byte for byte."""
    degs = sorted((c for c in atlas.chambers if isinstance(c, DegChamber)),
                  key=lambda c: c.sort_key())
    tris = []
    for c in degs:
        u1, u2, _ = c.triple.elements()
        tris.append([(0, 0), (u1.m, u1.n), (-u2.m, -u2.n)])
    span = max(max(abs(Fraction(x)) for p in t for x in p) for t in tris) + Fraction(1)
    ncols = max(1, int(len(degs) ** 0.5 + Fraction(1, 2)))
    pitch = 2 * span + 1
    panels = []
    for idx in range(len(degs)):
        row, col = divmod(idx, ncols)
        panels.append((Fraction(col * pitch), Fraction(-row * pitch)))
    xs = [ox + d for ox, _ in panels for d in (-span, span)]
    ys = [oy + d for _, oy in panels for d in (-span, span)]
    m = style.margin
    scene = Scene(min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m, style=style)
    for c, tri, (ox, oy) in zip(degs, tris, panels):
        pts = [(ox + Fraction(x), oy + Fraction(y)) for x, y in tri]
        scene.add_polygon(pts, "chamber")
        a, b = pts[0], pts[1]
        nx, ny = Fraction(b[1] - a[1]) / 4, Fraction(a[0] - b[0]) / 4
        band = [a, b, (b[0] + nx, b[1] + ny), (a[0] + nx, a[1] + ny)]
        scene.add_polygon(band, "halfplane", fill="#e0e8f0")
        label = "".join(f"({e.m},{e.n})" for e in c.triple.elements())
        scene.add_text((ox - span + Fraction(1, 4), oy + span - Fraction(1, 4)), label, "label")
    return scene.emit()


class TestNegativeLayout:
    @pytest.mark.parametrize("bound", range(1, 9))
    def test_matches_fraction_layout(self, bound):
        # the grids of bounds 3 and up end in a partial row (bound 3: 28
        # panels in 5 columns, 3 in the last row)
        atlas = build_negative(bound)
        for a in (atlas, _loaded(atlas_to_json_dict(atlas))):
            assert render_atlas(a) == fraction_negative(a, Style())

    @pytest.mark.parametrize(
        "style",
        [Style(margin=Fraction(1, 3)), Style(scale=17), Style(margin=0)],
        ids=["margin-1/3", "scale-17", "margin-0"],
    )
    def test_custom_style_matches_fraction_layout(self, style):
        # a margin finer than 1/4 leaves the viewport a Fraction of 1/4 units
        atlas = build_negative(3)
        assert render_atlas(atlas, style) == fraction_negative(atlas, style)


class TestStyleMargin:
    @pytest.mark.parametrize("margin", [0.5, -1, "1", True], ids=["float", "negative", "str", "bool"])
    def test_rejected_at_construction_in_one_line(self, margin):
        with pytest.raises(InvalidInput) as e:
            Style(margin=margin)
        assert "\n" not in str(e.value)


def hand_embedding(value):
    """The real number ``a + b sqrt(D)`` as the renderer once computed it."""
    return float(value.a) + float(value.b) * float(value.field.D) ** 0.5


def test_float_of_quadratic_element_is_the_hand_embedding():
    rng = random.Random(1818)
    for D in (2, 3, 5, 6, 7, 10, 11, 13, 15):
        F = GroundField.quadratic(D)
        for _ in range(2000):
            big = rng.random() < 0.25
            a, b = (Fraction(rng.randint(-10**30, 10**30) if big else rng.randint(-999, 999),
                             rng.randint(1, 10**20 if big else 60)) for _ in range(2))
            x = F.element(a, b)
            assert float(x).hex() == hand_embedding(x).hex(), (D, a, b)
