"""Deterministic SVG figures of leaf atlases and member surfaces.

Every picture is produced by the same small pipeline: exact world
coordinates (fractions, quadratic field elements evaluated once at
emission, or integers that count 1/40 world units in the wall tree and
quarter units in the negative panels) pass through a single affine
viewport map, set up once per scene, and are quantized to four decimals
only when written.  Equal inputs therefore give byte-identical SVG text,
and ratios of drawn lengths reproduce the exact coordinate ratios up to
that final quantization.

Pictures:

* positive atlases: the slit plane with one slit ray per cylinder
  chamber and a marker at each slit tip;
* negative atlases: one triangle panel per degenerate chamber (the
  exact chart triangle with the wall side's half-plane band);
* arithmetic atlases: the unfolded wall tree with edge-length labels;
* surfaces: cylinder parallelogram pairs, hexagon complements, and
  three-segment slit normal forms, with matched-side labels in red and
  black/white zero markers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from isoleaf.leaf_atlas import Atlas, CylChamber, DegChamber, wall_tree
from isoleaf.period_algebra import InvalidInput, IsoleafError
from isoleaf.surface_kernel import (
    CylinderSurface,
    HexagonSurface,
    InvalidSurface,
    SlitDegenerateSurface,
    TorusSurface,
)

__all__ = [
    "EmptyAtlas",
    "Scene",
    "Style",
    "render_atlas",
    "render_surface",
]


class EmptyAtlas(IsoleafError):
    """The atlas has no chambers to draw."""


@dataclass(frozen=True)
class Style:
    """Colors and sizes; the label color follows the red-label convention."""

    scale: int = 60  # pixels per world unit
    margin: Fraction = Fraction(3, 4)  # world units around the content
    stroke: str = "#222222"
    slit_color: str = "#222222"
    fill: str = "#f2f2f2"
    label_color: str = "#cc0000"
    marker_radius: float = 3.5
    font_size: int = 12

    def __post_init__(self) -> None:
        # the layouts add the margin to exact coordinates
        m = self.margin
        if isinstance(m, bool) or not isinstance(m, (int, Fraction)) or m < 0:
            raise InvalidInput(f"Style margin must be an int or Fraction >= 0, not {m!r}")


@dataclass
class Scene:
    """Exact drawing instructions: a rational viewport plus layers.

    Layers hold primitives in world coordinates; ``emit`` applies the one
    affine viewport map and quantizes to four decimals.  The viewport
    bounds are rationals (``Fraction`` or ``int``).  With ``unit`` above 1,
    every coordinate and bound is an exact count of 1/``unit`` world units.
    """

    xmin: Fraction
    ymin: Fraction
    xmax: Fraction
    ymax: Fraction
    style: Style = field(default_factory=Style)
    layers: list = field(default_factory=list)
    unit: int = 1

    # -- primitives (world coordinates, exact where possible) --------------

    def add_line(self, a, b, cls, dashed=False, color=None):
        self.layers.append(("line", (a, b), cls, dashed, color))

    def add_polygon(self, pts, cls, fill=None, color=None):
        self.layers.append(("polygon", tuple(pts), cls, fill, color))

    def add_marker(self, p, kind):
        self.layers.append(("marker", p, kind, None, None))

    def add_text(self, p, text, cls, color=None):
        self.layers.append(("text", p, text, cls, color))

    # -- emission -----------------------------------------------------------

    def _map(self):
        """The viewport map, world point to pixel floats, its per-scene
        constants read once.  An exact coordinate (a Fraction, or any one of a
        scene with a finer unit) is one exact quotient of integers, rounded
        once by true division (as float(Fraction) rounds it); other
        coordinates are mapped in floats."""
        s, u = self.style.scale, self.unit
        x0, y1 = self.xmin, self.ymax
        xn, xd, yn, yd = x0.numerator, x0.denominator, y1.numerator, y1.denominator
        fx0, fy1, exact = float(x0), float(y1), u != 1

        def pos(p):
            x, y = p
            if exact or isinstance(x, Fraction):
                px = (x.numerator * xd - xn * x.denominator) * s / (x.denominator * xd * u)
            else:
                px = (float(x) - fx0) * s
            if exact or isinstance(y, Fraction):
                py = (yn * y.denominator - y.numerator * yd) * s / (y.denominator * yd * u)
            else:
                py = (fy1 - float(y)) * s
            return px, py

        return pos

    def _fmt(self, v: float) -> str:
        out = f"{v:.4f}"
        return "0.0000" if out == "-0.0000" else out

    def emit(self) -> str:
        """The SVG text, as ElementTree would serialize it: attributes in
        insertion order, ``" />"`` closing empty elements, its escaping."""
        st, fmt, pos = self.style, self._fmt, self._map()
        attr = _Attrs()
        width = fmt(float((self.xmax - self.xmin) * st.scale / self.unit))
        height = fmt(float((self.ymax - self.ymin) * st.scale / self.unit))
        radius = fmt(st.marker_radius)
        font_size = attr(str(st.font_size))
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">'
            f'<rect class="bg" x="0" y="0" width="{width}" height="{height}" fill="#ffffff" />'
        ]
        for kind, geom, arg, extra, color in self.layers:
            if kind == "line":
                ax, ay = pos(geom[0])
                bx, by = pos(geom[1])
                dash = ' stroke-dasharray="5,4"' if extra else ""
                out.append(
                    f'<line class="{attr(arg)}" x1="{fmt(ax)}" y1="{fmt(ay)}" x2="{fmt(bx)}" '
                    f'y2="{fmt(by)}" stroke="{attr(color or st.stroke)}" '
                    f'stroke-width="1.5"{dash} />'
                )
            elif kind == "polygon":
                pts = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in map(pos, geom))
                out.append(
                    f'<polygon class="{attr(arg)}" points="{pts}" '
                    f'fill="{attr(extra or st.fill)}" stroke="{attr(color or st.stroke)}" '
                    f'stroke-width="1.2" />'
                )
            elif kind == "marker":
                x, y = pos(geom)
                out.append(
                    f'<circle class="{attr(f"marker-{arg}")}" cx="{fmt(x)}" cy="{fmt(y)}" '
                    f'r="{radius}" fill="{"#000000" if arg == "b" else "#ffffff"}" '
                    f'stroke="#000000" stroke-width="1.2" />'
                )
            elif kind == "text":
                x, y = pos(geom)
                head = (
                    f'<text class="{attr(extra)}" x="{fmt(x)}" y="{fmt(y)}" '
                    f'fill="{attr(color or st.label_color)}" font-family="monospace" '
                    f'font-size="{font_size}"'
                )
                out.append(f"{head}>{arg.translate(_TEXT_ESCAPES)}</text>" if arg else f"{head} />")
        out.append("</svg>\n")
        return "".join(out)


class _Attrs(dict):
    """Escaped attribute values, each distinct value escaped once."""

    def __call__(self, value: str) -> str:
        out = self.get(value)
        if out is None:
            out = self[value] = value.translate(_ATTR_ESCAPES)
        return out


# ElementTree's escaping: in attribute values these seven characters, in
# text the first three
_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
})
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


# ---------------------------------------------------------------------------
# exact coordinate helpers


def _fe_xy(value) -> tuple:
    """Exact (x, y) of a field element seen as a complex number."""
    if value.field.tag == "gaussian":
        return (value.a, value.b)
    if value.field.tag == "rational":
        return (value.a, Fraction(0))
    return (float(value), Fraction(0))  # quadratic: a real number


def _ec_xy(z) -> tuple:
    """Exact (x, y) of an ExactComplex."""
    xr, _ = _fe_xy(z.re)
    xi, _ = _fe_xy(z.im)
    return (xr, xi)


def _bounds(points):
    xs = [Fraction(p[0]) if isinstance(p[0], Fraction) else Fraction(float(p[0])) for p in points]
    ys = [Fraction(p[1]) if isinstance(p[1], Fraction) else Fraction(float(p[1])) for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def _in_units(value, unit: int):
    """``value`` as a count of 1/``unit`` world units: an int unless it is finer."""
    v = value * unit
    return v.numerator if v.denominator == 1 else v


def _scene(points, style: Style) -> Scene:
    xmin, ymin, xmax, ymax = _bounds(points)
    m = style.margin
    return Scene(xmin - m, ymin - m, xmax + m, ymax + m, style=style)


# ---------------------------------------------------------------------------
# atlases


def render_atlas(atlas: Atlas, style: Style | None = None) -> str:
    """One SVG figure of the atlas; the picture depends on the leaf kind."""
    if not atlas.chambers:
        raise EmptyAtlas("atlas has no chambers to draw")
    style = style or Style()
    if atlas.kind == "positive":
        return _render_positive(atlas, style)
    if atlas.kind == "negative":
        return _render_negative(atlas, style)
    if atlas.kind == "arith_real":
        return _render_wall_tree(atlas, style)
    if atlas.kind == "nonarith_real":
        return _render_nonarith(atlas, style)
    raise EmptyAtlas(f"no picture defined for atlas kind {atlas.kind!r}")


def _cyl_chambers(atlas: Atlas) -> list[CylChamber]:
    out = [c for c in atlas.chambers if isinstance(c, CylChamber)]
    return sorted(out, key=lambda c: c.sort_key())


def _render_positive(atlas: Atlas, style: Style) -> str:
    """Slit plane: one slit ray per cylinder chamber, marker at each tip."""
    chi = atlas.character
    edge = Fraction(atlas.bound + 1)
    scene = Scene(-edge, -edge, edge, edge, style=style)
    for c in _cyl_chambers(atlas):
        gx, gy = _fe_xy(chi.lattice_value(c.u))
        # the slit is { t * gamma : t >= 1 }; clip exactly at the viewport
        t_edge = edge / max(abs(gx), abs(gy))
        scene.add_line(
            (gx, gy), (gx * t_edge, gy * t_edge), "slit", color=style.slit_color
        )
        scene.add_marker((gx, gy), "b")
        scene.add_text(
            (gx + Fraction(1, 8), gy + Fraction(1, 8)),
            f"({c.u.m},{c.u.n})",
            "label",
        )
    scene.add_marker((Fraction(0), Fraction(0)), "w")
    return scene.emit()


def _triangle_of(triple):
    """Exact chart-triangle vertices (0, u1, -u2) of a degenerate chamber."""
    u1, u2, _ = triple.elements()
    return [(0, 0), (u1.m, u1.n), (-u2.m, -u2.n)]


def _render_negative(atlas: Atlas, style: Style) -> str:
    """A panel grid: the exact chart triangle of each degenerate chamber, laid
    out in integer quarter world units."""
    degs = sorted(
        (c for c in atlas.chambers if isinstance(c, DegChamber)),
        key=lambda c: c.sort_key(),
    )
    if not degs:
        raise EmptyAtlas("negative atlas has no degenerate chambers")
    tris = [_triangle_of(c.triple) for c in degs]
    span = max(abs(x) for t in tris for p in t for x in p) + 1
    ncols = max(1, int(len(degs) ** 0.5 + 0.5))
    nrows = -(-len(degs) // ncols)
    pitch = 2 * span + 1
    m = _in_units(style.margin, 4)
    scene = Scene(
        -4 * span - m, -4 * ((nrows - 1) * pitch + span) - m,
        4 * ((ncols - 1) * pitch + span) + m, 4 * span + m, style=style, unit=4,
    )
    for idx, (c, tri) in enumerate(zip(degs, tris)):
        row, col = divmod(idx, ncols)
        ox, oy = 4 * col * pitch, -4 * row * pitch
        pts = [(ox + 4 * x, oy + 4 * y) for x, y in tri]
        scene.add_polygon(pts, "chamber")
        # half-plane band along the wall side (the side from 0 to u1); both
        # ends are multiples of 4, so the quarter offset is exact
        a, b = pts[0], pts[1]
        nx, ny = (b[1] - a[1]) // 4, (a[0] - b[0]) // 4
        band = [a, b, (b[0] + nx, b[1] + ny), (a[0] + nx, a[1] + ny)]
        scene.add_polygon(band, "halfplane", fill="#e0e8f0")
        label = "".join(f"({e.m},{e.n})" for e in c.triple.elements())
        scene.add_text((ox - 4 * span + 1, oy + 4 * span - 1), label, "label")
    return scene.emit()


def _tree_widths(node, out: dict) -> int:
    """Leaf count of each subtree, filled into ``out`` by node id."""
    w = sum(_tree_widths(c, out) for c in node.children) if node.children else 1
    out[id(node)] = w
    return w


def _place(node, x0: int, depth: int, parent, width: dict, positions: list, edges: list):
    """Lay out the subtree of ``node`` from column ``x0`` at row ``depth``, in 1/40 units."""
    here = (40 * x0 + 20 * width[id(node)], -40 * depth)
    positions.append((here, node.truncated))
    edges.append((parent, here, node.length, node.truncated))
    cx = x0
    for child in node.children:
        _place(child, cx, depth + 1, here, width, positions, edges)
        cx += width[id(child)]


def _render_wall_tree(atlas: Atlas, style: Style) -> str:
    """The unfolded wall tree, rooted at the center, edge lengths in red."""
    tree = wall_tree(atlas)
    positions: list[tuple] = []
    edges: list[tuple] = []
    width: dict = {}
    total = sum(_tree_widths(b, width) for b in tree.branches) or 1
    rootp = (20 * total, 0)
    cx = 0
    for b in tree.branches:
        _place(b, cx, 1, rootp, width, positions, edges)
        cx += width[id(b)]

    xs, ys = zip(rootp, *(p for p, _ in positions))
    m = _in_units(style.margin, 40)
    scene = Scene(min(xs) - m, min(ys) - m, max(xs) + m, max(ys) + m, style=style, unit=40)
    for parent, here, length, truncated in edges:
        scene.add_line(parent, here, "wall", dashed=truncated)
        mid = ((parent[0] + here[0]) // 2 + 4, (parent[1] + here[1]) // 2)
        scene.add_text(mid, str(length), "length")
    scene.add_marker(rootp, "w")
    scene.add_text((rootp[0] + 5, rootp[1] + 10), "center", "label")
    for p, truncated in positions:
        scene.add_marker(p, "w" if truncated else "b")
    return scene.emit()


def _render_nonarith(atlas: Atlas, style: Style) -> str:
    """Cylinder chambers of a non-arithmetic leaf on the real period line."""
    chi = atlas.character
    chambers = _cyl_chambers(atlas)
    if not chambers:
        raise EmptyAtlas("non-arithmetic atlas has no cylinder chambers")
    marks = []
    for c in chambers:
        x, _ = _fe_xy(chi.lattice_value(c.u))
        marks.append((c, float(x)))
    marks.sort(key=lambda t: (t[1], t[0].sort_key()))
    lo = min(x for _, x in marks) - 1
    hi = max(x for _, x in marks) + 1
    scene = Scene(
        Fraction(float(lo)), Fraction(-2), Fraction(float(hi)), Fraction(2),
        style=style,
    )
    scene.add_line((lo, 0), (hi, 0), "axis")
    for c, x in marks:
        scene.add_line((x, Fraction(-1, 4)), (x, Fraction(1, 4)), "slit")
        scene.add_marker((x, 0), "b")
        scene.add_text((x, Fraction(1, 2)), f"({c.u.m},{c.u.n})", "label")
    return scene.emit()


# ---------------------------------------------------------------------------
# surfaces


def render_surface(surface, style: Style | None = None) -> str:
    """One SVG figure of a member surface with red matched-side labels."""
    style = style or Style()
    if isinstance(surface, CylinderSurface):
        return _render_cylinder(surface, style)
    if isinstance(surface, HexagonSurface):
        return _render_hexagon(surface, style)
    if isinstance(surface, SlitDegenerateSurface):
        return _render_slit(surface, style)
    if isinstance(surface, TorusSurface):
        return _render_torus(surface, style)
    raise InvalidSurface(f"no picture defined for {type(surface).__name__}")


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _render_cylinder(surface: CylinderSurface, style: Style) -> str:
    """Two marked parallelograms stacked along the slit seam."""
    u = _fe_xy(surface.core_period())
    v = _fe_xy(surface.crossing_period())
    z = _ec_xy(surface.z)
    o = (Fraction(0), Fraction(0))
    quad_a = [o, u, _add(u, z), z]
    quad_b = [z, _add(z, u), _add(u, v), v]
    scene = _scene(quad_a + quad_b, style)
    scene.add_polygon(quad_a, "quad")
    scene.add_polygon(quad_b, "quad", fill="#e6eef6")

    def mid(p, q, off=(0, 0)):
        return (
            (p[0] + q[0]) / 2 + Fraction(off[0]),
            (p[1] + q[1]) / 2 + Fraction(off[1]),
        )

    eighth = Fraction(1, 8)
    # matched sides: the two vertical sides of each parallelogram, the
    # outer bottom/top pair, and the two halves of the slit seam
    scene.add_text(mid(o, z, (-3 * eighth, 0)), "a", "ident")
    scene.add_text(mid(u, _add(u, z), (eighth, 0)), "a'", "ident")
    scene.add_text(mid(z, v, (-3 * eighth, 0)), "b", "ident")
    scene.add_text(mid(_add(z, u), _add(u, v), (eighth, 0)), "b'", "ident")
    scene.add_text(mid(o, u, (0, -3 * eighth)), "c", "ident")
    scene.add_text(mid(v, _add(u, v), (0, 2 * eighth)), "c'", "ident")
    scene.add_text(mid(z, _add(z, u), (-2 * eighth, -2 * eighth)), "d", "ident")
    scene.add_text(mid(z, _add(z, u), (2 * eighth, 2 * eighth)), "d'", "ident")
    scene.add_line(z, _add(z, u), "seam", color=style.label_color)
    scene.add_marker(o, "b")
    scene.add_marker(u, "b")
    scene.add_marker(z, "w")
    scene.add_marker(_add(z, u), "w")
    return scene.emit()


def _render_hexagon(surface: HexagonSurface, style: Style) -> str:
    """The hexagon complement: shaded outside, matched opposite sides."""
    corners = surface.corners()
    order = ["B1", "W1", "B2", "W2", "B3", "W3"]
    pts = {name: _ec_xy(corners[name]) for name in order}
    scene = _scene(list(pts.values()), style)
    # the surface is the complement: shade everything, cut the hexagon out
    scene.add_polygon(
        [
            (scene.xmin, scene.ymin),
            (scene.xmax, scene.ymin),
            (scene.xmax, scene.ymax),
            (scene.xmin, scene.ymax),
        ],
        "complement",
        fill="#e8e8e8",
    )
    scene.add_polygon([pts[n] for n in order], "hexagon", fill="#ffffff")
    # edge naming follows corner adjacency around the hexagon
    sides = {
        "B1W1": ("B1", "W1"),
        "W1B2": ("W1", "B2"),
        "B2W2": ("B2", "W2"),
        "W2B3": ("W2", "B3"),
        "B3W3": ("B3", "W3"),
        "W3B1": ("W3", "B1"),
    }
    opposite = [("B1W1", "W2B3", "a"), ("W1B2", "B3W3", "b"), ("B2W2", "W3B1", "c")]
    for near, far, letter in opposite:
        for name, label in ((near, letter), (far, letter + "'")):
            a, b = sides[name]
            mx = (Fraction(pts[a][0]) + Fraction(pts[b][0])) / 2
            my = (Fraction(pts[a][1]) + Fraction(pts[b][1])) / 2
            scene.add_text((mx, my), label, "ident")
    for name in order:
        scene.add_marker(pts[name], "b" if name.startswith("B") else "w")
        scene.add_text(
            (Fraction(pts[name][0]) + Fraction(1, 8),
             Fraction(pts[name][1]) + Fraction(1, 8)),
            name,
            "corner",
            color="#555555",
        )
    return scene.emit()


def _render_slit(surface: SlitDegenerateSurface, style: Style) -> str:
    """The three-segment slit with upper A,B,C matched to lower C',B',A'."""
    l1, l2, l3 = (Fraction(_fe_xy(v)[0]) for v in surface.lengths())
    total = l1 + l2 + l3
    cuts_upper = [Fraction(0), l1, l1 + l2, total]
    cuts_lower = [Fraction(0), l3, l3 + l2, total]
    scene = Scene(-Fraction(1), -Fraction(3, 2), total + 1, Fraction(3, 2),
                  style=style)
    scene.add_line((Fraction(0), Fraction(0)), (total, Fraction(0)), "slit")
    up = Fraction(1, 5)
    for (a, b), letter in zip(zip(cuts_upper, cuts_upper[1:]), "ABC"):
        scene.add_text(((a + b) / 2, up), letter, "ident")
    for (a, b), letter in zip(zip(cuts_lower, cuts_lower[1:]), ("C'", "B'", "A'")):
        scene.add_text(((a + b) / 2, -2 * up), letter, "ident")
    for x in cuts_upper[1:-1]:
        scene.add_line((x, Fraction(0)), (x, up / 2), "cut")
    for x in cuts_lower[1:-1]:
        scene.add_line((x, -up / 2), (x, Fraction(0)), "cut")
    left, right = ("b", "w") if surface.b_at_left else ("w", "b")
    scene.add_marker((Fraction(0), Fraction(0)), left)
    scene.add_marker((total, Fraction(0)), right)
    return scene.emit()


def _render_torus(surface: TorusSurface, style: Style) -> str:
    """Fundamental parallelogram of the torus with the slit drawn inside."""
    chi = surface.chi
    g1 = _fe_xy(chi.g1)
    g2 = _fe_xy(chi.g2)
    alpha = _ec_xy(surface.alpha)
    o = (Fraction(0), Fraction(0))
    quad = [o, g1, _add(g1, g2), g2]
    base = (
        (Fraction(g1[0]) + Fraction(g2[0])) / 4,
        (Fraction(g1[1]) + Fraction(g2[1])) / 4,
    )
    tip = _add(base, alpha)
    scene = _scene(quad + [base, tip], style)
    scene.add_polygon(quad, "quad")
    scene.add_line(base, tip, "slit", color=style.label_color)
    scene.add_marker(base, "b")
    scene.add_marker(tip, "w")
    scene.add_text(_add(base, (Fraction(1, 8), Fraction(1, 8))), "B", "corner",
                   color="#555555")
    scene.add_text(_add(tip, (Fraction(1, 8), Fraction(1, 8))), "W", "corner",
                   color="#555555")
    return scene.emit()
