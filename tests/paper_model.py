"""Paper-model helpers and reference oracles that the library does not run.

Each definition here states a piece of the paper's model or an earlier,
pointwise form of a check, and the tests hold the library's runtime code
to it.  No ``isoleaf`` module imports this file.  The former methods are
plain functions of their old receiver: ``surf.black_triangle_area()`` is
``black_triangle_area(surf)``.

* from ``surface_kernel``: the core trichotomy (`CoreType`, `core_type`,
  `volume_constraint_check`), `hexagon_from_rotation`, the hexagon edge
  pairings, black-triangle area and corner angles, and the pointwise wall
  surface `cylinder_boundary_surface` with its `PinchedTorus` tag;
* from ``leaf_atlas``: the pointwise wall match `wall_surface_match`, the
  single-record `glue_target` and the descent `arithmetic_reachability`
  built on it, `adjacency_graph`, and `_cross`, one step of the star walk;
* from ``period_algebra``: `change_basis`, `galois_conjugate` and
  `symbol_square`;
* from ``veech``: `gamma_element`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import atan2, pi

from isoleaf.leaf_atlas import (
    Atlas,
    BadSegment,
    CylArithChamber,
    Gluing,
    _admissible_pairs,
    _germ_key,
    _is_canonical,
    _plus_records,
    _to_fe,
    _Unglued,
)
from isoleaf.period_algebra import (
    CharacteristicTriple,
    FieldElement,
    GroundField,
    IsoleafError,
    LatticeElement,
    Mat2,
    PeriodCharacter,
    mat2_det,
)
from isoleaf.surface_kernel import (
    CylinderSurface,
    ExactComplex,
    HexagonSurface,
    InvalidSurface,
    PointInH2m2,
    SlitDegenerateSurface,
    TorusSurface,
    _as_real_exact,
    cylinder_boundary_form,
    to_exact_complex,
)

# ---------------------------------------------------------------------------
# surface_kernel: core trichotomy


class CoreType(enum.Enum):
    """Shape of the interior of the core (convex hull of the zeros)."""

    TorusType = "torus"
    CylinderType = "cylinder"
    DegenerateType = "degenerate"


def core_type(surface) -> CoreType:
    """The core trichotomy of a valid surface.

    Raises
    ------
    InvalidSurface
        If the value is not one of the recognized surface types (type
        invariants themselves are enforced at construction).
    """
    if isinstance(surface, TorusSurface):
        return CoreType.TorusType
    if isinstance(surface, CylinderSurface):
        return CoreType.CylinderType
    if isinstance(surface, (HexagonSurface, SlitDegenerateSurface)):
        return CoreType.DegenerateType
    raise InvalidSurface(f"not a translation surface of this stratum: {surface!r}")


def volume_constraint_check(surface, chi: PeriodCharacter) -> bool:
    """The volume obstructions for a core shape to occur on a leaf.

    Torus cores require positive volume; hexagon-form degenerate cores
    require negative volume; slit normal forms require non-positive
    volume; cylinder cores occur on every leaf.
    """
    kind = core_type(surface)
    vol = chi.volume()
    if kind is CoreType.TorusType:
        return vol > 0
    if kind is CoreType.CylinderType:
        return True
    if isinstance(surface, HexagonSurface):
        return vol < 0
    return vol <= 0


# ---------------------------------------------------------------------------
# surface_kernel: hexagon surfaces


def edge_identifications(surf: HexagonSurface):
    """The three gluing translations (edge pair, translation vector)."""
    u1, u2, u3 = surf._values()
    return [
        (("B1W1", "B3W2"), -u3),
        (("B2W2", "B1W3"), -u1),
        (("B3W3", "B2W1"), -u2),
    ]


def black_triangle_area(surf: HexagonSurface) -> Fraction:
    """Exact unsigned area of the triangle of B corners (shoelace)."""
    c = surf.corners()
    a, b, d = c["B1"], c["B2"], c["B3"]
    cross = (b - a).re * (d - a).im - (b - a).im * (d - a).re
    if cross.field.tag != "rational":
        raise InvalidSurface("hexagon areas are rational only over Q(i) data")
    val = cross.a
    return -val / 2 if val < 0 else val / 2


def surface_corner_angles(surf: HexagonSurface) -> dict[str, float]:
    """Cone contribution of each corner, measured on the complement side."""
    c = surf.corners()
    order = ["B1", "W1", "B2", "W2", "B3", "W3"]
    angles = {}
    for j, name in enumerate(order):
        prev = c[order[(j - 1) % 6]]
        here = c[name]
        nxt = c[order[(j + 1) % 6]]
        va = complex(prev - here)
        vb = complex(nxt - here)
        interior = atan2((va.conjugate() * vb).imag, (va.conjugate() * vb).real)
        if interior < 0:
            interior += 2 * pi
        angles[name] = 2 * pi - interior
    return angles


def hexagon_from_rotation(
    chi: PeriodCharacter,
    rotation: tuple[LatticeElement, LatticeElement, LatticeElement],
    z: ExactComplex,
) -> HexagonSurface:
    """Build a hexagon surface from any cyclic rotation of its triple.

    The chart coordinate is rotation-dependent: anchoring the hexagon at
    the next slot shifts the chart by the value of the middle element.
    This converts the given chart value to the canonical rotation's
    chart and constructs the surface there.
    """
    a, b, c = rotation
    triple = CharacteristicTriple.make(a, b, c)
    canon = triple.elements()
    j = canon.index(a)
    z0 = z
    for r in range(1, j + 1):
        z0 = z0 - to_exact_complex(chi.lattice_value(canon[r]))
    return HexagonSurface(chi, triple, z0)


# ---------------------------------------------------------------------------
# surface_kernel: boundary degeneration of cylinder chambers, pointwise


@dataclass(frozen=True)
class PinchedTorus:
    """Completion tag: the node at the center of an arithmetic leaf.

    The surface degenerates to a torus pinched along its core curve; the
    point carries total angle 2*pi and is not a singularity.
    """

    location: tuple = ()


def cylinder_boundary_surface(k: int, l: int, sign: int, t):
    """The wall surface at coordinate ``t`` on the boundary of CC^sign_{k,l}.

    The boundary line is segmented by the points ``{n k + l} ∪ {0}``; on
    each open segment the degenerating cylinder yields a slit normal
    form, with the marking bit ``(t > 0)`` and the lengths of
    :func:`cylinder_boundary_form` at ``t``; the segmentation points
    themselves leave the stratum: the center ``t = 0`` of the (1, 0)
    chambers is the pinched torus, every other segmentation point is a
    zero collision in H(2,-2).

    The minus chamber is the mirror of the plus chamber: its surface at
    ``t`` is the plus surface at ``-t`` with the marking swapped.
    """
    found = cylinder_boundary_form(k, l, sign, t)
    t = _as_real_exact(t)
    if found is None:
        if t.is_zero() and (k, l) == (1, 0):
            return PinchedTorus(location=(k, l, sign))
        return PointInH2m2(location=(k, l, sign, t))
    form, bit = found
    l1, l2, l3 = (a + b * t for a, b in form)
    return SlitDegenerateSurface(l1, l2, l3, b_at_left=bit)


# ---------------------------------------------------------------------------
# leaf_atlas: single wall records and the descent to (1, 0)


def glue_target(k: int, l: int, sign: int, segment: tuple):
    """The wall record of one canonical boundary segment of CC^sign_{k,l}.

    ``segment`` is the exact endpoint pair ``(lo, hi)``.  Returns
    ``(k', l', sign', (lo', hi'), (sigma, c))``.

    Raises
    ------
    BadSegment
        If the interval is not a canonical segment of the chamber.
    """
    CylArithChamber(k, l, sign)  # validates the indices
    lo, hi = (Fraction(x) for x in segment)
    if sign == -1:
        k2, l2, s2, (lo2, hi2), (sigma, c) = glue_target(k, l, +1, (-hi, -lo))
        return (k2, l2, -s2, (-hi2, -lo2), (sigma, -c))
    if not _is_canonical(k, l, lo, hi):
        raise BadSegment(f"({lo}, {hi}) is not a canonical segment of CC+_{k},{l}")
    Q = GroundField.rational()
    big = max(abs(lo), abs(hi))
    kmax_needed = int(big) + 2 * k + 2
    for g in _plus_records(k, l, kmax_needed, Q, CylArithChamber):
        if g.seg_a.lo.a == lo and g.seg_a.hi.a == hi:
            ch = g.seg_b.chamber
            return (
                ch.k,
                ch.l,
                ch.sign,
                (g.seg_b.lo.a, g.seg_b.hi.a),
                (g.sigma, g.c.a),
            )
    raise BadSegment(f"({lo}, {hi}) is not a canonical segment of CC+_{k},{l}")


def arithmetic_reachability(kmax: int):
    """Constructive descent from every admissible (k, l) to (1, 0).

    Each step replaces (K, L) by (L, -K mod L), which is linked to it by
    a family-2 wall record; the certificate lists the chain and the
    record parameters, and every link is re-verified through
    `glue_target`.
    """
    chains = {}
    for K, L in _admissible_pairs(kmax):
        chain = [(K, L)]
        k, l = K, L
        while (k, l) != (1, 0):
            k0, l0 = l, (-k) % l
            n = (k + l0) // l - 1
            lo = Fraction(-(n + 1) * k0 + l0)
            hi = Fraction(-n * k0 + l0)
            got = glue_target(k0, l0, +1, (lo, hi))
            assert got[0] == k and got[1] == l and got[2] == -1, (K, L, got)
            chain.append((k0, l0))
            k, l = k0, l0
        chains[(K, L)] = chain
    return chains


# ---------------------------------------------------------------------------
# leaf_atlas: the chamber graph, one walk step, the pointwise wall match


def adjacency_graph(atlas: Atlas):
    """Nodes and unordered adjacency pairs of the chamber graph."""
    edges = {frozenset((g.seg_a.chamber, g.seg_b.chamber)) for g in atlas.gluings}
    return set(atlas.chambers), {e for e in edges if len(e) == 2}


def _cross(atlas: Atlas, germ):
    """The germ across the gluing at ``germ``, as a step of `_walk` finds it."""
    g = atlas._germ_index.get(_germ_key(germ))
    if g is None:
        raise _Unglued("no gluing at {}", germ)
    return (g.seg_b.chamber, g.seg_b.part, g.map_coord(germ[2]), g.sigma * germ[3])


class NotInterior(IsoleafError):
    """Raised when a sample point sits on a segment endpoint instead of inside."""


def wall_surface_match(atlas: Atlas, gluing: Gluing, t) -> bool:
    """Do the two chambers of a wall record degenerate to the same surface?

    Evaluates the boundary surface of both sides at matched coordinates
    (``t`` on the source, its gluing image on the target): the marked
    slit normal forms must be equal.

    Raises
    ------
    NotInterior
        If ``t`` is an endpoint of the glued segment.
    """
    t = _to_fe(atlas, t)
    seg = gluing.seg_a
    if (seg.lo is not None and (t - seg.lo).sign() <= 0) or (
        seg.hi is not None and (seg.hi - t).sign() <= 0
    ):
        raise NotInterior(f"{t} is not interior to {seg}")
    a, b = seg.chamber, gluing.seg_b.chamber
    t2 = gluing.map_coord(t)
    sa = cylinder_boundary_surface(a.k, a.l, a.sign, t)
    sb = cylinder_boundary_surface(b.k, b.l, b.sign, t2)
    if not isinstance(sa, SlitDegenerateSurface) or not isinstance(sb, SlitDegenerateSurface):
        return False
    return sa == sb


# ---------------------------------------------------------------------------
# period_algebra: basis changes, conjugates, the adjoined symbol


class NotSymplectic(IsoleafError):
    """Raised for basis changes whose matrix does not have determinant one."""


def change_basis(chi: PeriodCharacter, A: Mat2) -> PeriodCharacter:
    """Apply an integral symplectic basis change ``(g1, g2) -> (g1, g2) A``.

    The new periods are ``(a*g1 + c*g2, b*g1 + d*g2)`` for
    ``A = ((a, b), (c, d))``.

    Raises
    ------
    NotSymplectic
        If ``det A != 1``.
    """
    if mat2_det(A) != 1:
        raise NotSymplectic(f"matrix {A} has determinant {mat2_det(A)}, not 1")
    (a, b), (c, d) = A
    return PeriodCharacter(chi.field, a * chi.g1 + c * chi.g2, b * chi.g1 + d * chi.g2)


def galois_conjugate(x: FieldElement) -> FieldElement:
    """The conjugate ``a - b*w`` over Q."""
    return FieldElement._reduce(x._field, x._p, -x._q, x._d)


def symbol_square(F: GroundField) -> int | None:
    """Square of the adjoined symbol: -1, D, or None for Q."""
    return F._w2 or None


# ---------------------------------------------------------------------------
# veech: the ring generator


def gamma_element(F: GroundField) -> FieldElement:
    """The ring generator gamma as an element of the quadratic field."""
    if F.D % 4 == 1:
        return F.element(Fraction(1, 2), Fraction(1, 2))
    return F.symbol()
