r"""Translation surfaces with two simple zeros and one double pole.

Every surface here lives on an elliptic curve: the flat structure is a
plane (or torus) with polygonal data removed and re-identified, carrying
two labeled zeros (``B`` and ``W``, each of cone angle :math:`4\pi`) and
one double pole.  The interior of the core — the convex hull of the
zeros — is a torus, an open cylinder, or empty, and this trichotomy is
the :class:`CoreType` of the surface.

Four concrete shapes appear as chamber parametrizations of isoperiodic
leaves:

* :class:`CylinderSurface` -- two parallelograms over a core cylinder;
  the chamber coordinate ``z`` ranges over an exact half-plane;
* :class:`TorusSurface` -- a torus with a straight slit of holonomy
  ``alpha``; valid while the slit does not wrap onto a closed geodesic;
* :class:`HexagonSurface` -- the plane minus a hexagon with opposite
  sides identified (negative-volume chambers); the chamber coordinate
  ``z1`` ranges over an exact triangle;
* :class:`SlitDegenerateSurface` -- the wall normal form ``S(l1,l2,l3)``:
  a plane slit along three consecutive horizontal segments re-identified
  in reversed order, with a marking bit for which zero sits at the left
  slit tip.

The boundary-degeneration maps (`cylinder_boundary_surface`,
`hexagon_boundary_surface`) produce the wall surfaces reached at exact
boundary coordinates, or the completion tags :class:`PinchedTorus` and
:class:`PointInH2m2` at the degenerate parameter values that leave the
stratum.  On a cylinder chamber's boundary the slit lengths are affine on
each open segment; `cylinder_boundary_form` gives them as such, and
`cylinder_boundary_surface` evaluates that form at its point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import atan2, gcd, pi

from isoleaf.period_algebra import (
    FieldElement,
    GroundField,
    IsoleafError,
    LatticeElement,
    CharacteristicTriple,
    PeriodCharacter,
    is_primitive,
)

__all__ = [
    "InvalidSurface",
    "NotOnBoundary",
    "BadSideIndex",
    "ExactComplex",
    "to_exact_complex",
    "CoreType",
    "CylinderSurface",
    "TorusSurface",
    "HexagonSurface",
    "hexagon_from_rotation",
    "SlitDegenerateSurface",
    "PinchedTorus",
    "PointInH2m2",
    "ParallelogramWall",
    "WallCrossing",
    "core_type",
    "volume_constraint_check",
    "cylinder_boundary_form",
    "cylinder_boundary_surface",
    "hexagon_boundary_surface",
    "cylinder_member_min",
]


class InvalidSurface(IsoleafError):
    """Raised when surface data violates the type's defining inequalities."""


class NotOnBoundary(IsoleafError):
    """Raised when a boundary coordinate is not an exact real number."""


class BadSideIndex(IsoleafError):
    """Raised for a hexagon side index outside {1, 2, 3}."""


# ---------------------------------------------------------------------------
# exact complex numbers over a real ground field


@dataclass(frozen=True)
class ExactComplex:
    """An exact point ``re + i*im`` of the plane.

    Both parts are :class:`FieldElement` values of one *real* ground
    field (the rationals or a real quadratic field), so all geometric
    predicates — sidedness, alignment, membership — are decided exactly.
    Gaussian-rational periods convert via :func:`to_exact_complex`.
    """

    re: FieldElement
    im: FieldElement

    def __post_init__(self) -> None:
        if not self.re.field.is_real or self.re.field != self.im.field:
            raise ValueError("parts must share one real ground field")

    @staticmethod
    def make(field: GroundField, re, im=0) -> "ExactComplex":
        return ExactComplex(_as_element(field, re), _as_element(field, im))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, ExactComplex):
            return ExactComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return ExactComplex(self.re * other, self.im * other)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"({self.re!r}) + ({self.im!r})*I"


def _as_element(field: GroundField, value) -> FieldElement:
    if isinstance(value, FieldElement):
        if value.field == field:
            return value
        if value.b == 0:
            return field.element(value.a)
        raise ValueError("value lies outside the requested field")
    return field.element(value)


def to_exact_complex(period: FieldElement) -> ExactComplex:
    """View an exact period as a point of the plane.

    Gaussian numbers split into rational parts; real-field numbers embed
    on the real axis with exact irrational coordinates.
    """
    if period.field.tag == "gaussian":
        Q = GroundField.rational()
        return ExactComplex(Q.element(period.a), Q.element(period.b))
    return ExactComplex(period, period.field.zero())


def _im_conj_mult(u: ExactComplex, z: ExactComplex) -> FieldElement:
    """Exact ``Im(conj(u) * z)`` — twice the signed area of (u, z)."""
    return u.re * z.im - u.im * z.re


# ---------------------------------------------------------------------------
# core trichotomy


class CoreType(enum.Enum):
    """Shape of the interior of the core (convex hull of the zeros)."""

    TorusType = "torus"
    CylinderType = "cylinder"
    DegenerateType = "degenerate"


# ---------------------------------------------------------------------------
# cylinder surfaces


def cylinder_member_min(chi: PeriodCharacter, u: LatticeElement, z: ExactComplex) -> bool:
    """Membership as a single inequality: Im(conj(u) z) < min(0, Vol)."""
    uval = to_exact_complex(chi.lattice_value(u))
    s = _im_conj_mult(uval, z)
    vol = chi.volume()
    bound = min(Fraction(0), vol)
    return (s - bound).sign() < 0


@dataclass(frozen=True)
class CylinderSurface:
    """Two marked parallelograms glued over a core cylinder.

    ``u`` and ``v`` are the integer homology coordinates of a symplectic
    basis whose first class runs around the core (``det(u, v) = 1``); the
    relative period ``z`` runs from zero ``B`` to zero ``W`` and ranges
    over the open half-plane ``Im(conj(u) z) < min(0, Vol)``.
    """

    chi: PeriodCharacter
    u: LatticeElement
    v: LatticeElement
    z: ExactComplex

    def __post_init__(self) -> None:
        if self.u.is_zero() or not is_primitive(self.u):
            raise InvalidSurface(f"core class {self.u} must be primitive")
        if self.u.det(self.v) != 1:
            raise InvalidSurface("(u, v) must be an oriented symplectic basis")
        if not cylinder_member_min(self.chi, self.u, self.z):
            raise InvalidSurface(
                "relative period lies outside the cylinder half-plane"
            )

    def core_period(self) -> FieldElement:
        return self.chi.lattice_value(self.u)

    def crossing_period(self) -> FieldElement:
        return self.chi.lattice_value(self.v)


# ---------------------------------------------------------------------------
# slit tori


@dataclass(frozen=True)
class TorusSurface:
    """A torus with a straight slit of holonomy ``alpha`` from B to W.

    Invalid exactly when the slit wraps onto a closed geodesic: when
    ``alpha = t * gamma`` for a primitive period ``gamma`` and real
    ``t >= 1`` — and at ``alpha = 0``, which is the completion point
    where the two zeros collide.
    """

    chi: PeriodCharacter
    alpha: ExactComplex

    def __post_init__(self) -> None:
        if self.alpha.is_zero():
            raise InvalidSurface(
                "alpha = 0 is the completion point, not a surface of the leaf"
            )
        decomp = self.slit_scale()
        if decomp is not None and (decomp[0] - 1).sign() >= 0:
            raise InvalidSurface("the slit wraps onto itself (alpha on a slit ray)")

    def slit_scale(self):
        """Decompose ``alpha = s * gamma`` with gamma a primitive period.

        Returns ``(s, gamma)`` with exact ``s > 0``, or ``None`` when
        ``alpha`` does not point along any period direction.
        """
        a, b = self.alpha.re, self.alpha.im
        if b.is_zero():
            m, n = (1, 0) if a.sign() > 0 else (-1, 0)
            return a if a.sign() > 0 else -a, LatticeElement(m, n)
        if a.is_zero():
            m, n = (0, 1) if b.sign() > 0 else (0, -1)
            return b if b.sign() > 0 else -b, LatticeElement(m, n)
        ratio = a / b
        if ratio.b != 0:
            return None  # irrational direction: never on a period ray
        p = ratio.a.numerator
        q = ratio.a.denominator
        # alpha parallel to (p, q); fix the sign so the scale is positive
        if b.sign() < 0:
            p, q = -p, -q
        gamma = LatticeElement(p, q)
        s = b / q
        return s, gamma


# ---------------------------------------------------------------------------
# hexagon surfaces


@dataclass(frozen=True)
class HexagonSurface:
    """The plane minus a hexagon with opposite sides identified.

    The hexagon has alternating corners ``B1 W1 B2 W2 B3 W3`` determined
    by a characteristic triple and the relative period ``z1``; the three
    defining inequalities ``Im(z_i conj(u_i)) > 0`` carve out an exact
    open triangle in the ``z1`` chart (they are satisfiable only when the
    volume is negative).
    """

    chi: PeriodCharacter
    triple: CharacteristicTriple
    z1: ExactComplex

    def __post_init__(self) -> None:
        for i, (z, u) in enumerate(self._pairs(), start=1):
            if _im_conj_mult(u, z).sign() <= 0:
                raise InvalidSurface(
                    f"Im(z{i} * conj(u{i})) must be positive (side {i} collapsed)"
                )

    def _values(self):
        return tuple(
            to_exact_complex(self.chi.lattice_value(e)) for e in self.triple.elements()
        )

    def _pairs(self):
        u1, u2, u3 = self._values()
        z1 = self.z1
        z2 = z1 + u2
        z3 = z1 - u1
        # Im(z * conj(u)) and Im(conj(u) * z) agree, so one helper serves
        return ((z1, u1), (z2, u2), (z3, u3))

    def relative_periods(self) -> tuple[ExactComplex, ExactComplex, ExactComplex]:
        """The three saddle-connection periods (z1, z2, z3)."""
        u1, u2, _ = self._values()
        return (self.z1, self.z1 + u2, self.z1 - u1)

    def corners(self) -> dict[str, ExactComplex]:
        """Positions of the six hexagon corners in the plane."""
        u1, u2, _ = self._values()
        z1, z2, _ = self.relative_periods()
        zero = ExactComplex(z1.re.field.zero(), z1.re.field.zero())
        return {
            "B1": zero,
            "W1": z1,
            "B2": u1,
            "W2": u1 + z2,
            "B3": u1 + u2,
            "W3": z2,
        }

    def edge_identifications(self):
        """The three gluing translations (edge pair, translation vector)."""
        u1, u2, u3 = self._values()
        return [
            (("B1W1", "B3W2"), -u3),
            (("B2W2", "B1W3"), -u1),
            (("B3W3", "B2W1"), -u2),
        ]

    def black_triangle_area(self) -> Fraction:
        """Exact unsigned area of the triangle of B corners (shoelace)."""
        c = self.corners()
        a, b, d = c["B1"], c["B2"], c["B3"]
        cross = (b - a).re * (d - a).im - (b - a).im * (d - a).re
        if cross.field.tag != "rational":
            raise InvalidSurface("hexagon areas are rational only over Q(i) data")
        val = cross.a
        return -val / 2 if val < 0 else val / 2

    def surface_corner_angles(self) -> dict[str, float]:
        """Cone contribution of each corner, measured on the complement side."""
        c = self.corners()
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
# slit degenerate (wall) surfaces


@dataclass(frozen=True)
class SlitDegenerateSurface:
    """Wall normal form S(l1, l2, l3): a plane with a three-segment slit.

    A horizontal slit of length ``l1 + l2 + l3`` is cut and re-identified
    so the upper segments (A, B, C in order) match the lower segments
    (C', B', A').  The two slit tips are the zeros; ``b_at_left`` records
    which zero sits at the left tip.  Surface equality is componentwise
    on the ordered length triple together with the marking bit; the
    B/W swap is the explicit :meth:`swap_marking` operation.
    """

    l1: FieldElement
    l2: FieldElement
    l3: FieldElement

    b_at_left: bool = True

    def __post_init__(self) -> None:
        for name, value in (("l1", self.l1), ("l2", self.l2), ("l3", self.l3)):
            if not value.field.is_real:
                raise InvalidSurface("slit lengths must be exact reals")
            s = value.sign()
            if s == 0:
                raise InvalidSurface(
                    f"{name} = 0: the surface lies in H(2,-2), not in this stratum"
                )
            if s < 0:
                raise InvalidSurface(f"slit length {name} must be positive")

    @staticmethod
    def from_rationals(l1, l2, l3, b_at_left: bool = True) -> "SlitDegenerateSurface":
        Q = GroundField.rational()
        return SlitDegenerateSurface(
            Q.element(l1), Q.element(l2), Q.element(l3), b_at_left
        )

    def lengths(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        return (self.l1, self.l2, self.l3)

    def total_length(self) -> FieldElement:
        return self.l1 + self.l2 + self.l3

    def swap_marking(self) -> "SlitDegenerateSurface":
        """The same flat surface with the B and W labels exchanged."""
        return SlitDegenerateSurface(self.l1, self.l2, self.l3, not self.b_at_left)


# ---------------------------------------------------------------------------
# completion tags


@dataclass(frozen=True)
class PinchedTorus:
    """Completion tag: the node at the center of an arithmetic leaf.

    The surface degenerates to a torus pinched along its core curve; the
    point carries total angle 2*pi and is not a singularity.
    """

    location: tuple = ()


@dataclass(frozen=True)
class PointInH2m2:
    """Completion tag: the two simple zeros collide into a double zero.

    The limiting surface lies in the stratum H(2,-2); the point belongs
    to the metric completion of the leaf, not the leaf itself.
    """

    location: tuple = ()


# ---------------------------------------------------------------------------
# classification operations


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
# boundary degeneration: cylinder chambers of arithmetic leaves


def _check_admissible(k: int, l: int) -> None:
    if k < 1 or not (0 <= l < k) or gcd(k, l) != 1:
        raise InvalidSurface(f"(k, l) = ({k}, {l}) is not an admissible index pair")


def _as_real_exact(t) -> FieldElement:
    if isinstance(t, FieldElement):
        if not t.field.is_real:
            raise NotOnBoundary("boundary coordinates are real; got a Gaussian value")
        return t
    if isinstance(t, (int, Fraction)):
        return GroundField.rational().element(t)
    raise NotOnBoundary(f"boundary coordinate must be exact, got {type(t)!r}")


def cylinder_boundary_form(k: int, l: int, sign: int, t):
    """The slit lengths on the open boundary segment of CC^sign_{k,l} that
    holds ``t``, as affine functions of the boundary coordinate.

    Returns ``(((a1, b1), (a2, b2), (a3, b3)), b_at_left)``: integers
    ``a_i`` and slopes ``b_i = +-1`` with ``l_i = a_i + b_i x`` at every
    point ``x`` of that segment, and the marking bit ``(x > 0)`` there; or
    ``None`` when ``t`` is a segmentation point.

    In the plus coordinate ``s = sign * t``, the points ``n k + l`` next to
    ``s`` are ``m k + l`` and ``(m + 1) k + l`` with
    ``m = floor((s - l)/k)``; the segment is the interval between them, cut
    at 0 when it holds 0.  The three lengths are the distances from ``s`` to
    those two points and ``|s|``; ``|s|`` comes last for ``s > 0`` and first
    for ``s < 0``.  The minus chamber is the mirror of the plus chamber, so
    its slopes are negated.
    """
    _check_admissible(k, l)
    if sign not in (1, -1):
        raise InvalidSurface("sign must be +1 or -1")
    t = _as_real_exact(t)
    s = t if sign == 1 else -t
    if s.is_zero():
        return None
    offset = (s - l) / k
    if offset.q == 0 and offset.d == 1:
        return None
    m = offset.floor()
    left, right = (-l - m * k, sign), ((m + 1) * k + l, -sign)
    if s.sign() > 0:
        form = (left, right, (0, sign))
    else:
        form = ((0, -sign), left, right)
    return form, t.sign() > 0


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
# boundary degeneration: hexagon chambers of negative leaves


@dataclass(frozen=True)
class ParallelogramWall:
    """Degenerate hexagon: the plane minus a parallelogram.

    When a hexagon side collapses (three corners align), the removed
    hexagon flattens to a parallelogram whose two marked edge-interior
    points are the remnants of the absorbed corners.  Corner positions
    are absolute in the hexagon's plane.
    """

    side: int
    u: LatticeElement
    corners: tuple[ExactComplex, ExactComplex, ExactComplex, ExactComplex]
    marked_bottom: tuple[str, ExactComplex]
    marked_top: tuple[str, ExactComplex]


@dataclass(frozen=True)
class WallCrossing:
    """A hexagon-side wall together with the cylinder chamber behind it."""

    wall: ParallelogramWall
    neighbor: LatticeElement
    neighbor_z: ExactComplex


def hexagon_boundary_surface(chi: PeriodCharacter, triple: CharacteristicTriple, i: int, s):
    """The wall surface along side ``i`` of a hexagon chamber.

    Side ``i`` of the z1-chart triangle (the side with direction ``u_i``)
    borders the cylinder chamber of core class ``u_i``; the point at side
    parameter ``s`` in (0, 1) corresponds to the cylinder boundary point
    ``z = u_{i+1} + s u_i``.  The endpoints ``s = 0, 1`` are zero
    collisions in H(2,-2).

    Raises
    ------
    BadSideIndex
        If ``i`` is not 1, 2, or 3.
    """
    if i not in (1, 2, 3):
        raise BadSideIndex(f"hexagon sides are numbered 1..3, got {i}")
    s = _as_real_exact(s)
    a, b, c = triple.rotated(i - 1)
    if s.sign() <= 0 or (1 - s).sign() <= 0:
        if s.is_zero() or (1 - s).is_zero():
            return PointInH2m2(location=("deg", triple.sort_key(), i, s))
        raise NotOnBoundary("side parameter must lie in [0, 1]")

    va = to_exact_complex(chi.lattice_value(a))
    vb = to_exact_complex(chi.lattice_value(b))
    zero = ExactComplex(va.re.field.zero(), va.re.field.zero())
    span = vb + s * va
    if i == 1:
        corners = (zero, va, va + span, span)
        marked_bottom = ("W", s * va)
        marked_top = ("B", va + vb)
    elif i == 2:
        # anchored as in the flattened hexagon: bottom line through 0
        corners = ((s - 1) * vb, s * vb, va + vb, va)
        marked_bottom = ("B", zero)
        marked_top = ("W", va + s * vb)
        span = va - (s - 1) * vb
    else:
        vc = to_exact_complex(chi.lattice_value(c))
        corners = (-vc, zero, va + s * vc, va + (s - 1) * vc)
        marked_bottom = ("W", (s - 1) * vc)
        marked_top = ("B", va)
        span = va + s * vc
    wall = ParallelogramWall(
        side=i,
        u=a,
        corners=corners,
        marked_bottom=marked_bottom,
        marked_top=marked_top,
    )
    neighbor_z = vb + s * va
    return WallCrossing(wall=wall, neighbor=a, neighbor_z=neighbor_z)
