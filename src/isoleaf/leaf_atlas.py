r"""Combinatorial atlases of isoperiodic leaves.

An atlas is an exact, finitely truncated description of a leaf: its
chambers, the segmentation of their boundary lines, the wall gluings
identifying boundary segments pairwise by affine maps, and the singular
completion points where several chamber corners meet.

The four leaf kinds have different chamber menageries:

* positive leaves: one torus chamber (a plane with a slit ray at every
  primitive period) and one cylinder chamber per primitive period;
* negative leaves: cylinder chambers indexed by primitive periods and
  degenerate (triangle) chambers indexed by characteristic triples;
* arithmetic real leaves: two half-plane chambers per admissible index
  pair ``(k, l)``, glued by the four boundary rules below;
* non-arithmetic real leaves: cylinder chambers only; the degenerate
  triangles of volume-negative leaves collapse to zero area under the
  contraction flow and leave direct cylinder-to-cylinder gluings.

All boundary coordinates, gluing maps and sector angles are exact; cone
angles at singular points are certified in integer multiples of
:math:`\pi` by a wrap-counting product over exact sector ratios.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from isoleaf import stats
from isoleaf.period_algebra import (
    CharacteristicTriple,
    FieldElement,
    GroundField,
    IsoleafError,
    LatticeElement,
    PeriodCharacter,
    WrongLeafKind,
    classify,
    coordinate_triples,
    pm_representative,
    symplectic_partner,
)
from isoleaf.surface_kernel import cylinder_boundary_form

__all__ = [
    "BadSegment",
    "NotAVertex",
    "NonIntegralStar",
    "RationalTheta",
    "NonQuadraticTheta",
    "TorusChamber",
    "CylChamber",
    "CylArithChamber",
    "DegChamber",
    "BoundarySegment",
    "Gluing",
    "Sector",
    "Singularity",
    "Atlas",
    "CheckReport",
    "build_positive",
    "build_negative",
    "build_arithmetic",
    "build_nonarith",
    "singularity_star",
    "connectivity_check",
    "wall_tree",
    "WallTree",
    "WallTreeNode",
    "check_atlas",
    "atlas_to_json_dict",
    "atlas_from_json_dict",
    "primitive_elements",
]


class BadSegment(IsoleafError):
    """Raised when a boundary segment is not one of a chamber's canonical segments."""


class NotAVertex(IsoleafError):
    """Raised when a point is not a segmentation vertex of the chamber boundary."""


class RationalTheta(IsoleafError):
    """Raised when a slope presented as irrational is in fact rational."""


class NonQuadraticTheta(IsoleafError):
    """Raised when a slope is not given exactly in a real quadratic field."""


# ---------------------------------------------------------------------------
# chamber identifiers


def _hash_once(cls):
    """Keep each chamber's dataclass hash: star walks and atlas indexes hash
    the same chambers at every step, and a triangle's recurses into its triple."""
    field_hash = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


@_hash_once
@dataclass(frozen=True)
class TorusChamber:
    """The slit-plane chamber of a positive leaf."""

    def sort_key(self):
        return (0,)


@_hash_once
@dataclass(frozen=True)
class CylChamber:
    """Cylinder chamber CC_u of a lattice or non-arithmetic leaf."""

    u: LatticeElement

    def __post_init__(self):
        if self.u.is_zero() or gcd(self.u.m, self.u.n) != 1:
            raise IsoleafError(f"cylinder chambers need a primitive class, got {self.u}")

    def sort_key(self):
        return (1, self.u.max_norm(), self.u.m, self.u.n)


@_hash_once
@dataclass(frozen=True)
class CylArithChamber:
    """Half-plane chamber CC^sign_{k,l} of an arithmetic leaf."""

    k: int
    l: int
    sign: int

    def __post_init__(self):
        if self.k < 1 or not 0 <= self.l < self.k or gcd(self.k, self.l) != 1:
            raise IsoleafError(f"({self.k}, {self.l}) is not an admissible index pair")
        if self.sign not in (1, -1):
            raise IsoleafError("chamber sign must be +1 or -1")

    def sort_key(self):
        return (1, self.k, self.l, -self.sign)


@_hash_once
@dataclass(frozen=True)
class DegChamber:
    """Degenerate (triangle) chamber of a negative leaf."""

    triple: CharacteristicTriple

    def sort_key(self):
        return (2,) + self.triple.sort_key()


def _chamber_key(c):
    return c.sort_key()


# ---------------------------------------------------------------------------
# segments and gluings


@dataclass(frozen=True)
class BoundarySegment:
    """An open interval on one boundary component of a chamber.

    ``part`` names the component (the boundary line, a slit side, or a
    triangle side); ``lo``/``hi`` are exact endpoint coordinates, with
    ``None`` meaning the segment is an infinite ray in that direction.
    """

    chamber: object
    part: tuple
    lo: FieldElement | None
    hi: FieldElement | None

    def key(self):
        """Total-order key ``(chamber key, part key, lo key, hi key)``."""
        return _keyer().segment(self)


def _part_key(part):
    return tuple(("lat", x.m, x.n) if isinstance(x, LatticeElement) else x for x in part)


def _coord_key(x, inf_sign):
    if x is None:
        return (inf_sign, 0, 1, 0, 1)
    return (0,) + x.fraction_parts()


# an infinite lower end sorts before every coordinate, an infinite upper end after
_LO_INF, _HI_INF = _coord_key(None, -1), _coord_key(None, +1)


@dataclass(frozen=True)
class Gluing:
    """An exact isometric identification ``x_b = sigma * x_a + c``."""

    seg_a: BoundarySegment
    seg_b: BoundarySegment
    sigma: int
    c: FieldElement

    def map_coord(self, x: FieldElement) -> FieldElement:
        return x + self.c if self.sigma == 1 else self.sigma * x + self.c

    def reverse(self) -> "Gluing":
        # x_a = sigma * x_b - sigma * c
        return Gluing(self.seg_b, self.seg_a, self.sigma, -self.sigma * self.c)

    def key(self):
        """Total-order key ``(seg_a key, seg_b key, sigma, c key)``; see `_keyer`."""
        return _keyer()(self)


def _keyer():
    """The order key of a gluing, as a function ``g -> g.key()``.

    One keyer keys each chamber, boundary part and coordinate once (a
    coordinate by its normal form) and each segment once, by its id, and
    equal pieces of different keys are one tuple.  So it may only meet
    segments held for as long as it lives, and it should not outlive the
    call that makes it.  ``.segment`` is its segment keyer.
    """
    chamber_key = _kept(_chamber_key, by=id)
    part_key = _kept(_part_key)
    coord_key = _kept(lambda x: _coord_key(x, 0), by=FieldElement.normal_form)

    def segment(seg):
        return (chamber_key(seg.chamber), part_key(seg.part),
                _LO_INF if seg.lo is None else coord_key(seg.lo),
                _HI_INF if seg.hi is None else coord_key(seg.hi))

    seg_key = _kept(segment, by=id)

    def key(g):
        return (seg_key(g.seg_a), seg_key(g.seg_b), g.sigma, coord_key(g.c))

    key.segment = seg_key
    return key


# ---------------------------------------------------------------------------
# sectors and singular points


@dataclass(frozen=True)
class Sector:
    """One chamber corner incident to a singular point.

    Either an exact multiple of pi (``half_turns``) or a corner whose
    angle is ``arg(ratio)`` with ``Im(ratio) > 0`` in the Gaussian field.
    """

    chamber: object
    vertex: tuple
    half_turns: int | None = None
    ratio: FieldElement | None = None


class NonIntegralStar(IsoleafError):
    """Raised if sector ratios fail to multiply to a real number."""


def total_half_turns(sectors) -> int:
    """Exact total angle of a cyclic sector list, in units of pi.

    Pure half-turn sectors add directly.  Ratio sectors have angles
    ``arg(r_i)`` in (0, pi); their sum is recovered exactly by counting
    how often the running product of the ratios crosses the positive real
    axis, and checking the final product is real.
    """
    total = 0
    ratios = []
    for s in sectors:
        if s.half_turns is not None:
            total += s.half_turns
        else:
            ratios.append(s.ratio)
    if ratios:
        # signs on the normal-form integers (p + q i)/d, d > 0, of Gaussian ratios
        F = ratios[0].field
        p = F.one()
        wraps = 0
        for r in ratios:
            if r.q <= 0 or r.field.tag != "gaussian":
                raise NonIntegralStar("sector ratios must have positive imaginary part")
            q = p * r
            if p.q < 0 and (q.q > 0 or (q.q == 0 and q.p > 0)):
                wraps += 1
            p = q
        if p.q != 0:
            raise NonIntegralStar("sector ratios do not close up to a straight angle")
        total += 2 * wraps
        if p.p < 0:
            total += 1
    return total


@dataclass(frozen=True)
class Singularity:
    """A singular completion point with its cyclic star of sectors."""

    ident: tuple
    sectors: tuple
    total: int
    tag: str | None = None


# ---------------------------------------------------------------------------
# the atlas


@dataclass
class Atlas:
    """Chambers + segmentation + gluings + singular stars of one leaf."""

    kind: str
    character: PeriodCharacter
    bound: int
    chambers: list
    gluings: list
    truncated: list
    singularities: list
    center: Singularity | None = None
    _germ_index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._build_index()

    def _build_index(self):
        self._germ_index = {}
        for g in self.gluings:
            seg = g.seg_a
            if seg.lo is not None:
                self._germ_index[(seg.chamber, seg.part, _fe_key(seg.lo), +1)] = g
            if seg.hi is not None:
                self._germ_index[(seg.chamber, seg.part, _fe_key(seg.hi), -1)] = g

    @property
    def complete(self) -> dict:
        """Chamber -> whether the chamber is complete: the cylinder chambers of
        the positive leaf and the degenerate chambers of the negative leaf."""
        if self.kind == "positive":
            return {c: not isinstance(c, TorusChamber) for c in self.chambers}
        return {c: self.kind == "negative" and isinstance(c, DegChamber) for c in self.chambers}

    def field(self) -> GroundField:
        if self.kind == "nonarith_real":
            return self.character.field
        return GroundField.rational()


# index key of a coordinate: its normal-form integers
_fe_key = FieldElement.normal_form


@dataclass
class CheckReport:
    """Outcome of the atlas invariant suite."""

    passed: bool
    checks: list
    failures: list


# ---------------------------------------------------------------------------
# shared helpers


def primitive_elements(bound: int) -> list[LatticeElement]:
    """All primitive integer pairs of max-norm at most ``bound``, sorted."""
    out = []
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            if (m, n) != (0, 0) and gcd(m, n) == 1:
                out.append(LatticeElement(m, n))
    out.sort(key=lambda u: (u.max_norm(), u.m, u.n))
    return out


def _kept(fn, by=None):
    """``fn``, computed once per distinct argument by the returned function.

    ``by`` names the argument, such as `id` for objects held through its use.
    """
    kept = {}

    def get(x):
        k = x if by is None else by(x)
        y = kept.get(k)
        if y is None:
            y = kept[k] = fn(x)
        return y

    return get


def _dedupe_gluings(records) -> list[Gluing]:
    key = _keyer()  # records share their segments
    seen = {key(g): g for g in records}
    return [seen[k] for k in sorted(seen)]


def _with_reverses(records):
    out = list(records)
    out.extend(g.reverse() for g in records)
    return _dedupe_gluings(out)


# each builder's least size, as the builders and the JSON loader reject it
_TOO_SMALL = {"positive": "positive atlases need bound >= 1",
              "negative": "negative atlases need bound >= 1",
              "arith_real": "arithmetic atlases need kmax >= 1",
              "nonarith_real": "non-arithmetic atlases need bound >= 1"}


# ---------------------------------------------------------------------------
# positive leaves


def build_positive(bound: int) -> Atlas:
    """Atlas of the positive leaf normalized to periods (1, i).

    The torus chamber is a plane with one slit ray ``{t gamma : t >= 1}``
    per primitive period ``gamma``; the left side of each slit glues to
    the positive boundary ray of CC_gamma and the right side to the
    negative boundary ray of CC_{-gamma}, both by ``t -> t - 1`` in units
    of ``gamma``.  Each pair ``{gamma, -gamma}`` of slit tips closes up
    into one 6-pi singular point; the puncture ``alpha = 0`` is the
    completion point where the slit vanishes.
    """
    if bound < 1:
        raise WrongLeafKind(_TOO_SMALL["positive"])
    chi = PeriodCharacter.gaussian((1, 0), (0, 1))
    Q = GroundField.rational()
    torus = TorusChamber()
    prims = primitive_elements(bound)
    cyl = {u: CylChamber(u) for u in prims}
    chambers = [torus, *cyl.values()]

    def records_for(gamma: LatticeElement):
        one = Q.element(1)
        slit_l = BoundarySegment(torus, ("slit", gamma, "L"), one, None)
        slit_r = BoundarySegment(torus, ("slit", gamma, "R"), one, None)
        ray_pos = BoundarySegment(cyl[gamma], ("line",), Q.element(0), None)
        ray_neg = BoundarySegment(cyl[-gamma], ("line",), None, Q.element(0))
        return [
            Gluing(slit_l, ray_pos, +1, Q.element(-1)),
            Gluing(slit_r, ray_neg, -1, Q.element(1)),
        ]

    records = [g for gamma in prims for g in records_for(gamma)]
    atlas = Atlas(kind="positive", character=chi, bound=bound, chambers=chambers,
                  gluings=_with_reverses(records), truncated=[], singularities=[])
    _positive_stars(atlas)
    return atlas


def _positive_stars(atlas: Atlas) -> None:
    """Walk the star at every enumerated tip pair ``{gamma, -gamma}``."""
    reps = sorted(
        {pm_representative(c.u) for c in atlas.chambers if isinstance(c, CylChamber)},
        key=lambda u: (u.max_norm(), u.m, u.n),
    )
    torus = TorusChamber()
    with stats.span("stars"):
        for rep in reps:
            start = (torus, ("slit", rep, "L"), _ONE, +1)
            atlas.singularities.append(_walk_star(atlas, start, ident=("pos", (rep.m, rep.n))))
    stats.count("star_walks", len(reps))
    stats.count("open_walks", 0)


# ---------------------------------------------------------------------------
# negative leaves


def _partner_offset(u: LatticeElement, w: LatticeElement, p=None) -> int:
    """The integer m with w = p + m * u, for p = symplectic_partner(u) unless given."""
    if p is None:
        p = symplectic_partner(u)
    dm, dn = w.m - p.m, w.n - p.n
    m, r = divmod(dm, u.m) if u.m else divmod(dn, u.n)
    if r or (dm, dn) != (m * u.m, m * u.n):
        raise BadSegment(f"{w} is not a partner translate of {u}")
    return m


def build_negative(bound: int) -> Atlas:
    """Atlas of the negative leaf normalized to periods (1, -i).

    Cylinder chambers CC_u carry the boundary coordinate ``t`` along
    ``z = v_can(u) + t u`` (``v_can`` the canonical symplectic partner
    period); the coarse segment ``(m, m+1)`` is glued to the side of
    direction ``u`` of the triangle chamber of the triple
    ``(u, v_can + m u, -u - (v_can + m u))``, by ``t = m + s``.  Past the
    glued window ``(least m, greatest m + 1)`` each boundary line is a
    truncated ray.
    """
    if bound < 1:
        raise WrongLeafKind(_TOO_SMALL["negative"])
    chi = PeriodCharacter.gaussian((1, 0), (0, -1))
    Q = GroundField.rational()
    prims = primitive_elements(bound)
    triples = coordinate_triples(bound)
    cyl = {u: CylChamber(u) for u in prims}
    deg = {T: DegChamber(T) for T in triples}
    chambers = sorted([*cyl.values(), *deg.values()], key=_chamber_key)
    num = _kept(Q.element)  # each integer coordinate once
    # per class: its cylinder, its partner and the offsets m its windows are glued at
    classes = {(u.m, u.n): (cyl[u], symplectic_partner(u), []) for u in prims}

    def records_for(T: CharacteristicTriple, triangle: DegChamber):
        recs = []
        for i in (1, 2, 3):
            a, b, _ = T.rotated(i - 1)
            line, p, ms = classes[a.m, a.n]
            m = _partner_offset(a, b, p)
            ms.append(m)
            seg_side = BoundarySegment(triangle, ("side", i), _ZERO, _ONE)
            seg_line = BoundarySegment(line, ("line",), num(m), num(m + 1))
            recs.append(Gluing(seg_side, seg_line, +1, num(m)))
        return recs

    records = [g for T, triangle in deg.items() for g in records_for(T, triangle)]
    # in chamber order, which is the order of `prims`
    truncated = [BoundarySegment(line, ("line",), lo, hi)
                 for line, _, ms in classes.values() if ms
                 for lo, hi in ((None, num(min(ms))), (num(max(ms) + 1), None))]
    atlas = Atlas(kind="negative", character=chi, bound=bound, chambers=chambers,
                  gluings=_with_reverses(records), truncated=truncated, singularities=[])
    _collect_stars(atlas)
    return atlas


# the rational corner coordinates 0 and 1 of every triangle side, and their keys
_ZERO, _ONE = GroundField.rational().zero(), GroundField.rational().one()
_KEY0, _KEY1 = _fe_key(_ZERO), _fe_key(_ONE)

# the corners of the chart triangle {0, a1, -a2}: each one's label, its two
# boundary germs (part, coordinate, coordinate key, direction), and the
# sides i < j it joins
_TRIANGLE_CORNERS = (
    ("v0", (("side", 1), _ZERO, _KEY0, +1), (("side", 2), _ONE, _KEY1, -1), 0, 1),
    ("v1", (("side", 1), _ONE, _KEY1, -1), (("side", 3), _ZERO, _KEY0, +1), 0, 2),
    ("v2", (("side", 2), _ZERO, _KEY0, +1), (("side", 3), _ONE, _KEY1, -1), 1, 2),
)


def _lattice_parts(chi: PeriodCharacter):
    """``(value, d)`` with ``chi(u) = (x + y w)/d`` for ``(x, y) = value(u)``:
    one denominator ``d`` for every lattice element ``u``."""
    (p1, q1, d1), (p2, q2, d2) = chi.g1.normal_form(), chi.g2.normal_form()
    p1, q1, p2, q2 = p1 * d2, q1 * d2, p2 * d1, q2 * d1
    return (lambda u: (u.m * p1 + u.n * p2, u.m * q1 + u.n * q2)), d1 * d2


def _triangle_corners(chi: PeriodCharacter, chamber: DegChamber) -> dict:
    """Each germ key (part, normal form, direction) at a corner of the chamber's
    chart triangle, mapped to the corner's other germ, that germ's key and the sector.

    The edge periods at the corner of sides i < j are χ(a_i) and -χ(a_j),
    so its Im-positive ratio is -χ(a_j)/χ(a_i) when det(a_i, a_j)·Vol < 0,
    and -χ(a_i)/χ(a_j) when it is positive.  With χ(a) = (x + y i)/d over
    one d, -χ(a_j)/χ(a_i) = -(x_j + y_j i)(x_i - y_i i)/(x_i² + y_i²): one
    reduction of integers per corner.
    """
    a = chamber.triple.elements()
    value, _ = _lattice_parts(chi)
    x = [value(e) for e in a]
    # Vol = Im(conj(g1) g2), scaled by the positive d1 d2: triangles are on the Gaussian leaf
    (p1, q1, _), (p2, q2, _) = chi.g1.normal_form(), chi.g2.normal_form()
    vol = p1 * q2 - q1 * p2
    F = chi.field
    corners = {}
    for label, h1, h2, i, j in _TRIANGLE_CORNERS:
        turn = a[i].det(a[j]) * vol
        if turn == 0:
            raise NonIntegralStar("degenerate corner: directions are collinear")
        if turn > 0:
            i, j = j, i
        (xi, yi), (xj, yj) = x[i], x[j]
        ratio = FieldElement._reduce(F, -xj * xi - yj * yi, xj * yi - yj * xi, xi * xi + yi * yi)
        sector = Sector(chamber, ("corner", label), ratio=ratio)
        (part1, v1, k1, d1), (part2, v2, k2, d2) = h1, h2
        corners[part1, k1, d1] = (chamber, part2, v2, d2), (chamber, part2, k2, d2), sector
        corners[part2, k2, d2] = (chamber, part1, v1, d1), (chamber, part1, k1, d1), sector
    return corners


# ---------------------------------------------------------------------------
# arithmetic leaves


def _admissible_pairs(kmax: int):
    return [
        (k, l)
        for k in range(1, kmax + 1)
        for l in range(0, k)
        if gcd(k, l) == 1
    ]


def _plus_records(k: int, l: int, kmax: int, Q: GroundField, chamber):
    """Wall records with source CC^+_{k,l}, targets within kmax.

    The four families (with w the source coordinate, all orientation
    preserving):

    1. ``(l-k, 0)``           -> CC^-_{k-l, l-n'(k-l)} at ``(-k, -l)``, w - l
    2. ``(-(n+1)k+l, -nk+l)`` -> CC^-_{(n+1)k-l, k}    at ``(-k, 0)``,  w + nk - l
    3. ``(0, l)``             -> CC^-_{l, (n'+1)l-k}   at ``(k-l, k)``, w + k - l
    4. ``(nk+l, (n+1)k+l)``   -> CC^-_{(n+1)k+l, nk+l} at ``(0, k)``,   w - nk - l

    ``chamber(k, l, sign)`` gives the chamber objects.
    """
    here = chamber(k, l, +1)
    recs = []

    def rec(lo, hi, k2, l2, c):
        if k2 > kmax:
            return
        seg_a = BoundarySegment(here, ("line",), Q.element(lo), Q.element(hi))
        seg_b = BoundarySegment(
            chamber(k2, l2, -1),
            ("line",),
            Q.element(lo + c),
            Q.element(hi + c),
        )
        recs.append(Gluing(seg_a, seg_b, +1, Q.element(c)))

    # family 1
    if k > l:
        n1 = l // (k - l)
        rec(l - k, 0, k - l, l - n1 * (k - l), -l)
    # family 2
    n = 1
    while (n + 1) * k - l <= kmax:
        rec(-(n + 1) * k + l, -n * k + l, (n + 1) * k - l, k, n * k - l)
        n += 1
    # family 3
    if l > 0:
        n3 = -(-k // l) - 1  # ceil(k/l) - 1
        rec(0, l, l, (n3 + 1) * l - k, k - l)
    # family 4
    n = 0
    while (n + 1) * k + l <= kmax:
        rec(n * k + l, (n + 1) * k + l, (n + 1) * k + l, n * k + l, -n * k - l)
        n += 1
    return recs


def _iota_image(g: Gluing, chamber=CylArithChamber) -> Gluing:
    """The marking involution (k,l,s) @ t -> (k,l,-s) @ -t on a record."""

    def flip_seg(seg: BoundarySegment) -> BoundarySegment:
        ch = seg.chamber
        return BoundarySegment(
            chamber(ch.k, ch.l, -ch.sign),
            seg.part,
            None if seg.hi is None else -seg.hi,
            None if seg.lo is None else -seg.lo,
        )

    return Gluing(flip_seg(g.seg_a), flip_seg(g.seg_b), g.sigma, -g.c)


def build_arithmetic(kmax: int) -> Atlas:
    """Atlas of the arithmetic leaf normalized to period group Z.

    Chambers are CC^±_{k,l} over admissible pairs with ``k <= kmax``.
    Plus-chamber boundaries are segmented by ``{n k + l} ∪ {0}``; minus
    chambers by the mirrored set.  Records are generated from the four
    plus-side families and closed under the marking involution and
    reversal.  The two pinched-torus half-stars at ``t = 0`` of the
    (1,0) chambers join into the 2-pi center.
    """
    if kmax < 1:
        raise WrongLeafKind(_TOO_SMALL["arith_real"])
    chi = PeriodCharacter.rational(1, 0)
    Q = GroundField.rational()
    pairs = _admissible_pairs(kmax)
    own = {(k, l, s): CylArithChamber(k, l, s) for (k, l) in pairs for s in (+1, -1)}
    chambers = sorted(own.values(), key=_chamber_key)

    def chamber(k, l, sign):
        return own[(k, l, sign)]

    plus = [g for k, l in pairs for g in _plus_records(k, l, kmax, Q, chamber)]
    records = plus + [_iota_image(g, chamber) for g in plus]
    gluings = _with_reverses(records)

    atlas = Atlas(kind="arith_real", character=chi, bound=kmax, chambers=chambers,
                  gluings=gluings, truncated=_arith_truncation_rays(gluings), singularities=[])
    _collect_stars(atlas)
    return atlas


def _arith_truncation_rays(gluings):
    spans = {}
    for g in gluings:
        seg = g.seg_a
        lo, hi = seg.lo, seg.hi
        cur = spans.get(seg.chamber)
        spans[seg.chamber] = (
            (lo, hi) if cur is None else (min(cur[0], lo), max(cur[1], hi))
        )
    rays = []
    for chamber, (lo, hi) in sorted(spans.items(), key=lambda kv: _chamber_key(kv[0])):
        rays.append(BoundarySegment(chamber, ("line",), None, lo))
        rays.append(BoundarySegment(chamber, ("line",), hi, None))
    return rays


def _is_canonical(k: int, l: int, lo, hi) -> bool:
    """Is ``(lo, hi)`` one open segment of the boundary of CC^+_{k,l}?"""
    return _on_segmentation(k, l, lo) and hi == _next_segmentation_point(k, l, lo)


def _on_segmentation(k: int, l: int, x: Fraction) -> bool:
    return x == 0 or (x - l) % k == 0


def _next_segmentation_point(k: int, l: int, x: Fraction) -> int:
    nxt = ((x - l) // k + 1) * k + l
    return 0 if x < 0 < nxt else nxt


# ---------------------------------------------------------------------------
# non-arithmetic leaves


def build_nonarith(theta, bound: int) -> Atlas:
    """Atlas of the real leaf with dense period group Z + theta Z.

    Computed as the exact contraction-flow limit of the volume-negative
    atlas: every triangle chamber flattens onto the boundary line, its
    longest side (in the theta-embedding) splitting at the image of the
    middle vertex into two direct cylinder-to-cylinder gluings.  Boundary
    coordinates are period values in Q(theta).

    Raises
    ------
    RationalTheta
        If theta is rational (the leaf would be arithmetic).
    NonQuadraticTheta
        If theta is not an exact real quadratic number.
    WrongLeafKind
        If ``bound < 1``.
    """
    if bound < 1:
        raise WrongLeafKind(_TOO_SMALL["nonarith_real"])
    if isinstance(theta, (int, Fraction)):
        raise RationalTheta(f"theta = {theta} is rational")
    if not isinstance(theta, FieldElement):
        raise NonQuadraticTheta(
            "theta must be an exact element of a real quadratic field"
        )
    if theta.field.tag != "quadratic":
        raise RationalTheta(f"theta = {theta} is rational")
    if theta.b == 0:
        raise RationalTheta(f"theta = {theta} is rational")
    F = theta.field
    theta = theta - theta.floor()
    chi = PeriodCharacter(F, F.one(), theta)

    prims = primitive_elements(bound)
    triples = coordinate_triples(bound)
    cyl = {u: CylChamber(u) for u in prims}
    chambers = sorted(cyl.values(), key=_chamber_key)

    records = [g for T in triples for g in _collapsed_records(chi, T, cyl)]
    atlas = Atlas(kind="nonarith_real", character=chi, bound=bound, chambers=chambers,
                  gluings=_with_reverses(records), truncated=[], singularities=[])
    _collect_stars(atlas)
    return atlas


def _collapsed_records(chi: PeriodCharacter, T: CharacteristicTriple, cyl: dict):
    """The two limit gluings of one collapsed triangle, in value coordinates.

    ``cyl`` maps each side's period to its cylinder chamber.  The flattened
    chart triangle has the vertices 0, χ(a1) and -χ(a2) on the real line,
    and side j the length |χ(a_j)|.  The periods sum to 0, so the long side
    is the one whose period has the sign the other two lack, and each short
    side glues to it.  In its own cylinder's coordinate side j runs from
    χ(a_{j+1}) to -χ(a_{j+2}) (indices mod 3), upward when χ(a_j) > 0; the
    long side's cylinder reads it shifted by φ_long - φ_j, for the chart
    offsets φ = (χ(a2), -χ(a1), 0).  All of it is read on the integers
    (x, y) of χ(a) = (x + y·sqrt(D))/d, over one d.
    """
    value, d = _lattice_parts(chi)
    F, sign = chi.field, chi.g1._real_sign
    a = T.elements()
    x = [value(e) for e in a]
    s = [sign(*xy) for xy in x]
    long = 2 if s[0] == s[1] else 0 if s[1] == s[2] else 1
    phi = (x[1], (-x[0][0], -x[0][1]), (0, 0))

    def fe(p, q):
        return FieldElement._reduce(F, p, q, d)

    recs = []
    for j in (j for j in (0, 1, 2) if j != long):
        (p1, q1), (p2, q2) = x[(j + 1) % 3], x[(j + 2) % 3]
        lo, hi = ((p1, q1), (-p2, -q2)) if s[j] > 0 else ((-p2, -q2), (p1, q1))
        cp, cq = phi[long][0] - phi[j][0], phi[long][1] - phi[j][1]
        seg_a = BoundarySegment(cyl[a[j]], ("line",), fe(*lo), fe(*hi))
        seg_b = BoundarySegment(cyl[a[long]], ("line",), fe(lo[0] + cp, lo[1] + cq),
                                fe(hi[0] + cp, hi[1] + cq))
        recs.append(Gluing(seg_a, seg_b, +1, fe(cp, cq)))
    return recs


# ---------------------------------------------------------------------------
# singularity stars (generic walk)


class _Unglued(IsoleafError):
    """A star walk ran into a boundary without a gluing.

    Most are caught and dropped, so the germ is formatted only when the
    message is read.
    """

    def __str__(self):
        text, germ = self.args
        return text.format(germ)


def _other_germ(atlas: Atlas, germ, memo: dict, key=None):
    """The second boundary germ at this chamber corner, its key, and the sector.

    ``key`` is the germ's `_germ_key` if known.  ``memo`` keeps a walk's
    corner data: each triangle's corners (at 0 and 1 only) by chamber, see
    `_triangle_corners`, and each cylinder vertex by its coordinate key.
    """
    chamber, part, v, direction = germ
    nf = _fe_key(v) if key is None else key[2]
    if isinstance(chamber, (CylChamber, CylArithChamber)):
        # the vertex reaches singularity ids: keep it as the pair (a, b)
        vertex = memo.get(nf)
        if vertex is None:
            vertex = memo[nf] = ("t", (v.a, v.b))
        return ((chamber, part, v, -direction), (chamber, part, nf, -direction),
                Sector(chamber, vertex, half_turns=1))
    if isinstance(chamber, DegChamber):
        corners = memo.get(chamber)
        if corners is None:
            corners = memo[chamber] = _triangle_corners(atlas.character, chamber)
        out = corners.get((part, nf, direction))
        if out is None:
            raise NotAVertex(f"{germ} is not a corner germ of {chamber}")
        return out
    if isinstance(chamber, TorusChamber):
        _, gamma, side = part
        part = ("slit", gamma, "R" if side == "L" else "L")
        sector = Sector(chamber, ("tip", (gamma.m, gamma.n)), half_turns=2)
        return (chamber, part, v, +1), (chamber, part, nf, +1), sector
    raise NotAVertex(f"unsupported chamber {chamber!r}")


def _germ_key(germ):
    chamber, part, v, direction = germ
    return (chamber, part, _fe_key(v), direction)


def _walk(atlas: Atlas, start, open_: dict, memo: dict, max_steps=64, start_key=None):
    """Sectors and germ keys (incoming and outgoing) of the star walk from ``start``.

    Each germ is keyed once (``start_key`` is the start's, if known), and the
    walk closes at the next germ whose key is the start's.  Raises `_Unglued`
    when the walk runs into a boundary without a gluing.  ``open_`` maps the
    key of each incoming germ of such a walk to the number of steps its own
    walk takes to fail; the walk is a function of its germ, so a walk that
    reaches one of these stops there, and every walk that fails records its
    incoming germs in ``open_``.  ``memo`` is passed on to `_other_germ`.
    """
    index = atlas._germ_index
    if start_key is None:
        start_key = _germ_key(start)
    sectors, keys = [], []
    germ, key = start, start_key
    for step in range(max_steps):
        left = open_.get(key)
        if left is not None:
            # the walk from here fails after `left` more steps
            _mark_open(open_, keys, step + left, max_steps, start)
            raise _Unglued("{} leads to an unglued boundary", germ)
        g_out, key_out, sector = _other_germ(atlas, germ, memo, key)
        sectors.append(sector)
        keys += (key, key_out)
        g = index.get(key_out)
        if g is None:
            _mark_open(open_, keys, step + 1, max_steps, start)
            raise _Unglued("no gluing at {}", g_out)
        seg = g.seg_b
        v = g.map_coord(g_out[2])
        direction = g.sigma * g_out[3]
        key = (seg.chamber, seg.part, _fe_key(v), direction)
        if key[2] == start_key[2] and key == start_key:
            return sectors, keys
        germ = (seg.chamber, seg.part, v, direction)
    raise NonIntegralStar(f"star walk from {start} did not close")


def _mark_open(open_: dict, keys: list, steps: int, max_steps: int, start):
    """Record the incoming germs of a walk that fails after ``steps`` steps.

    They are the even entries of ``keys``.  A walk longer than
    ``max_steps`` does not close, as the plain walk would report.
    """
    if steps > max_steps:
        raise NonIntegralStar(f"star walk from {start} did not close")
    for j, key in enumerate(keys[::2]):
        open_[key] = steps - j


def _walk_star(atlas: Atlas, start, ident=None, tag=None) -> Singularity:
    sectors, _ = _walk(atlas, start, {}, {})
    return _star(atlas, sectors, ident, tag)


def _star(atlas: Atlas, sectors, ident=None, tag=None) -> Singularity:
    if ident is None:
        ident = _star_ident(atlas, sectors)
    return Singularity(
        ident=ident, sectors=tuple(sectors), total=total_half_turns(sectors), tag=tag
    )


def _star_ident(atlas: Atlas, sectors) -> tuple:
    kind = atlas.kind
    if kind == "positive":
        tips = {
            pm_representative(LatticeElement(*s.vertex[1]))
            for s in sectors
            if isinstance(s.chamber, TorusChamber)
        }
        rep = min(tips)
        return ("pos", (rep.m, rep.n))
    if kind == "negative":
        us = {
            pm_representative(s.chamber.u)
            for s in sectors
            if isinstance(s.chamber, CylChamber)
        }
        return ("neg",) + tuple(sorted((u.m, u.n) for u in us))
    if kind == "arith_real":
        keys = [
            (s.chamber.k, s.chamber.l, s.chamber.sign, s.vertex[1])
            for s in sectors
            if isinstance(s.chamber, CylArithChamber)
        ]
        return ("arith", min(keys))
    if kind == "nonarith_real":
        keys = [
            ((s.chamber.u.m, s.chamber.u.n), s.vertex[1])
            for s in sectors
            if isinstance(s.chamber, CylChamber)
        ]
        return ("nonarith", min(keys))
    raise NotAVertex(f"no identifier scheme for kind {kind}")


def _collect_stars(atlas: Atlas) -> None:
    """Enumerate complete singular stars, walking each germ at most once.

    Walks start at the keys of the germ index, in gluing order, at every
    germ not yet seen.  One table holds the germs of closed stars (as None)
    and of failed walks (as the steps to fail, see `_walk`): a germ of a
    closed star is skipped in either orientation, and a germ known to lead
    to an unglued boundary is never walked again.
    """
    with stats.span("stars"):
        seen, memo, stars = {}, {}, {}
        walks = opened = 0
        for key, g in atlas._germ_index.items():
            if key in seen:
                continue
            chamber, part, _, direction = key
            v = g.seg_a.lo if direction > 0 else g.seg_a.hi
            walks += 1
            try:
                sectors, keys = _walk(atlas, (chamber, part, v, direction), seen, memo,
                                      start_key=key)
            except _Unglued:
                opened += 1
                continue
            except NotAVertex:
                continue
            seen.update(dict.fromkeys(keys))
            if _at_center(atlas, chamber, v):
                if atlas.center is None:
                    atlas.center = _star(atlas, sectors, ("center",), "pinched_torus")
                continue
            star = _star(atlas, sectors)
            stars[star.ident] = star
        atlas.singularities = [stars[k] for k in sorted(stars)]
    stats.count("star_walks", walks)
    stats.count("open_walks", opened)


def singularity_star(atlas: Atlas, point) -> Singularity:
    """The singular star at a segmentation vertex.

    ``point`` is ``(chamber, coordinate)`` (for the torus chamber of a
    positive leaf, ``(chamber, (gamma, coordinate))`` names a slit tip; for a
    triangle chamber, ``(chamber, (part, s))`` the corner at s = 0 or 1 of a
    side).  The arithmetic center returns its 2-pi pinched-torus record.

    Raises
    ------
    NotAVertex
        If the coordinate is not a segmentation vertex of the chamber: the
        walk meets a boundary without a gluing, or ``s`` is not 0 or 1.
    NonIntegralStar
        If the walk does not close within its step limit.
    """
    chamber, coord = point
    if isinstance(chamber, TorusChamber):
        gamma, t = coord
        germ = (chamber, ("slit", gamma, "L"), _to_fe(atlas, t), +1)
    elif isinstance(chamber, DegChamber):
        part, s = coord
        s = _to_fe(atlas, s)
        germ = (chamber, part, s, +1 if s.is_zero() else -1)
    else:
        v = _to_fe(atlas, coord)
        germ = (chamber, ("line",), v, +1)
    try:
        if _at_center(atlas, chamber, germ[2]):
            return _walk_star(atlas, germ, ("center",), "pinched_torus")
        return _walk_star(atlas, germ)
    except _Unglued as e:
        raise NotAVertex(f"{point} is not an interior vertex of the atlas: {e}")


def _at_center(atlas: Atlas, chamber, v) -> bool:
    """Is coordinate ``v`` of ``chamber`` the pinched-torus center, the
    vertex 0 of a k = 1 chamber of an arithmetic atlas?"""
    return (
        atlas.kind == "arith_real"
        and isinstance(chamber, CylArithChamber)
        and chamber.k == 1
        and v.is_zero()
    )


def _to_fe(atlas: Atlas, x) -> FieldElement:
    if isinstance(x, FieldElement):
        return x
    return atlas.field().element(x)


# ---------------------------------------------------------------------------
# verification operations


def connectivity_check(atlas: Atlas):
    """BFS over the chamber adjacency graph.

    Returns ``(connected, spanning_tree)`` where the tree is a list of
    ``(parent, child)`` chamber pairs in BFS discovery order.  The walk
    starts at the least listed chamber in `_chamber_key` order and takes
    each chamber's neighbours in that order.  ``connected`` also requires
    the chamber list to name each chamber of the gluings exactly once; a
    chamber it lacks is walked after the listed ones.
    """
    chambers = sorted(set(atlas.chambers), key=_chamber_key)
    listed = len(chambers)
    index = {c: i for i, c in enumerate(chambers)}
    # a gluing's chamber is mostly a listed object itself: look up its id first
    by_id = {id(c): index[c] for c in atlas.chambers}
    neighbours = [set() for _ in chambers]

    def find(c):
        i = by_id.get(id(c))
        if i is None:
            i = index.get(c)
            if i is None:  # not listed
                i = index[c] = len(chambers)
                chambers.append(c)
                neighbours.append(set())
        return i

    for g in atlas.gluings:
        i, j = find(g.seg_a.chamber), find(g.seg_b.chamber)
        if i != j:
            neighbours[i].add(j)
            neighbours[j].add(i)
    if not chambers:
        return True, []
    seen = [False] * len(chambers)
    seen[0] = True
    tree = []
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in sorted(neighbours[i]):
                if not seen[j]:
                    seen[j] = True
                    tree.append((chambers[i], chambers[j]))
                    nxt.append(j)
        frontier = nxt
    connected = len(tree) + 1 == len(chambers) == listed == len(atlas.chambers)
    return connected, tree


# ---------------------------------------------------------------------------
# the arithmetic wall tree


@dataclass
class WallTreeNode:
    """One unfolded wall edge: the wall record, its length, children."""

    record: Gluing
    length: Fraction
    far_vertex: tuple | None
    truncated: bool
    children: list


@dataclass
class WallTree:
    """The unfolded wall tree of an arithmetic atlas, rooted at the center.

    The root carries the two marked center walls; below, each complete
    singular vertex branches into one representative per remaining
    involution orbit of its incident walls (two of them), so interior
    branch vertices have degree three.  The folded (involution-quotient)
    graph is available as `quotient_edges`.
    """

    root: tuple
    branches: list
    quotient_edges: list


_CENTER = -1  # the center's vertex in `wall_tree`'s tables; stars are their indices


def _wall_end(atlas: Atlas, star_at: dict, g: Gluing, v):
    """``(vertex, truncated)`` of the wall end at coordinate ``v`` of its source."""
    seg = g.seg_a
    if v is None:
        raise IsoleafError(
            f"the wall of {seg.chamber} on ({seg.lo}, {seg.hi}) has an infinite end"
        )
    if _at_center(atlas, seg.chamber, v):
        return _CENTER, False
    # the corner's sector, by its chamber and exact coordinate; no star
    # means the walk around this corner runs into an unglued ray
    star = star_at.get((seg.chamber, *v.fraction_parts()))
    return star, star is None


def wall_tree(atlas: Atlas) -> WallTree:
    """Unfold the wall set of an arithmetic atlas into its rooted tree.

    Wall endpoints are the stars the atlas already holds, keyed by their
    index in ``atlas.singularities`` (or `_CENTER`); only ``far_vertex``
    reads their idents.  Each wall is keyed once, and its orbit key is
    derived from that key (:func:`_orbit_key`).  A marked wall with an
    infinite end raises `IsoleafError`.
    """
    if atlas.kind != "arith_real":
        raise WrongLeafKind("wall trees are defined for arithmetic atlases")
    # a sector's vertex is ``("t", (a, b))`` (see `_other_germ`); keyed here
    # by the integers of `FieldElement.fraction_parts`, hashed without Fractions
    star_at = {}
    idents = {_CENTER: ("center",)}
    for i, star in enumerate(atlas.singularities):
        idents[i] = star.ident
        for sector in star.sectors:
            a, b = sector.vertex[1]
            star_at[(sector.chamber, a.numerator, a.denominator, b.numerator, b.denominator)] = i
    # one marked wall per record pair: keep source = plus chamber
    marked = {}
    gluing_key = _keyer()
    for g in atlas.gluings:
        if g.seg_a.chamber.sign == +1:
            key = gluing_key(g)
            marked[key[0]] = g, key
    del gluing_key
    # per wall, by id: endpoint (vertex, truncated) pairs, orbit key, record key
    ends, orbit, order = {}, {}, {}
    by_vertex = {}
    roots = []
    for g, key in marked.values():
        pair = (_wall_end(atlas, star_at, g, g.seg_a.lo), _wall_end(atlas, star_at, g, g.seg_a.hi))
        for vertex, _ in pair:
            if vertex is not None:
                by_vertex.setdefault(vertex, []).append(g)
        if _CENTER in (pair[0][0], pair[1][0]):
            roots.append(g)
        ends[id(g)] = pair
        orbit[id(g)] = _orbit_key(g, key)
        order[id(g)] = key
    # per vertex: the least wall of each incident orbit, in orbit-key order
    branches_at = {}
    for vertex, incident in by_vertex.items():
        reps = {}
        for h in incident:
            key = orbit[id(h)]
            if key not in reps or order[id(h)] < order[id(reps[key])]:
                reps[key] = h
        branches_at[vertex] = sorted(reps.items())
    roots.sort(key=lambda g: order[id(g)])
    tables = (ends, orbit, branches_at, idents)
    branches = [_grow(tables, g, _CENTER, 4 * atlas.bound + 8) for g in roots]
    quotient = sorted(set(orbit.values()))
    return WallTree(root=("center",), branches=branches, quotient_edges=quotient)


def _grow(tables, g: Gluing, came_from: int, depth: int) -> WallTreeNode:
    """The subtree of `wall_tree` below wall ``g``, entered from vertex ``came_from``."""
    ends, orbit, branches_at, idents = tables
    (v_lo, tr_lo), (v_hi, tr_hi) = ends[id(g)]
    if v_lo == came_from and v_hi != came_from:
        far, trunc = v_hi, tr_hi
    else:
        far, trunc = v_lo, tr_lo
    lo, hi = g.seg_a.lo, g.seg_a.hi
    length = Fraction(hi.p - lo.p) if lo.d == hi.d == 1 else hi.a - lo.a
    node = WallTreeNode(record=g, length=length, far_vertex=idents.get(far),
                        truncated=trunc, children=[])
    if trunc or far is None or far == _CENTER or depth <= 0:
        return node
    for key, rep in branches_at.get(far, ()):
        if key != orbit[id(g)]:
            node.children.append(_grow(tables, rep, far, depth - 1))
    return node


# ---------------------------------------------------------------------------
# invariant suite


def check_atlas(atlas: Atlas) -> CheckReport:
    """Run the full invariant suite; failures carry exact counterexamples.

    On an arithmetic atlas the wall-surface match is decided exactly on
    each whole open segment, one entry per failing gluing (see
    :func:`_check_wall_match`).
    """
    checks = []
    failures = []
    # every key check reads these; reverse and marking-involution keys are
    # derived from the stored tuples
    with stats.span("check.keys"):
        keys = list(map(_keyer(), atlas.gluings))
        key_set = set(keys)

    def run(name, fn):
        try:
            with stats.span(f"check.{name}"):
                bad = fn()
        except Exception as e:  # a crash is a failure with its message
            bad = [{"error": repr(e)}]
        checks.append((name, not bad))
        for b in bad:
            failures.append({"check": name, **b})

    run("gluing-involution", lambda: _check_images(
        atlas, keys, key_set, _reverse_key, "missing-reverse-of"))
    run("segments-glued-once", lambda: _check_single_use(atlas, keys))
    run("cone-angles", lambda: _check_cone_angles(atlas))
    if atlas.kind == "arith_real":
        run("wall-surface-match", lambda: _check_wall_match(atlas))
        run("phi-count", lambda: _check_phi_count(atlas))
        run("involution-equivariance", lambda: _check_images(
            atlas, keys, key_set, _iota_key, "missing-involution-image-of"))
    del keys, key_set  # not held through the connectivity walk
    run("connectivity", lambda: _check_connectivity(atlas))
    return CheckReport(passed=not failures, checks=checks, failures=failures)


def _seg_desc(seg: BoundarySegment):
    return {
        "chamber": repr(seg.chamber),
        "part": repr(seg.part),
        "lo": repr(seg.lo),
        "hi": repr(seg.hi),
    }


def _neg_coord_key(key):
    """``_coord_key`` of ``-x`` from that of ``x``; an infinite end changes side."""
    return (-key[0], -key[1], key[2], -key[3], key[4])


def _reverse_key(g: Gluing, key):
    """``g.reverse().key()``, from ``key = g.key()``."""
    seg_a, seg_b, sigma, c = key
    if sigma == 1:
        c = _neg_coord_key(c)
    elif sigma != -1:
        c = _coord_key(-sigma * g.c, 0)
    return (seg_b, seg_a, sigma, c)


def _iota_key(g: Gluing, key):
    """``_iota_image(g).key()``, from ``key = g.key()``; None if a side is not
    an arithmetic chamber, where the marking involution is not defined."""
    if type(g.seg_a.chamber) is not CylArithChamber or type(g.seg_b.chamber) is not CylArithChamber:
        return None
    seg_a, seg_b, sigma, c = key
    return (_iota_seg_key(seg_a), _iota_seg_key(seg_b), sigma, _neg_coord_key(c))


def _orbit_key(g: Gluing, key):
    """The least key of ``g``, its reverse and their marking-involution
    images, from ``key = g.key()``: one key per wall orbit."""
    rev = _reverse_key(g, key)
    # the involution image of the reverse is the reverse of the image
    return min(key, rev, _iota_key(g, key), _iota_key(g, rev))


def _iota_seg_key(key):
    # the chamber key of CC^sign_{k,l} is (1, k, l, -sign)
    chamber, part, lo, hi = key
    return (chamber[:3] + (-chamber[3],), part, _neg_coord_key(hi), _neg_coord_key(lo))


def _check_images(atlas: Atlas, keys: list, key_set: set, image, label: str):
    """One ``{label: segment}`` entry per gluing whose ``image(g, key)`` is
    not the key of a stored gluing, in gluing order."""
    bad = []
    for g, key in zip(atlas.gluings, keys):
        if image(g, key) not in key_set:
            bad.append({label: _seg_desc(g.seg_a)})
    return bad


def _check_single_use(atlas: Atlas, keys: list):
    seen = set()
    bad = []
    for g, key in zip(atlas.gluings, keys):
        if key[0] in seen:
            bad.append({"segment-reused": _seg_desc(g.seg_a)})
        seen.add(key[0])
    return bad


def _check_cone_angles(atlas: Atlas):
    bad = []
    for s in atlas.singularities:
        if s.total != 6:
            bad.append({"singularity": repr(s.ident), "half_turns": s.total})
    if atlas.kind == "arith_real":
        if atlas.center is None or atlas.center.total != 2:
            bad.append({"center": "missing or wrong angle"})
    return bad


def _check_wall_match(atlas: Atlas):
    """Wall-surface match of every plus-side gluing on its whole open segment.

    A wall of an arithmetic leaf is a canonical segment of the segmentation
    ``{n k + l} ∪ {0}`` on both sides, and there the slit lengths are affine
    in the boundary coordinate, so one exact identity
    (:func:`_wall_identity`) decides the match everywhere on the segment.
    A gluing it refutes, or whose sides are not canonical segments of
    arithmetic chambers, gives one entry naming the gluing.
    """
    bad = []
    for g in atlas.gluings:
        if g.seg_a.chamber.sign != +1:
            continue
        proved = _wall_identity(g)
        if not proved:
            bad.append({"gluing": _seg_desc(g.seg_a), "reason": _WALL_FAULT[proved]})
    return bad


_WALL_FAULT = {
    False: "the slit-length forms of the two sides differ",
    None: "a side is not a canonical segment of an arithmetic chamber",
}


def _int_coord(x) -> int | None:
    if x is None or x.q or x.d != 1:
        return None
    return x.p


def _wall_identity(g: Gluing) -> bool | None:
    """Do both sides of ``g`` degenerate to the same surface on the whole
    open segment?

    None unless the source segment and its image under ``x_b = sigma x_a +
    c`` are canonical segments of their arithmetic chambers; the stored
    target ends are the involution check's business.  Otherwise compares
    the slit-length forms of :func:`cylinder_boundary_form`, the target's
    read through the map: constants, slopes and the marking bit.
    """
    a, b, sigma = g.seg_a.chamber, g.seg_b.chamber, g.sigma
    ends = [_int_coord(x) for x in (g.seg_a.lo, g.seg_a.hi, g.c)]
    if type(b) is not CylArithChamber or sigma not in (1, -1) or None in ends:
        return None
    lo, hi, c = ends
    lo2, hi2 = sorted((sigma * lo + c, sigma * hi + c))
    if not (_is_canonical(a.k, a.l, *_plus_side(a.sign, lo, hi))
            and _is_canonical(b.k, b.l, *_plus_side(b.sign, lo2, hi2))):
        return None
    Q = GroundField.rational()
    form_a, bit_a = cylinder_boundary_form(a.k, a.l, a.sign, Q.element(lo + hi) / 2)
    form_b, bit_b = cylinder_boundary_form(b.k, b.l, b.sign, Q.element(lo2 + hi2) / 2)
    return bit_a == bit_b and form_a == tuple((p + q * c, q * sigma) for p, q in form_b)


def _plus_side(sign: int, lo: int, hi: int) -> tuple:
    """A boundary interval of CC^sign in the coordinates of CC^+."""
    return (lo, hi) if sign == 1 else (-hi, -lo)


def _check_phi_count(atlas: Atlas):
    def phi(n):
        return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)

    bad = []
    counts = {}
    for c in atlas.chambers:
        counts.setdefault((c.k, c.sign), 0)
        counts[(c.k, c.sign)] += 1
    # past the largest stored k every count is 0; report the first such k only
    kmax = max((k for k, _ in counts), default=0)
    for k in range(1, min(atlas.bound, kmax + 1) + 1):
        for sign in (+1, -1):
            if counts.get((k, sign), 0) != phi(k):
                bad.append(
                    {"k": k, "sign": sign, "count": counts.get((k, sign), 0), "phi": phi(k)}
                )
    return bad


def _check_connectivity(atlas: Atlas):
    """Nothing if `connectivity_check` passes; otherwise one entry per chamber
    listed twice or not listed, in `_chamber_key` order, then one if the
    walk misses a chamber."""
    ok, tree = connectivity_check(atlas)
    if ok:
        return []
    listed = Counter(atlas.chambers)
    glued = {c for g in atlas.gluings for c in (g.seg_a.chamber, g.seg_b.chamber)}
    nodes = sorted(listed.keys() | glued, key=_chamber_key)
    bad = []
    for c in nodes:
        if listed[c] != 1:
            bad.append({"chamber-listed-twice" if listed[c] else "chamber-not-listed": repr(c)})
    if len(tree) + 1 < len(nodes):
        bad.append({"connectivity": "chamber graph is disconnected"})
    return bad


# ---------------------------------------------------------------------------
# canonical JSON


_SCHEMA = "isoleaf-atlas/1"


def _chamber_json(c):
    if isinstance(c, TorusChamber):
        return {"type": "torus"}
    if isinstance(c, CylChamber):
        return {"type": "cyl", "u": [str(c.u.m), str(c.u.n)]}
    if isinstance(c, CylArithChamber):
        return {"type": "cyl_arith", "k": str(c.k), "l": str(c.l), "sign": c.sign}
    return {
        "type": "deg",
        "triple": [[str(e.m), str(e.n)] for e in c.triple.elements()],
    }


# the chamber types each atlas kind is made of, by their JSON tag
_KIND_CHAMBERS = {
    "positive": ("torus", "cyl"),
    "negative": ("cyl", "deg"),
    "arith_real": ("cyl_arith",),
    "nonarith_real": ("cyl",),
}


# per chamber type: the JSON fields that name a chamber (its intern key), and
# the chamber they name
_CHAMBER_FROM_JSON = {
    "torus": (lambda d: (), TorusChamber),
    "cyl": (lambda d: (d["u"][0], d["u"][1]),
            lambda m, n: CylChamber(LatticeElement(int(m), int(n)))),
    "cyl_arith": (lambda d: (d["k"], d["l"], d["sign"]),
                  lambda k, l, sign: CylArithChamber(int(k), int(l), int(sign))),
    "deg": (lambda d: tuple(map(tuple, d["triple"])),
            lambda *e: DegChamber(CharacteristicTriple.make(
                *(LatticeElement(int(m), int(n)) for m, n in e)))),
}


def _interned(memo: dict, key, make, *args):
    """``memo[key]``, made as ``make(*args)`` on first use.  A key that cannot
    be hashed holds a list or dict where a number belongs: ``make`` rejects it."""
    try:
        value = memo.get(key)
    except TypeError:
        return make(*args)
    if value is None:
        value = memo[key] = make(*args)
    return value


def _part_json(part):
    out = []
    for x in part:
        if isinstance(x, LatticeElement):
            out.append({"lat": [str(x.m), str(x.n)]})
        else:
            out.append(x)
    return out


# the boundary part each chamber type has: ("slit", gamma, "L" | "R") on the
# torus, ("line",) on cylinders, ("side", 1 | 2 | 3) on degenerate chambers
_PART_TAG = {TorusChamber: "slit", CylChamber: "line", CylArithChamber: "line",
             DegChamber: "side"}


def _part_from_json(data, chamber):
    tag = _PART_TAG[type(chamber)]
    if data == ["line"] and tag == "line":
        return ("line",)
    if tag == "side" and data in (["side", 1], ["side", 2], ["side", 3]):
        return ("side", int(data[1]))
    if tag == "slit" and isinstance(data, list) and len(data) == 3 and data[0] == "slit":
        if data[2] in ("L", "R") and isinstance(data[1], dict):
            lat = data[1]["lat"]
            return ("slit", LatticeElement(int(lat[0]), int(lat[1])), data[2])
    raise ValueError(f"{data!r} is not a boundary part of a {tag} chamber")


class _JsonReader:
    """Reads the pieces of one atlas document, making each distinct one once.

    Chambers and coordinates are interned by their JSON fields, boundary
    parts by value and segments by their interned pieces.  So every segment
    side *is* the matching entry of the chamber list, and the star walk's
    lookups and comparisons of equal chambers stop at identity.
    """

    def __init__(self, kind: str, fld: GroundField):
        self.kind, self.fld = kind, fld
        self.chambers, self.parts, self.coords, self.segments = {}, {}, {}, {}

    def chamber(self, d):
        tag = d["type"]
        if tag not in _KIND_CHAMBERS[self.kind]:
            raise ValueError(f"{tag!r} is not a chamber type of {self.kind} atlases")
        fields, make = _CHAMBER_FROM_JSON[tag]
        key = fields(d)
        return _interned(self.chambers, (tag, *key), make, *key)

    def coord(self, data):
        try:
            key = tuple(map(tuple, data))
        except TypeError:  # not a list of pairs: the parse says why
            return FieldElement.from_json(self.fld, data)
        return _interned(self.coords, key, FieldElement.from_json, self.fld, data)

    def segment(self, d):
        chamber = self.chamber(d["chamber"])
        part = _part_from_json(d["part"], chamber)
        part = self.parts.setdefault(part, part)
        lo = None if d["lo"] is None else self.coord(d["lo"])
        hi = None if d["hi"] is None else self.coord(d["hi"])
        # the pieces are interned and held by the memos: their ids name them
        key = (id(chamber), id(part), id(lo), id(hi))
        return _interned(self.segments, key, BoundarySegment, chamber, part, lo, hi)


def atlas_to_json_dict(atlas: Atlas) -> dict:
    """Canonical JSON form (deterministic ordering, exact coordinates).

    One call computes the JSON of each distinct chamber, boundary part,
    coordinate and segment once and puts that one object wherever it
    occurs, so the output shares equal leaves (chamber dicts, part lists,
    coordinate lists, segment dicts), and ``copy.deepcopy`` keeps that: edit
    ``json.loads(json.dumps(d))`` in place instead.  Separate calls share no object.
    """
    chamber_json, part_json = _kept(_chamber_json), _kept(_part_json)
    fe_json = _kept(FieldElement.to_json)
    seg_json = _kept(lambda seg: {
        "chamber": chamber_json(seg.chamber),
        "part": part_json(seg.part),
        "lo": None if seg.lo is None else fe_json(seg.lo),
        "hi": None if seg.hi is None else fe_json(seg.hi),
    }, by=id)
    gluings = sorted(atlas.gluings, key=_keyer())  # the atlas holds each segment
    sings = sorted(atlas.singularities, key=lambda s: s.ident)
    return {
        "schema": _SCHEMA,
        "kind": atlas.kind,
        "character": atlas.character.to_json_dict(),
        "bound": str(atlas.bound),
        "chambers": [chamber_json(c) for c in sorted(atlas.chambers, key=_chamber_key)],
        "gluings": [
            {"a": seg_json(g.seg_a), "b": seg_json(g.seg_b), "sigma": g.sigma, "c": fe_json(g.c)}
            for g in gluings
        ],
        "truncated": [seg_json(s) for s in atlas.truncated],
        "singularities": [
            {
                "id": _ident_json(s.ident),
                "half_turns": s.total,
                "sectors": len(s.sectors),
            }
            for s in sings
        ],
        "center": None
        if atlas.center is None
        else {"half_turns": atlas.center.total, "tag": atlas.center.tag},
    }


def _ident_json(x):
    if isinstance(x, tuple):
        return [_ident_json(y) for y in x]
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _sigma(data) -> int:
    # a gluing is an isometry: its linear part is the JSON integer 1 or -1
    if type(data) is not int or data not in (1, -1):
        raise ValueError(f"a gluing's sigma is 1 or -1, got {data!r}")
    return data


def atlas_from_json_dict(data: dict) -> Atlas:
    """Rebuild an atlas from its canonical JSON (stars are re-derived).

    Raises
    ------
    IsoleafError
        If the document is not a well-formed atlas: wrong schema, a missing
        key, a value of the wrong type, or a malformed exact coordinate.
    """
    if not isinstance(data, dict):
        raise IsoleafError(f"an atlas is a JSON object, got {type(data).__name__}")
    if data.get("schema") != _SCHEMA:
        raise IsoleafError(f"unknown atlas schema {data.get('schema')!r}")
    try:
        chi = PeriodCharacter.from_json_dict(data["character"])
        kind = data["kind"]
        if kind not in _KIND_CHAMBERS:
            raise IsoleafError(f"unknown atlas kind {kind!r}")
        if classify(chi).kind != kind:
            raise IsoleafError(f"the character of a {kind} atlas is {classify(chi).kind}")
        read = _JsonReader(kind, chi.field if kind == "nonarith_real" else GroundField.rational())
        chambers = [read.chamber(c) for c in data["chambers"]]
        gluings = [
            Gluing(read.segment(g["a"]), read.segment(g["b"]), _sigma(g["sigma"]),
                   read.coord(g["c"]))
            for g in data["gluings"]
        ]
        bound = int(data["bound"])
        truncated = [read.segment(s) for s in data["truncated"]]
    except KeyError as exc:
        raise IsoleafError(f"malformed atlas: missing key {exc}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise IsoleafError(f"malformed atlas: {exc}") from None
    if bound < 1:
        raise WrongLeafKind(_TOO_SMALL[kind])
    atlas = Atlas(kind=kind, character=chi, bound=bound, chambers=chambers,
                  gluings=gluings, truncated=truncated, singularities=[])
    if kind == "positive":
        _positive_stars(atlas)
    else:
        _collect_stars(atlas)
    return atlas
