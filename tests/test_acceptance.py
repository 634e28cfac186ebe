"""Acceptance suite: ten end-to-end criteria, one verdict line each.

Each test prints ``criterion NN PASS|FAIL - title`` (visible with ``-s``;
the same verdict is the assertion message on failure) and then asserts.
Exact criteria use exact arithmetic and zero tolerance; numeric criteria
state their tolerances inline.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from isoleaf.leaf_atlas import (
    CylArithChamber,
    CylChamber,
    DegChamber,
    arithmetic_reachability,
    adjacency_graph,
    build_arithmetic,
    build_negative,
    build_nonarith,
    build_positive,
    check_atlas,
    connectivity_check,
    primitive_elements,
)
from isoleaf.period_algebra import GroundField, LatticeElement, PeriodCharacter
from isoleaf.surface_kernel import (
    HexagonSurface,
    InvalidSurface,
    TorusSurface,
    hexagon_from_rotation,
    to_exact_complex,
    volume_constraint_check,
)
from isoleaf.teich_numeric import (
    WeierstrassData,
    boundary_limit,
    chamber_trace,
    form_zero,
    relative_period,
    solve_form,
    wp,
)
from isoleaf.period_algebra import volume
from isoleaf.veech import (
    ConjSL2Z,
    QuadraticV,
    TriangularV,
    veech_group,
)

QI = GroundField.gaussian()
CHI_POS = PeriodCharacter.gaussian((1, 0), (0, 1))
CHI_NEG = PeriodCharacter.gaussian((1, 0), (0, -1))
REF_ROT = (LatticeElement(1, 0), LatticeElement(0, 1), LatticeElement(-1, -1))
TWO_PI_I = 2j * math.pi


def gz(a, b=0):
    return to_exact_complex(QI.element(a, b))


def verdict(num: int, title: str, failures: list) -> None:
    ok = not failures
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {title}"
    if failures:
        line += f" :: {failures[0]}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def arith20():
    return build_arithmetic(20)


@pytest.fixture(scope="module")
def arith50():
    return build_arithmetic(50)


@pytest.fixture(scope="module")
def pos4():
    return build_positive(4)


@pytest.fixture(scope="module")
def neg4():
    return build_negative(4)


def test_criterion_01_cone_angles_exact(pos4, neg4, arith20):
    """Complete singularity stars sum to 6 pi; the arithmetic center to 2 pi."""
    failures = []
    for label, atlas in (("negative", neg4), ("positive", pos4), ("arithmetic", arith20)):
        if not atlas.singularities:
            failures.append(f"{label}: no singular stars certified")
        for star in atlas.singularities:
            if star.total != 6:
                failures.append(f"{label}: star {star.ident} totals {star.total} pi")
    if arith20.center is None or arith20.center.total != 2:
        failures.append("arithmetic center is not a 2-pi point")
    verdict(1, "cone angles (6 pi stars, 2 pi center), exact", failures)


def test_criterion_02_gluing_involution_and_wall_match(arith20):
    """Segments glued once with reverse records; surfaces match on walls."""
    report = check_atlas(arith20)
    results = dict(report.checks)
    failures = []
    for name in ("gluing-involution", "segments-glued-once", "wall-surface-match"):
        if not results.get(name, False):
            bad = [f for f in report.failures if f.get("check") == name]
            failures.append(f"{name}: {bad[:1]}")
    verdict(2, "gluing involution + wall-surface match (arithmetic, kmax 20)", failures)


def test_criterion_03_connectivity_certificates(pos4, neg4, arith20):
    """BFS spanning trees for three atlases; constructive descent for k <= 50."""
    failures = []
    for label, atlas in (("positive", pos4), ("negative", neg4), ("arithmetic", arith20)):
        connected, tree = connectivity_check(atlas)
        if not connected:
            failures.append(f"{label}: atlas is disconnected")
        elif len(tree) != len(atlas.chambers) - 1:
            failures.append(f"{label}: spanning tree has {len(tree)} edges")

    chains = arithmetic_reachability(50)
    admissible = {(1, 0)} | {
        (k, l) for k in range(2, 51) for l in range(1, k) if gcd(k, l) == 1
    }
    if set(chains) != admissible:
        failures.append(
            f"reachability keys differ from admissible pairs "
            f"({len(set(chains) ^ admissible)} mismatches)"
        )
    for (K, L), chain in chains.items():
        if chain[0] != (K, L) or chain[-1] != (1, 0):
            failures.append(f"chain for {(K, L)} has wrong endpoints")
            break
        for (k, l), (k2, l2) in zip(chain, chain[1:]):
            if (k2, l2) != (l, (-k) % l):
                failures.append(f"chain for {(K, L)} breaks descent at {(k, l)}")
                break
    verdict(3, "connectivity certificates + reachability descent", failures)


def test_criterion_04_phi_count(arith50):
    """Per sign, the chambers with core period k*a number phi(k), k <= 50."""

    def phi(k):
        return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)

    counts: dict = {}
    for chamber in arith50.chambers:
        assert isinstance(chamber, CylArithChamber)
        key = (chamber.k, chamber.sign)
        counts[key] = counts.get(key, 0) + 1
    failures = []
    for k in range(1, 51):
        for sign in (1, -1):
            got = counts.get((k, sign), 0)
            if got != phi(k):
                failures.append(f"k={k} sign={sign}: {got} chambers, phi(k)={phi(k)}")
    verdict(4, "phi-count of arithmetic chambers, exact", failures)


def brute_stabilizer(D, unit, tau, height=10**6):
    """Walk the powers of ``unit`` in Z[sqrt D] up to height ``height``.

    Returns ``(k, (a, b))`` for the smallest power ``a + b sqrt D`` that has
    norm one and preserves the module ``t Z + (l + m sqrt D) Z``, or None.
    Written independently of the library's group-order search; only
    ``D % 4 != 1`` (ring basis ``1, sqrt D``) is handled.
    """
    t, l, m = tau
    nl = l * l - D * m * m
    e0, e1 = unit
    a, b = unit
    k = 1
    while a <= height:
        if a * a - D * b * b == 1 and b % m == 0 and ((b // m) * nl) % t == 0:
            return k, (a, b)
        a, b = a * e0 + D * b * e1, a * e1 + b * e0
        k += 1
    return None


def action_matrix(D, tau, eta):
    """Matrix of multiplication by ``a + b sqrt D`` on the basis ``(t, w)``.

    ``w = l + m sqrt D``; column j holds the coordinates of the image of the
    j-th basis vector, found by solving ``c1 t + c2 w = x + y sqrt D``.
    """
    t, l, m = tau
    a, b = eta

    def coords(x, y):
        c2 = Fraction(y, m)
        return (x - c2 * l) / t, c2

    img_t = coords(a * t, b * t)
    img_w = coords(a * l + b * m * D, a * m + b * l)
    return ((img_t[0], img_w[0]), (img_t[1], img_w[1]))


def test_criterion_05_veech_descriptors():
    """Descriptors for four reference characters, with a brute-force unit search."""
    failures = []
    if not isinstance(veech_group(CHI_POS), ConjSL2Z):
        failures.append("chi=(1,i) did not give a conjugate of SL2(Z)")
    if not isinstance(veech_group(PeriodCharacter.rational(1, 0)), TriangularV):
        failures.append("chi=(1,0) did not give the triangular group")

    # Quadratic families: the smallest norm-one power of the fundamental
    # unit preserving the module, pinned exactly and confirmed by walking
    # the units of Z[sqrt D] up to height 10^6.  For chi = (1, 3 sqrt 3) the
    # powers of 2 + sqrt 3 have sqrt-3 coefficients 1, 4, 15; only the
    # third is divisible by m = 3, so the group is not triangular.
    families = (
        (
            "chi=(1,sqrt2)",
            PeriodCharacter.quadratic(2, (1, 0), (0, 1)),
            (1, 1),
            QuadraticV(D=2, tau=(1, 0, 1), exponent=2),
            (3, 2),
            ((3, 4), (2, 3)),
        ),
        (
            "D=m=3 family chi=(1,3sqrt3)",
            PeriodCharacter.quadratic(3, (1, 0), (0, 3)),
            (2, 1),
            QuadraticV(D=3, tau=(1, 0, 3), exponent=3),
            (26, 15),
            ((26, 135), (5, 26)),
        ),
    )
    for label, chi, unit, expected, generator, matrix in families:
        got = veech_group(chi)
        if got != expected:
            failures.append(f"{label} gave {got}, expected {expected}")
            continue
        if got.generator != generator:
            failures.append(f"{label}: generator {got.generator}, expected {generator}")
        if got.matrix != matrix:
            failures.append(f"{label}: module matrix {got.matrix}, expected {matrix}")
        brute = brute_stabilizer(expected.D, unit, expected.tau)
        want = (expected.exponent, generator)
        if brute != want:
            failures.append(f"{label}: brute-force walk found {brute}, expected {want}")
            continue
        acted = action_matrix(expected.D, expected.tau, brute[1])
        if acted != matrix:
            failures.append(f"{label}: brute-force unit acts by {acted}, expected {matrix}")

    verdict(5, "Veech descriptors (four reference characters), exact", failures)


def test_criterion_06_hexagon_area_and_torus_rejection():
    """Black-triangle area equals -Vol/2 on 100 random hexagons, exactly."""
    rng = random.Random(6)
    target = -volume(CHI_NEG) / 2
    failures = []
    built = 0
    while built < 100 and not failures:
        x = Fraction(rng.randint(1, 999), 1000)
        y = Fraction(rng.randint(1, 999), 1000)
        if x + y >= 1:
            continue
        surf = hexagon_from_rotation(CHI_NEG, REF_ROT, gz(x, y))
        area = surf.black_triangle_area()
        if area != target:
            failures.append(f"hexagon at z=({x},{y}) has area {area}, expected {target}")
        built += 1
    if built < 100:
        failures.append(f"only {built} valid hexagons constructed")

    torus = TorusSurface(CHI_NEG, gz(Fraction(1, 2)))
    if volume_constraint_check(torus, CHI_NEG):
        failures.append("torus-type surface accepted on chi=(1,-i)")
    verdict(6, "hexagon area -Vol/2 (100 random) + torus rejection, exact", failures)


def integrate_form(a, b, tau, z0, z1, pieces=8, order=48):
    """Gauss-Legendre line integral of ``(a + b wp) dz`` from z0 to z1."""
    x, wts = np.polynomial.legendre.leggauss(order)
    total = 0j
    for k in range(pieces):
        za = z0 + (z1 - z0) * k / pieces
        zb = z0 + (z1 - z0) * (k + 1) / pieces
        mid, half = (za + zb) / 2, (zb - za) / 2
        for xi, wi in zip(x, wts):
            total += wi * (a + b * wp(mid + half * xi, tau)) * half
    return total


def test_criterion_07_weierstrass_layer():
    """Legendre relation and re-integration at 20 random tau; parity 1e-9."""
    rng = np.random.default_rng(7)
    failures = []
    taus = []
    while len(taus) < 20:
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 1.8))
        if abs(tau) > 1.02:
            taus.append(tau)

    for tau in taus:
        data = WeierstrassData(tau)
        res = abs(data.eta1 * tau - data.eta2 - TWO_PI_I)
        if res > 1e-8:
            failures.append(f"Legendre residual {res:.2e} at tau={tau}")
            break

    d = 0.31 + 0.43j
    for tau in taus:
        p1 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        p2 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(p1) + abs(p2) < 1e-2:
            p1 = 1.0
        a, b = solve_form(tau, p1, p2)
        r1 = abs(integrate_form(a, b, tau, d, d + 1) - p1)
        r2 = abs(integrate_form(a, b, tau, d, d + tau) - p2)
        if max(r1, r2) > 1e-8:
            failures.append(f"re-integration residual {max(r1, r2):.2e} at tau={tau}")
            break

    for tau in taus[:5]:
        a, b = solve_form(tau, 1, 0.3 + 0.4j)
        if abs(b) < 1e-9:
            continue
        z0 = form_zero(tau, a, b)
        r_plus = relative_period(tau, a, b, seed=z0)
        r_minus = relative_period(tau, a, b, seed=-z0)
        res = abs(r_plus + r_minus)
        if res > 1e-9:
            failures.append(f"parity residual {res:.2e} at tau={tau}")
            break
    verdict(7, "Weierstrass layer (Legendre, re-integration, parity)", failures)


def test_criterion_08_trace_nondivergence_proxy():
    """The trace follows its documented asymptotics up to t = 256.

    ``sigma(t)`` stays within bounded distance of ``t + i log t`` because
    ``Im sigma(t) = (1/pi) log t + c(t)`` with ``c(t)`` converging, so the
    distance tends to ``log pi`` from below.  Checked over t = 4, 8, ..., 256:

    (a) ``d(t) < log pi`` at every sample (the distance is not monotone: it
        dips where the trace crosses the model curve, so no window anchored
        at one sample is valid);
    (b) ``c(t)`` converges geometrically: each ``|c(2t) - c(t)|`` is at most
        0.75 of the previous one (a trace growing at any other rate than
        ``(1/pi) log t``, or stalling, has ratio one).
    """
    t_samples = [4.0 * 2**k for k in range(7)]
    bound = math.log(math.pi)
    ratio = 0.75
    failures = []
    for label, u in (("CC_1", (1, 0)), ("CC_1+i", (1, 1))):
        trace = chamber_trace(CHI_POS, u, t_samples)
        dists = trace.distances()
        if len(dists) != len(t_samples):
            failures.append(f"{label}: trace left the upper half plane")
        for t, d in dists:
            if not d < bound:
                failures.append(f"{label}: d({t:g}) = {d:.4f} >= log pi = {bound:.4f}")
        offsets = [sig.imag - math.log(t) / math.pi for t, sig in trace.points]
        steps = [abs(c2 - c1) for c1, c2 in zip(offsets, offsets[1:])]
        for t, prev, step in zip(t_samples[1:], steps, steps[1:]):
            if not step <= ratio * prev:
                failures.append(
                    f"{label}: |c({2 * t:g}) - c({t:g})| = {step:.5f} exceeds "
                    f"{ratio} * {prev:.5f}"
                )
    verdict(8, "trace distance < log pi, height offset converges", failures)


def test_criterion_09_boundary_limits_and_shear():
    """Rational limits with small denominators; shear equivariance."""
    failures = []
    for p, q in ((1, 0), (0, 1), (1, 1), (2, 1)):
        limit = boundary_limit(CHI_POS, (p, q))
        if q == 0:
            if limit.rational is not None or not math.isinf(limit.estimate):
                failures.append(f"u=(1,0): expected the cusp at infinity, got {limit}")
        else:
            if limit.rational is None or limit.rational.denominator > abs(q):
                failures.append(f"u=({p},{q}): rational {limit.rational}")
            elif abs(float(limit.rational) - limit.estimate) > 0.05:
                failures.append(
                    f"u=({p},{q}): estimate {limit.estimate:.4f} is far from "
                    f"{limit.rational}"
                )
        sheared = boundary_limit(CHI_POS, (p + q, q))
        if q == 0:
            if sheared.rational is not None:
                failures.append("shear moved the cusp at infinity")
        elif sheared.rational != limit.rational - 1:
            failures.append(
                f"u=({p},{q}): shear gave {sheared.rational}, "
                f"expected {limit.rational} - 1"
            )
    verdict(9, "boundary limits rational + shear equivariance", failures)


def test_criterion_10_nonarith_is_collapsed_negative():
    """Adjacency of the dense-leaf atlas equals the flattened triangle graph."""
    field = GroundField.quadratic(2)
    theta = field.element(-1, 1)  # sqrt(2) - 1
    chi = PeriodCharacter(theta.field, theta.field.one(), theta)
    neg = build_negative(2)
    expected_edges = set()
    for chamber in neg.chambers:
        if not isinstance(chamber, DegChamber):
            continue
        a1, a2, a3 = chamber.triple.elements()
        p = chi.lattice_value(a1)
        q = -chi.lattice_value(a2)
        zero = theta.field.zero()

        def interval(x, y):
            return (x, y) if (y - x).sign() > 0 else (y, x)

        intervals = {1: interval(zero, p), 2: interval(q, zero), 3: interval(p, q)}
        sides = {1: a1, 2: a2, 3: a3}
        for i in (1, 2, 3):
            for j in range(i + 1, 4):
                (a, b), (x, y) = intervals[i], intervals[j]
                lo = a if (x - a).sign() < 0 else x
                hi = b if (y - b).sign() > 0 else y
                if (hi - lo).sign() > 0:
                    expected_edges.add(
                        frozenset((CylChamber(sides[i]), CylChamber(sides[j])))
                    )

    nodes, edges = adjacency_graph(build_nonarith(theta, 2))
    failures = []
    if nodes != {CylChamber(u) for u in primitive_elements(2)}:
        failures.append("node set differs from the primitive classes of bound 2")
    if edges != expected_edges:
        failures.append(
            f"{len(edges ^ expected_edges)} adjacency edges differ from the "
            f"contraction-flow limit"
        )
    verdict(10, "dense-leaf adjacency equals collapsed negative atlas, exact", failures)
