"""Output checkers that do not trust the program.

Each checker recomputes what it tests from the mathematics, never from a
stored copy of an earlier output.  A checker returns ``None`` when the
output is right and a one-line reason when it is not.  ``selftest.py``
feeds every checker a deliberately wrong output and requires a reason.

The checkers read program outputs only in their documented formats: the
canonical atlas JSON, the Veech descriptors, the points of a chamber trace
and the Teichmueller parameter of an inversion.
"""

from __future__ import annotations

import cmath
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import gcd, isqrt

LOG_PI = math.log(math.pi)
RATIO = 0.75  # per doubling of t, offsets must shrink at least this fast


# ---------------------------------------------------------------------------
# elementary number theory


def factorize(n: int) -> dict:
    """Prime factorization by trial division (n is at most about 10^6 here)."""
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def phi(n: int) -> int:
    """Euler's totient from the factorization."""
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def primitive(bound: int) -> list:
    """Primitive integer pairs of max-norm at most ``bound``."""
    return [
        (m, n)
        for m in range(-bound, bound + 1)
        for n in range(-bound, bound + 1)
        if (m, n) != (0, 0) and gcd(m, n) == 1
    ]


def _partner(m: int, n: int) -> tuple:
    """Some (x, y) with m*y - n*x = 1 (extended Euclid)."""
    old_r, r, old_s, s, old_t, t = m, n, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # old_s*m + old_t*n = old_r = +-1
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return (-old_t, old_s)


def characteristic_triples(bound: int) -> set:
    """Triples (a, b, c), a + b + c = 0, consecutive determinants one.

    Enumerated through ``b = partner(a) + j a`` for each primitive ``a``:
    every ``b`` with ``det(a, b) = 1`` has that form.  Triples are stored in
    their lexicographically least cyclic rotation.
    """
    out = set()
    for a in primitive(bound):
        p = _partner(*a)
        for j in range(-3 * bound - 3, 3 * bound + 4):
            b = (p[0] + j * a[0], p[1] + j * a[1])
            c = (-a[0] - b[0], -a[1] - b[1])
            if max(abs(x) for x in b + c) > bound:
                continue
            assert a[0] * b[1] - a[1] * b[0] == 1
            out.add(min((a, b, c), (b, c, a), (c, a, b)))
    return out


# ---------------------------------------------------------------------------
# atlases (from their canonical JSON)


def _coord(data):
    """A JSON field element ``[[num, den], ...]`` as a tuple of Fractions."""
    if data is None:
        return None
    return tuple(Fraction(int(num), int(den)) for num, den in data)


def _hashable(x):
    return json.dumps(x, sort_keys=True)


def _complex(coords) -> complex:
    return complex(float(coords[0]), float(coords[1]) if len(coords) > 1 else 0.0)


def _star_totals(doc: dict):
    """Walk every singular star of an atlas; return (totals, walked centre).

    Rebuilds the germ graph from the JSON gluings: a germ is a chamber
    corner (chamber, boundary part, coordinate, direction); a gluing maps
    ``x -> sigma x + c`` and carries the direction by ``sigma``.  The angle
    of a corner is pi on a boundary line, 2 pi at a slit tip of the torus
    chamber, and the interior angle of the flat triangle on a triangle
    chamber (computed here in floating point from the periods).  Returns
    one total angle (in units of pi) per closed star, and the total of the
    star through the arithmetic centre when there is one.
    """
    chi = doc["character"]
    g1 = _complex(_coord(chi["g1"]))
    g2 = _complex(_coord(chi["g2"]))

    def value(e):
        return int(e[0]) * g1 + int(e[1]) * g2

    index = {}
    for g in doc["gluings"]:
        a = g["a"]
        ch, part = _hashable(a["chamber"]), _hashable(a["part"])
        sigma, c = int(g["sigma"]), _coord(g["c"])
        target = (_hashable(g["b"]["chamber"]), _hashable(g["b"]["part"]))
        for end, direction in (("lo", 1), ("hi", -1)):
            x = _coord(a[end])
            if x is not None:
                index[(ch, part, x, direction)] = (target, sigma, c)

    def cross(germ):
        ch, part, x, direction = germ
        hit = index.get(germ)
        if hit is None:
            return None
        (ch2, part2), sigma, c = hit
        x2 = tuple(sigma * xi + ci for xi, ci in zip(x, c))
        return (ch2, part2, x2, sigma * direction)

    def other(germ):
        """The second germ at the same corner, with the corner angle / pi."""
        ch, part, x, direction = germ
        chamber, p = json.loads(ch), json.loads(part)
        if chamber["type"] == "torus":
            side = "R" if p[2] == "L" else "L"
            return (ch, _hashable([p[0], p[1], side]), x, 1), 2.0
        if chamber["type"] in ("cyl", "cyl_arith"):
            return (ch, part, x, -direction), 1.0
        # triangle {0, a1, -a2}: side 1 runs 0 -> a1, side 3 a1 -> -a2,
        # side 2 -a2 -> 0, each with parameter 0 -> 1
        a1, a2, a3 = (value(e) for e in chamber["triple"])
        corners = {
            "v0": (((1, 0), 1), ((2, 1), -1), (a1, -a2)),
            "v1": (((1, 1), -1), ((3, 0), 1), (-a1, a3)),
            "v2": (((2, 0), 1), ((3, 1), -1), (a2, -a3)),
        }
        mine = ((p[1], int(x[0])), direction)
        for g_first, g_second, (d1, d2) in corners.values():
            if mine in (g_first, g_second):
                (side, s), d = g_second if mine == g_first else g_first
                angle = abs(cmath.phase(d2 / d1)) / math.pi
                return (ch, _hashable(["side", side]), (Fraction(s),) + x[1:], d), angle
        raise ValueError(f"germ {germ} is not a triangle corner")

    seen = set()
    totals = []
    centre = None
    for start in index:
        if start in seen:
            continue
        germ, total, walked, closed = start, 0.0, [], False
        for _ in range(64):
            walked.append(germ)
            out, angle = other(germ)
            walked.append(out)
            total += angle
            germ = cross(out)
            if germ is None:
                break
            if germ == start:
                closed = True
                break
        seen.update(walked)
        if not closed:
            continue
        if any(json.loads(g[0]).get("k") == "1" and g[2][0] == 0 for g in walked):
            centre = total
        else:
            totals.append(total)
    return totals, centre


def _check_gluing_maps(doc: dict) -> str | None:
    """Each gluing maps its segment onto its partner; its reverse is listed."""
    maps = {}
    for g in doc["gluings"]:
        a, b = g["a"], g["b"]
        sigma, c = int(g["sigma"]), _coord(g["c"])
        ends = [_coord(a["lo"]), _coord(a["hi"])]
        image = [None if x is None else tuple(sigma * xi + ci for xi, ci in zip(x, c))
                 for x in ends]
        if sigma < 0:
            image.reverse()
        if image != [_coord(b["lo"]), _coord(b["hi"])]:
            return f"gluing does not map {a['lo']}..{a['hi']} onto {b['lo']}..{b['hi']}"
        maps[(_hashable(a), _hashable(b))] = (sigma, c)
    for (a, b), (sigma, c) in maps.items():
        back = maps.get((b, a))
        if back != (sigma, tuple(-sigma * ci for ci in c)):
            return "a gluing has no inverse gluing"
    return None


def check_atlas_json(text: str, expect: dict) -> str | None:
    """Chamber and gluing counts, gluing maps and star angles of one atlas.

    ``expect`` holds ``kind`` and ``bound``; the counts are recomputed here.
    """
    doc = json.loads(text)
    kind, bound = expect["kind"], expect["bound"]
    if doc.get("kind") != kind or int(doc.get("bound", -1)) != bound:
        return f"atlas header {doc.get('kind')}/{doc.get('bound')} != {kind}/{bound}"
    types: dict = {}
    for c in doc["chambers"]:
        types[c["type"]] = types.get(c["type"], 0) + 1
    prims = len(primitive(bound))
    if kind == "arith_real":
        counts: dict = {}
        for c in doc["chambers"]:
            key = (int(c["k"]), int(c["sign"]))
            counts[key] = counts.get(key, 0) + 1
        want = {(k, s): phi(k) for k in range(1, bound + 1) for s in (1, -1)}
        if counts != want:
            bad = sorted(k for k in set(counts) | set(want) if counts.get(k) != want.get(k))
            return f"chambers per (k, sign) differ from phi(k) at {bad[:3]}"
    elif kind == "negative":
        triples = characteristic_triples(bound)
        mine = {
            tuple(tuple(int(v) for v in e) for e in c["triple"])
            for c in doc["chambers"]
            if c["type"] == "deg"
        }
        if types.get("deg", 0) != len(triples) or mine != triples:
            return f"{types.get('deg', 0)} triangle chambers, {len(triples)} triples"
        if types.get("cyl", 0) != prims:
            return f"{types.get('cyl', 0)} cylinder chambers, {prims} primitive periods"
    elif kind == "nonarith_real":
        if types != {"cyl": prims}:
            return f"chambers {types}, expected {prims} cylinders"
        # each collapsed triangle leaves two gluings, each stored both ways
        if len(doc["gluings"]) != 4 * len(characteristic_triples(bound)):
            return f"{len(doc['gluings'])} gluings, not four per triple"
    elif kind == "positive":
        if types != {"torus": 1, "cyl": prims}:
            return f"chambers {types}, expected 1 torus and {prims} cylinders"
        if len(doc["gluings"]) != 4 * prims:
            return f"{len(doc['gluings'])} gluings, not four per primitive period"
    bad = _check_gluing_maps(doc)
    if bad:
        return bad
    totals, centre = _star_totals(doc)
    off = [t for t in totals if abs(t - 6) > 1e-9]
    if off:
        return f"{len(off)} stars are not 6 pi (first {off[0]:.6f} pi)"
    if len(totals) != len(doc["singularities"]):
        return f"walked {len(totals)} stars, the atlas lists {len(doc['singularities'])}"
    if any(s["half_turns"] != 6 for s in doc["singularities"]):
        return "a listed star is not 6 pi"
    if kind == "arith_real":
        if centre is None or abs(centre - 2) > 1e-9:
            return f"arithmetic centre is {centre} pi, not 2 pi"
        if not doc["center"] or doc["center"]["half_turns"] != 2:
            return "listed centre is not 2 pi"
    return None


def check_svg(svg: str) -> str | None:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    if not root.tag.endswith("svg") or len(root) == 0:
        return "SVG has no drawing"
    return None


# ---------------------------------------------------------------------------
# Veech groups: the ring Z[gamma], gamma = sqrt(D) or (1 + sqrt(D)) / 2


def ring_mul(D: int, u: tuple, v: tuple) -> tuple:
    a, b = u
    c, d = v
    if D % 4 == 1:  # gamma^2 = gamma + (D - 1) / 4
        return (a * c + b * d * (D - 1) // 4, a * d + b * c + b * d)
    return (a * c + D * b * d, a * d + b * c)


def ring_norm(D: int, u: tuple) -> int:
    a, b = u
    if D % 4 == 1:
        return a * a + a * b - b * b * (D - 1) // 4
    return a * a - D * b * b


def ring_pow(D: int, u: tuple, k: int, mod: int | None = None) -> tuple:
    out, base = (1, 0), u
    while k:
        if k & 1:
            out = ring_mul(D, out, base)
            if mod:
                out = (out[0] % mod, out[1] % mod)
        base = ring_mul(D, base, base)
        if mod:
            base = (base[0] % mod, base[1] % mod)
        k >>= 1
    return out


_PELL: dict = {}


def pell_unit(D: int) -> tuple:
    """The fundamental unit of Z[gamma] from Pell equations (sympy).

    For D = 1 mod 4 the units are (x + y sqrt D)/2 with x^2 - D y^2 = +-4,
    otherwise x + y sqrt D with x^2 - D y^2 = +-1; the smallest unit above
    one has the smallest positive y.
    """
    if D not in _PELL:
        from sympy.solvers.diophantine.diophantine import diop_DN

        n = 4 if D % 4 == 1 else 1
        sols = [(int(x), int(y)) for N in (n, -n) for x, y in diop_DN(D, N)]
        x, y = min((s for s in sols if s[0] > 0 and s[1] > 0), key=lambda s: (s[1], s[0]))
        _PELL[D] = ((x - y) // 2, y) if D % 4 == 1 else (x, y)
    return _PELL[D]


def small_unit(D: int) -> tuple:
    """The fundamental unit without sympy, for choosing inputs quickly.

    Continued fraction of sqrt D (its convergents h/k hit h^2 - D k^2 = +-1);
    for D = 1 mod 4 a direct search for x^2 - D y^2 = +-4 with small y first.
    """
    if D % 4 == 1:
        for y in range(1, 10**4):
            for sign in (-4, 4):
                x2 = D * y * y + sign
                x = isqrt(x2) if x2 > 0 else 0
                if x > 0 and x * x == x2:
                    return ((x - y) // 2, y)
    a0 = isqrt(D)
    m, d, a = 0, 1, a0
    h_prev, h, k_prev, k = 1, a0, 0, 1
    while h * h - D * k * k not in (1, -1):
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    if D % 4 == 1:  # x = 2h, y = 2k in the +-4 equation
        return (h - k, 2 * k)
    return (h, k)


def to_field(D: int, eta: tuple) -> tuple:
    """alpha + beta gamma as (A, B) with A + B sqrt D."""
    a, b = eta
    if D % 4 == 1:
        return (Fraction(a) + Fraction(b, 2), Fraction(b, 2))
    return (Fraction(a), Fraction(b))


def stabilizes(D: int, theta: tuple, eta: tuple) -> bool:
    """Does multiplication by eta map Z + theta Z onto itself, orientation kept?

    ``theta = (c, p)`` stands for (c + sqrt D) / p.  With eta = A + B sqrt D:
    eta * 1 = (A - B c) + (B p) theta and
    eta * theta = B (D - c^2) / p + (A + B c) theta; all four coordinates
    must be integers and the determinant N(eta) must be one.
    """
    c, p = theta
    A, B = to_field(D, eta)
    coords = (A - B * c, B * p, B * (D - c * c) / p, A + B * c)
    return all(Fraction(x).denominator == 1 for x in coords) and A * A - D * B * B == 1


def veech_exponent(D: int, theta: tuple, eps: tuple) -> int:
    """Smallest k with eps^k stabilizing Z + (c + sqrt D)/p Z, by group orders.

    For an odd prime p not dividing D (c^2 - D) the conditions are: norm one,
    p | beta, and for D = 1 mod 4 also 2 | beta.  ``p | beta`` says eps^k is
    rational modulo p, a condition in the cyclic group (O/pO)^x / F_p^x of
    order p - (D|p); its order divides that group order.
    """
    c, p = theta
    n = p - legendre(D, p)
    assert ring_pow(D, eps, n, p)[1] % p == 0
    k_p = n
    for q in factorize(n):
        while k_p % q == 0 and ring_pow(D, eps, k_p // q, p)[1] % p == 0:
            k_p //= q
    k = k_p
    if D % 4 == 1:
        k2 = next(j for j in range(1, 7) if ring_pow(D, eps, j, 2)[1] % 2 == 0)
        k = k * k2 // gcd(k, k2)
    if ring_norm(D, eps) == -1 and k % 2:
        k *= 2
    return k


def check_unit(D: int, unit: tuple) -> str | None:
    want = pell_unit(D)
    return None if tuple(unit) == want else f"unit of D={D} is {unit}, Pell gives {want}"


def check_exponent(D: int, theta: tuple, exponent: int) -> str | None:
    want = veech_exponent(D, theta, pell_unit(D))
    return None if exponent == want else f"exponent {exponent}, group orders give {want}"


def check_generator(D: int, theta: tuple, exponent: int, generator: tuple) -> str | None:
    """The generator is eps^exponent and meets the module conditions."""
    if tuple(generator) != ring_pow(D, pell_unit(D), exponent):
        return "generator is not eps^exponent"
    if not stabilizes(D, theta, tuple(generator)):
        return "generator does not stabilize the module"
    return None


def check_minimal(D: int, theta: tuple, exponent: int) -> str | None:
    """No eps^(k/q), q a prime factor of k, stabilizes the module.

    The stabilizing exponents form a subgroup kZ, so this proves k least.
    """
    eps = pell_unit(D)
    for q in factorize(exponent):
        if stabilizes(D, theta, ring_pow(D, eps, exponent // q)):
            return f"eps^({exponent}/{q}) already stabilizes: exponent not minimal"
    return None


def check_quadratic(D: int, theta: tuple, exponent: int, generator: tuple) -> str | None:
    return (check_generator(D, theta, exponent, generator)
            or check_minimal(D, theta, exponent)
            or check_exponent(D, theta, exponent))


# ---------------------------------------------------------------------------
# Teichmueller numerics


def hyperbolic_distance(z: complex, w: complex) -> float:
    return math.acosh(1 + abs(z - w) ** 2 / (2 * z.imag * w.imag))


def check_trace(points, max_norm_one: bool) -> str | None:
    """Asymptotics of a normalized chamber trace sampled at t = 4, 8, ...

    Re sigma(t) - t and Im sigma(t) - (1/pi) log t must each converge
    geometrically: every change over one doubling of t is at most ``RATIO``
    times the previous change.  On max-norm-1 chambers the distance to
    t + i log t must also stay below log pi.
    """
    ts = [t for t, _ in points]
    if any(b != 2 * a for a, b in zip(ts, ts[1:])):
        return "samples are not successive doublings"
    for t, s in points:
        if not s.imag > 0:
            return f"sigma({t:g}) left the upper half plane"
        if max_norm_one and not hyperbolic_distance(s, complex(t, math.log(t))) < LOG_PI:
            return f"d({t:g}) >= log pi"
    for name, off in (
        ("Re sigma - t", [s.real - t for t, s in points]),
        ("Im sigma - log(t)/pi", [s.imag - math.log(t) / math.pi for t, s in points]),
    ):
        steps = [abs(b - a) for a, b in zip(off, off[1:])]
        for t, prev, step in zip(ts[2:], steps, steps[1:]):
            if step > max(RATIO * prev, 1e-7):
                return f"{name} does not converge at t={t:g}: step {step:.4g} after {prev:.4g}"
    return None


def check_boundary(p: int, q: int, estimate: float, rational) -> str | None:
    if abs(estimate + p / q) > 0.01 or rational != Fraction(-p, q):
        return f"boundary limit {estimate} ({rational}) is not -{p}/{q}"
    return None


def lattice_distance(zb: complex, z: complex, p1: complex, p2: complex) -> float:
    """Distance from zb to +-z modulo small combinations of the periods."""
    return min(
        abs(zb - s * z - m * p1 - n * p2)
        for s in (1, -1)
        for m in range(-3, 4)
        for n in range(-3, 4)
    )


def mp_leaf_coordinate(tau: complex, p1: complex, p2: complex) -> complex:
    """Relative period 2 a z0 - 2 b zeta(z0) at tau, evaluated with mpmath.

    zeta and wp on Z + tau Z come from Jacobi's theta_1 with nome
    exp(i pi tau): zeta(z) = eta1 z + pi th1'(pi z)/th1(pi z) and
    eta1 = -(pi^2/3) th1'''(0)/th1'(0); (a, b) solve p1 = a - b eta1,
    p2 = a tau - b eta2 with eta2 = 2 zeta(tau/2); z0 is a root of a + b wp.
    """
    import mpmath as mp

    mp.mp.dps = 25
    tau = mp.mpc(tau)
    q = mp.exp(1j * mp.pi * tau)

    def th(v, d=0):
        return mp.jtheta(1, v, q, d)

    eta1 = -(mp.pi**2 / 3) * th(0, 3) / th(0, 1)

    def zeta(z):
        return eta1 * z + mp.pi * th(mp.pi * z, 1) / th(mp.pi * z)

    def wp(z):
        v = mp.pi * z
        return -eta1 - mp.pi**2 * (th(v, 2) * th(v) - th(v, 1) ** 2) / th(v) ** 2

    eta2 = 2 * zeta(tau / 2)
    det = tau * eta1 - eta2
    a = (eta1 * p2 - eta2 * p1) / det
    b = (p2 - tau * p1) / det
    target = -a / b
    # starts: the pole asymptotics wp(z) ~ 1/z^2, then the best grid points
    grid = [(i + 0.5) / 6 + (j + 0.5) / 6 * tau for i in range(6) for j in range(6)]
    grid.sort(key=lambda z: abs(wp(z) - target))
    for start in [1 / mp.sqrt(target)] + grid[:6]:
        try:
            z0 = mp.findroot(lambda z: wp(z) - target, start, tol=1e-30, verify=False)
        except (ValueError, ZeroDivisionError):
            continue
        if abs(wp(z0) - target) < 1e-12 * max(1, abs(target)):
            # centre z0 in the period parallelogram: a translate by m + n tau
            # would shift the result by 2 m p1 + 2 n p2
            z0 -= mp.nint(z0.imag / tau.imag) * tau
            z0 -= mp.nint(z0.real)
            return complex(2 * a * z0 - 2 * b * zeta(z0))
    raise ValueError("no zero of a + b wp found")


def check_inversion(z: complex, tau: complex, p1: complex, p2: complex, forward) -> str | None:
    """The coordinate at the returned tau must give back z (sign, periods).

    ``forward`` evaluates the coordinate: the program's ``leaf_coordinate``
    or ``mp_leaf_coordinate``.
    """
    if not tau.imag > 0:
        return f"tau {tau} is not in the upper half plane"
    zb = forward(tau, p1, p2)
    d = lattice_distance(zb, z, p1, p2)
    return None if d < 1e-6 * max(1.0, abs(z)) else f"coordinate at tau misses z by {d:.3g}"


# ---------------------------------------------------------------------------
# command-line outputs


def check_classify(line: str, g1: complex, g2: complex) -> str | None:
    """``classify`` output: the kind label and Vol = Im(conj(g1) g2).

    ``g1``, ``g2`` are (re, im) pairs of Fractions.  Vol decides the sign
    kinds; a real character with rational ratio is arithmetic.
    """
    vol = g1[0] * g2[1] - g1[1] * g2[0]
    if vol > 0:
        label = "Positive"
    elif vol < 0:
        label = "Negative"
    else:
        label = "ArithmeticReal"
    head = f"{label}, Vol={vol}"
    got = line.strip().split(", generator")[0].split(", theta")[0]
    return None if got == head else f"classify printed {line.strip()!r}, expected {head!r}"


def check_stats(text: str, kind: str, bound: int) -> str | None:
    stats = json.loads(text)
    prims = len(primitive(bound))
    want = {
        "positive": (1 + prims, 4 * prims),
        "negative": (prims + len(characteristic_triples(bound)), None),
        "arith_real": (2 * sum(phi(k) for k in range(1, bound + 1)), None),
    }[kind]
    if stats["kind"] != kind or stats["chambers"] != want[0]:
        return f"stats report {stats['kind']} with {stats['chambers']} chambers, expected {want[0]}"
    if want[1] is not None and stats["gluings"] != want[1]:
        return f"stats report {stats['gluings']} gluings, expected {want[1]}"
    return None
