#!/usr/bin/env python3
"""Self-test of the output checkers: right outputs pass, wrong ones fail.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For each checker in `oracles`,
one output made by the program (at small sizes) must be accepted and each
deliberately wrong variant of it must be rejected.  Exits 1 if any checker
accepts a wrong output or rejects a right one.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import isoleaf  # noqa: E402

import oracles  # noqa: E402

FAILURES = []


def expect(name: str, verdict, wrong: bool) -> None:
    ok = (verdict is not None) if wrong else (verdict is None)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict or 'accepted'}")
    if not ok:
        FAILURES.append(name)


def atlas_text(atlas) -> str:
    return json.dumps(isoleaf.atlas_to_json_dict(atlas), sort_keys=True, indent=2) + "\n"


def edited(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def atlases() -> None:
    arith = atlas_text(isoleaf.build_arithmetic(6))
    spec = {"kind": "arith_real", "bound": 6}
    expect("arith atlas", oracles.check_atlas_json(arith, spec), False)
    expect("arith: one chamber dropped",
           oracles.check_atlas_json(arith, spec) or oracles.check_atlas_json(
               edited(arith, lambda d: d["chambers"].pop()), spec), True)
    extra = {"type": "cyl_arith", "k": "5", "l": "2", "sign": 1}
    expect("arith: an extra chamber",
           oracles.check_atlas_json(edited(arith, lambda d: d["chambers"].append(extra)), spec),
           True)
    expect("arith: a gluing dropped",
           oracles.check_atlas_json(edited(arith, lambda d: d["gluings"].pop(7)), spec), True)

    def shift(d):  # a wrong offset moves one wall end off its vertex
        d["gluings"][3]["c"] = [["1", "3"]]

    expect("arith: a gluing offset changed", oracles.check_atlas_json(edited(arith, shift), spec),
           True)
    expect("arith: centre listed as 4 pi", oracles.check_atlas_json(
        edited(arith, lambda d: d["center"].update(half_turns=4)), spec), True)

    neg = atlas_text(isoleaf.build_negative(3))
    spec = {"kind": "negative", "bound": 3}
    expect("negative atlas", oracles.check_atlas_json(neg, spec), False)
    expect("negative: a triangle chamber dropped", oracles.check_atlas_json(
        edited(neg, lambda d: d["chambers"].remove(
            next(c for c in d["chambers"] if c["type"] == "deg"))), spec), True)

    first = next(c["triple"] for c in json.loads(neg)["chambers"] if c["type"] == "deg")
    sheared = [["1", "0"], ["4", "1"], ["-5", "-1"]]  # a valid triple of other angles

    def reshape(node):  # the same gluing pattern on a triangle of other angles
        if isinstance(node, dict):
            if node.get("type") == "deg" and node["triple"] == first:
                node["triple"] = sheared
            for v in node.values():
                reshape(v)
        elif isinstance(node, list):
            for v in node:
                reshape(v)

    expect("negative: one triangle with other corner angles",
           oracles.check_atlas_json(edited(neg, reshape), spec), True)
    assert len(oracles.characteristic_triples(3)) == len(isoleaf.enumerate_triples(
        isoleaf.PeriodCharacter.gaussian((1, 0), (0, -1)), 3))

    F = isoleaf.GroundField.quadratic(2)
    nonarith = atlas_text(isoleaf.build_nonarith(F.element(Fraction(1, 3), Fraction(1, 5)), 4))
    spec = {"kind": "nonarith_real", "bound": 4}
    expect("nonarith atlas", oracles.check_atlas_json(nonarith, spec), False)
    expect("nonarith: a gluing dropped", oracles.check_atlas_json(
        edited(nonarith, lambda d: d["gluings"].pop(0)), spec), True)

    pos = atlas_text(isoleaf.build_positive(3))
    spec = {"kind": "positive", "bound": 3}
    expect("positive atlas", oracles.check_atlas_json(pos, spec), False)
    expect("positive: a cylinder chamber dropped", oracles.check_atlas_json(
        edited(pos, lambda d: d["chambers"].pop()), spec), True)

    loaded = isoleaf.atlas_from_json_dict(json.loads(arith))
    expect("JSON dump -> load -> dump", None if atlas_text(loaded) == arith else "differs", False)
    squeezed = json.dumps(json.loads(arith), sort_keys=True) + "\n"
    expect("JSON: a re-indented dump", None if atlas_text(loaded) == squeezed else "differs", True)

    svg = isoleaf.render_atlas(isoleaf.build_arithmetic(4))
    expect("SVG", oracles.check_svg(svg), False)
    expect("SVG: truncated", oracles.check_svg(svg[: len(svg) // 2]), True)


def veech() -> None:
    for D in (2, 3, 5, 13, 94):
        expect(f"unit D={D}", oracles.check_unit(D, isoleaf.fundamental_unit(D)), False)
    expect("unit D=3 squared", oracles.check_unit(3, (7, 4)), True)
    assert all(oracles.small_unit(D) == oracles.pell_unit(D) for D in (2, 3, 5, 13, 94))

    for D, theta in ((2, (5, 101)), (3, (7, 103)), (5, (3, 107))):
        c, p = theta
        F = isoleaf.GroundField.quadratic(D)
        g = isoleaf.veech_group(isoleaf.PeriodCharacter(
            F, F.one(), F.element(Fraction(c, p), Fraction(1, p))))
        k, gen = g.exponent, tuple(g.generator)
        expect(f"veech D={D}", oracles.check_quadratic(D, theta, k, gen), False)
        eps = oracles.pell_unit(D)
        twice = oracles.ring_pow(D, eps, 2 * k)
        expect(f"veech D={D}: exponent doubled (generator check)",
               oracles.check_generator(D, theta, 2 * k, twice), False)
        expect(f"veech D={D}: exponent doubled (minimality)",
               oracles.check_minimal(D, theta, 2 * k), True)
        expect(f"veech D={D}: exponent doubled (group order)",
               oracles.check_exponent(D, theta, 2 * k), True)
        expect(f"veech D={D}: generator off by one",
               oracles.check_generator(D, theta, k, (gen[0] + 1, gen[1])), True)
        expect(f"veech D={D}: generator of another module",
               oracles.check_generator(D, (c, 7919 * p), k, gen), True)


def numerics() -> None:
    square = isoleaf.PeriodCharacter.gaussian((1, 0), (0, 1))
    ts = [4.0 * 2**k for k in range(7)]
    points = isoleaf.chamber_trace(square, (1, 0), ts).points
    expect("trace CC_1", oracles.check_trace(points, True), False)
    expect("trace: Im sigma held constant",
           oracles.check_trace([(t, complex(s.real, points[0][1].imag)) for t, s in points],
                               False), True)
    expect("trace: Im sigma = log t + 0.3",
           oracles.check_trace([(t, complex(s.real, math.log(t) + 0.3)) for t, s in points],
                               False), True)
    expect("trace: Re sigma drifts",
           oracles.check_trace([(t, s + 0.05 * math.log(t)) for t, s in points], False), True)
    expect("trace: far from the model curve",
           oracles.check_trace([(t, s + 3j) for t, s in points], True), True)
    expect("trace (3,1) on the square leaf (known fault)",
           oracles.check_trace(isoleaf.chamber_trace(square, (3, 1), ts).points, False), True)

    bl = isoleaf.boundary_limit(square, (2, 1))
    expect("boundary limit (2,1)", oracles.check_boundary(2, 1, bl.estimate, bl.rational), False)
    expect("boundary limit off by 0.02",
           oracles.check_boundary(2, 1, bl.estimate + 0.02, bl.rational), True)

    p1, p2 = 1 + 0j, 1j
    forward = lambda tau, a, b: complex(isoleaf.leaf_coordinate(square, tau))
    for z in (0.3 - 0.4j, 0.8 - 0.1j):
        tau = isoleaf.leaf_to_teich(square, z, 1j).tau
        for name, fwd in (("program", forward), ("mpmath", oracles.mp_leaf_coordinate)):
            expect(f"inversion {z} ({name})", oracles.check_inversion(z, tau, p1, p2, fwd), False)
            expect(f"inversion {z} ({name}): tau moved by 1e-3",
                   oracles.check_inversion(z, tau + 1e-3, p1, p2, fwd), True)


def cli_outputs() -> None:
    g1, g2 = (Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(3, 2))
    expect("classify", oracles.check_classify("Positive, Vol=3/2", g1, g2), False)
    expect("classify: wrong volume", oracles.check_classify("Positive, Vol=3", g1, g2), True)
    expect("classify: wrong kind", oracles.check_classify("Negative, Vol=3/2", g1, g2), True)
    stats = {"kind": "positive", "chambers": 1 + len(oracles.primitive(4)),
             "gluings": 4 * len(oracles.primitive(4))}
    expect("atlas stats", oracles.check_stats(json.dumps(stats), "positive", 4), False)
    stats["chambers"] += 1
    expect("atlas stats: an extra chamber",
           oracles.check_stats(json.dumps(stats), "positive", 4), True)


def main() -> int:
    atlases()
    veech()
    numerics()
    cli_outputs()
    print(f"{len(FAILURES)} checker self-tests failed" if FAILURES else "all checkers behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
