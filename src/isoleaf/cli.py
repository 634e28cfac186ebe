"""Command-line entry point: classify, build/check atlases, trace, render.

Subcommands
-----------
``classify``
    Print the leaf kind and volume of a period character.
``atlas build | check | stats``
    Construct an atlas and write it as JSON, run the invariant suite on a
    stored atlas, or summarize one.
``veech``
    Print the Veech-group descriptor of a character as JSON.
``teich trace | invert``
    Trace a cylinder-chamber wall into the upper half plane (CSV output),
    or invert a single relative period to a Teichmueller point.
``render``
    Draw a stored atlas as an SVG figure.

Combinatorial commands take exact coordinates ("num/den" pairs); the
``teich`` commands take floating input with an explicit ``--precision``.
Every run logs the normalized character and the truncation bound in use to
stderr.  Usage errors exit with status 2, failed checks with status 1.
``--stats PATH`` (or the ``ISOLEAF_STATS`` environment variable) writes one
JSON record of the run to PATH: the command and its flags, the normalized
character and bound, per-stage durations, counts and results (see
`isoleaf.stats`).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from .leaf_atlas import (
    Atlas,
    atlas_from_json_dict,
    atlas_to_json_dict,
    build_arithmetic,
    build_negative,
    build_nonarith,
    build_positive,
    check_atlas,
)
from .period_algebra import (
    GroundField,
    IsoleafError,
    PeriodCharacter,
    _is_square_free,
    classify,
    normalize,
    volume,
)
from . import stats
from .render import render_atlas
from .teich_numeric import chamber_trace, leaf_to_teich, model_point
from .veech import ConjSL2Z, QuadraticV, TriangularV, fundamental_unit, veech_group

__all__ = ["main", "run"]

log = logging.getLogger("isoleaf.cli")

_KIND_LABEL = {
    "positive": "Positive",
    "negative": "Negative",
    "arith_real": "ArithmeticReal",
    "nonarith_real": "NonArithmeticReal",
}


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_fractions(parser: argparse.ArgumentParser, flag: str, text: str) -> tuple:
    """Parse ``"1,0"`` / ``"3/2,-1/4"`` into a tuple of Fractions."""
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        parser.error(f"{flag}: expected comma-separated rationals such as 1,0 or 3/2,-1/4")


def _parse_floats(parser: argparse.ArgumentParser, flag: str, text: str) -> list:
    try:
        values = [float(part.strip()) for part in text.split(",")]
    except ValueError:
        values = []
    if not values or not all(math.isfinite(x) for x in values):
        parser.error(f"{flag}: expected comma-separated finite numbers")
    return values


def _finite_float(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _radicand(text: str) -> int:
    """argparse type: a square-free integer D >= 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    try:
        square_free = value >= 2 and _is_square_free(value)
    except IsoleafError as exc:  # too hard to factor
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not square_free:
        raise argparse.ArgumentTypeError(f"expected a square-free integer >= 2, got {text!r}")
    return value


def _parse_int_pair(parser: argparse.ArgumentParser, flag: str, text: str) -> tuple:
    parts = text.split(",")
    try:
        pair = tuple(int(p.strip()) for p in parts)
    except ValueError:
        pair = ()
    if len(pair) != 2:
        parser.error(f"{flag}: expected an integer pair such as 1,0")
    return pair


def _character(parser: argparse.ArgumentParser, args: argparse.Namespace) -> PeriodCharacter:
    """Build the exact period character described by --field/--g1/--g2/--D."""
    g1 = _parse_fractions(parser, "--g1", args.g1)
    g2 = _parse_fractions(parser, "--g2", args.g2)
    if args.field == "rational":
        for flag, coords in (("--g1", g1), ("--g2", g2)):
            if len(coords) == 2 and coords[1] != 0:
                parser.error(f"{flag}: rational periods have no second coordinate")
            if len(coords) not in (1, 2):
                parser.error(f"{flag}: expected one rational (a second, zero, is allowed)")
        return PeriodCharacter.rational(g1[0], g2[0])
    if len(g1) != 2 or len(g2) != 2:
        parser.error(f"--field {args.field} takes two coordinates per period")
    if args.field == "gaussian":
        return PeriodCharacter.gaussian(g1, g2)
    if args.D is None:
        parser.error("--field quadratic requires --D")
    return PeriodCharacter.quadratic(args.D, g1, g2)


def _chi_text(chi: PeriodCharacter) -> str:
    field = chi.field.tag if chi.field.D is None else f"{chi.field.tag}({chi.field.D})"
    return f"({chi.g1}, {chi.g2}) over {field}"


def _log_run(chi: PeriodCharacter, bound) -> None:
    """One line per run: the normalized character and the truncation bound."""
    norm = normalize(chi)
    stats.record("character", _chi_text(chi))
    stats.record("normal_form", _chi_text(norm.character))
    stats.record("kind", norm.kind.kind)
    stats.record("bound", bound)
    log.info(
        "character %s; normal form %s [%s]; truncation bound %s",
        _chi_text(chi),
        _chi_text(norm.character),
        norm.kind.kind,
        "-" if bound is None else bound,
    )


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_atlas(parser: argparse.ArgumentParser, path: str) -> Atlas:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        parser.error(f"atlas file not found: {path}")
    except json.JSONDecodeError as exc:
        parser.error(f"atlas file is not valid JSON: {path}: {exc}")
    with stats.span("load"):
        atlas = atlas_from_json_dict(data)
    _count_atlas(atlas)
    return atlas


def _count_atlas(atlas: Atlas) -> None:
    stats.count("chambers", len(atlas.chambers))
    stats.count("gluings", len(atlas.gluings))
    stats.count("stars", len(atlas.singularities))


def _dump_atlas(atlas: Atlas) -> str:
    """Canonical JSON text for an atlas (sorted keys, stable indentation)."""
    with stats.span("dump"):
        return json.dumps(atlas_to_json_dict(atlas), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_classify(parser, args) -> int:
    chi = _character(parser, args)
    with stats.span("classify"):
        kind = classify(chi)
    _log_run(chi, None)
    line = f"{_KIND_LABEL[kind.kind]}, Vol={volume(chi)}"
    if kind.generator is not None:
        line += f", generator={kind.generator}"
    if kind.theta is not None:
        line += f", theta={kind.theta}"
    print(line)
    return 0


def _cmd_atlas_build(parser, args) -> int:
    bound = args.kmax if args.kmax is not None else args.bound
    if bound is None:
        parser.error("atlas build requires --bound (or --kmax for the arithmetic kind)")
    if args.kind == "nonarith":
        if args.D is None:
            parser.error("atlas build --kind nonarith requires --D")
        if args.theta is None:
            parser.error("atlas build --kind nonarith requires --theta a/b,c/d")
        coeffs = _parse_fractions(parser, "--theta", args.theta)
        if len(coeffs) != 2:
            parser.error("--theta takes two coordinates: rational part, sqrt coefficient")
        theta = GroundField.quadratic(args.D).element(*coeffs)
    with stats.span("build"):
        if args.kind == "positive":
            atlas = build_positive(bound)
        elif args.kind == "negative":
            atlas = build_negative(bound)
        elif args.kind == "arithmetic":
            atlas = build_arithmetic(bound)
        else:
            atlas = build_nonarith(theta, bound)
    _count_atlas(atlas)
    _log_run(atlas.character, atlas.bound)
    _write_text(args.out, _dump_atlas(atlas))
    return 0


def _cmd_atlas_check(parser, args) -> int:
    atlas = _load_atlas(parser, args.atlas)
    _log_run(atlas.character, atlas.bound)
    with stats.span("check"):
        report = check_atlas(atlas)
    for name, ok in report.checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if report.passed:
        print("all checks passed")
        return 0
    print(json.dumps({"counterexamples": report.failures}, default=str, sort_keys=True))
    return 1


def _cmd_atlas_stats(parser, args) -> int:
    atlas = _load_atlas(parser, args.atlas)
    _log_run(atlas.character, atlas.bound)
    with stats.span("dump"):
        data = atlas_to_json_dict(atlas)
    by_type: dict = {}
    for chamber in data["chambers"]:
        by_type[chamber["type"]] = by_type.get(chamber["type"], 0) + 1
    summary = {
        "schema": data["schema"],
        "kind": atlas.kind,
        "character": data["character"],
        "bound": data["bound"],
        "chambers": len(atlas.chambers),
        "chambers_by_type": by_type,
        "gluings": len(atlas.gluings),
        "truncated": len(atlas.truncated),
        "singularities": len(atlas.singularities),
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _veech_descriptor_dict(group) -> dict:
    if isinstance(group, TriangularV):
        return {"type": "TriangularV"}
    if isinstance(group, ConjSL2Z):
        rows = [[str(entry) for entry in row] for row in group.conjugator]
        return {"type": "ConjSL2Z", "conjugator": rows}
    if isinstance(group, QuadraticV):
        return {
            "type": "QuadraticV",
            "D": group.D,
            "tau": list(group.tau),
            "generator": list(group.generator),
            "exponent": group.exponent,
        }
    raise IsoleafError(f"unknown Veech descriptor {group!r}")


def _check_printable(group: QuadraticV) -> None:
    """Raise unless the generator prints within the int-to-str limit.

    The larger coordinate of ``eps^k = a + b gamma`` lies between
    ``eps^k / (1 + gamma)`` and ``2 eps^k``, so ``k log10 eps`` decides the
    digit count unless it is within a few digits of the limit; only then
    is ``eps^k`` expanded.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    a, b = fundamental_unit(group.D)
    gamma = (1 + math.sqrt(group.D)) / 2 if group.D % 4 == 1 else math.sqrt(group.D)
    digits = group.exponent * (math.log10(b) + math.log10(a / b + gamma))
    if digits < limit - 1:
        return
    if digits - math.log10(1 + gamma) <= limit + 1 and all(
        abs(x) < 10**limit for x in group.generator
    ):
        return
    raise IsoleafError(
        f"the generator eps^{group.exponent} over D = {group.D} has more than "
        f"{limit} decimal digits, past the int-to-str limit"
    )


def _cmd_veech(parser, args) -> int:
    chi = _character(parser, args)
    _log_run(chi, None)
    with stats.span("veech"):
        group = veech_group(chi)
    if isinstance(group, QuadraticV):
        _check_printable(group)
    print(json.dumps(_veech_descriptor_dict(group), sort_keys=True, indent=2))
    return 0


def _cmd_teich_trace(parser, args) -> int:
    chi = _character(parser, args)
    u = _parse_int_pair(parser, "--u", args.u)
    if math.gcd(*u) != 1:
        parser.error("--u: expected a primitive pair (coprime entries), such as 2,1")
    t_samples = _parse_floats(parser, "--t", args.t)
    _log_run(chi, None)
    with stats.span("trace"):
        trace = chamber_trace(
            chi, u, t_samples, precision=args.precision, epsilon=args.epsilon,
            horizon=args.horizon,
        )
    distances = dict(trace.distances())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["t", "re_sigma", "im_sigma", "distance_to_model"])
    for t, sigma in trace.points:
        d = distances.get(t)
        writer.writerow(
            [f"{t:.12g}", f"{sigma.real:.12g}", f"{sigma.imag:.12g}", "nan" if d is None else f"{d:.12g}"]
        )
    _write_text(args.out, buffer.getvalue())
    return 0


def _cmd_teich_invert(parser, args) -> int:
    chi = _character(parser, args)
    z = _parse_floats(parser, "--z", args.z)
    guess = _parse_floats(parser, "--guess", args.guess)
    if len(z) != 2 or len(guess) != 2:
        parser.error("--z and --guess take two coordinates: re,im")
    _log_run(chi, None)
    with stats.span("invert"):
        point = leaf_to_teich(chi, complex(*z), complex(*guess), precision=args.precision)
    print(json.dumps({"tau_re": point.tau.real, "tau_im": point.tau.imag}, sort_keys=True))
    return 0


def _cmd_render(parser, args) -> int:
    atlas = _load_atlas(parser, args.atlas)
    _log_run(atlas.character, atlas.bound)
    with stats.span("render"):
        svg = render_atlas(atlas)
    _write_text(args.out, svg)
    return 0


# ---------------------------------------------------------------------------
# parser assembly and dispatch


def _add_character_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--field", required=True, choices=["rational", "gaussian", "quadratic"],
        help="ground field of the period coordinates",
    )
    sub.add_argument("--g1", required=True, help='first period, e.g. "1,0" or "3/2,-1/4"')
    sub.add_argument("--g2", required=True, help="second period, same format")
    sub.add_argument(
        "--D", type=_radicand, help="square-free discriminant for --field quadratic"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoleaf",
        description="Isoperiodic leaves of genus-one forms with a double pole: "
        "classification, chamber atlases, Veech groups, traces, figures.",
    )
    parser.add_argument(
        "--stats", metavar="PATH",
        help="write a JSON record of the run to PATH (default: $ISOLEAF_STATS, else none)",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    sub = commands.add_parser("classify", help="classify a period character")
    _add_character_flags(sub)
    sub.set_defaults(handler=_cmd_classify, command_name="classify")

    atlas = commands.add_parser("atlas", help="build, check, or summarize atlases")
    atlas_sub = atlas.add_subparsers(dest="atlas_command", required=True, metavar="action")

    sub = atlas_sub.add_parser("build", help="construct an atlas and write JSON")
    sub.add_argument(
        "--kind", required=True, choices=["positive", "negative", "arithmetic", "nonarith"]
    )
    sub.add_argument("--bound", type=int, help="truncation bound (wall-and-chamber radius)")
    sub.add_argument("--kmax", type=int, help="alias for --bound on the arithmetic kind")
    sub.add_argument("--D", type=_radicand, help="square-free discriminant (nonarith kind)")
    sub.add_argument("--theta", help='slope as "a/b,c/d": rational part, sqrt coefficient')
    sub.add_argument("--out", default="-", help="output path, - for stdout")
    sub.set_defaults(handler=_cmd_atlas_build, command_name="atlas build")

    sub = atlas_sub.add_parser("check", help="run the invariant suite on a stored atlas")
    sub.add_argument("atlas", help="path to an atlas JSON file")
    sub.set_defaults(handler=_cmd_atlas_check, command_name="atlas check")

    sub = atlas_sub.add_parser("stats", help="summarize a stored atlas")
    sub.add_argument("atlas", help="path to an atlas JSON file")
    sub.set_defaults(handler=_cmd_atlas_stats, command_name="atlas stats")

    sub = commands.add_parser("veech", help="print the Veech-group descriptor as JSON")
    _add_character_flags(sub)
    sub.set_defaults(handler=_cmd_veech, command_name="veech")

    teich = commands.add_parser("teich", help="numeric leaf-to-Teichmueller maps")
    teich_sub = teich.add_subparsers(dest="teich_command", required=True, metavar="action")

    sub = teich_sub.add_parser("trace", help="trace a cylinder-chamber wall (CSV)")
    _add_character_flags(sub)
    sub.add_argument("--u", required=True, help='core direction as an integer pair, e.g. "1,0"')
    sub.add_argument("--t", default="4,8,16,32,64", help="comma-separated sample times")
    sub.add_argument("--precision", type=_positive_float, default=1e-9)
    sub.add_argument(
        "--epsilon", type=_finite_float, help="wall offset (default chosen by the tracer)"
    )
    sub.add_argument("--horizon", type=_finite_float, help="continue the trace grid up to this t")
    sub.add_argument("--out", default="-", help="output path, - for stdout")
    sub.set_defaults(handler=_cmd_teich_trace, command_name="teich trace")

    sub = teich_sub.add_parser("invert", help="invert one relative period to a point of H")
    _add_character_flags(sub)
    sub.add_argument("--z", required=True, help='relative period as "re,im"')
    sub.add_argument("--guess", required=True, help='starting point of H as "re,im"')
    sub.add_argument("--precision", type=_positive_float, default=1e-9)
    sub.set_defaults(handler=_cmd_teich_invert, command_name="teich invert")

    sub = commands.add_parser("render", help="draw a stored atlas as SVG")
    sub.add_argument("--atlas", required=True, help="path to an atlas JSON file")
    sub.add_argument("--out", default="-", help="output path, - for stdout")
    sub.set_defaults(handler=_cmd_render, command_name="render")

    return parser


def _configure_logging() -> None:
    log.handlers.clear()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("isoleaf: %(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    log.propagate = False


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    handler: Callable = args.handler
    try:
        return handler(parser, args)
    except (IsoleafError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` and dispatch.  Returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging()
    path = args.stats or os.environ.get("ISOLEAF_STATS")
    if not path:
        return _dispatch(parser, args)
    flags = {k: v for k, v in vars(args).items() if k not in ("handler", "command_name", "stats")}
    record: dict = {}
    try:
        with stats.collect(command=args.command_name, flags=flags) as record:
            try:
                record["exit"] = _dispatch(parser, args)
            except SystemExit as exc:  # a usage error found by the handler
                record["exit"] = exc.code
                raise
    finally:
        try:
            Path(path).write_text(
                json.dumps(record, sort_keys=True, indent=2, default=str) + "\n",
                encoding="utf-8",
            )
        except OSError as exc:
            print(f"error: cannot write the stats record: {exc}", file=sys.stderr)
            record["exit"] = 1
    return record["exit"]


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
