"""The three workloads: seeded inputs and one pass of operations each.

A workload's inputs are built once from the seed, then its `run_pass` is
repeated.  Every pass makes the same operations in the same order through
`Recorder.call`, which times the call, charges it to a stage, and keeps
the output for checking.  Each operation has a checker from `oracles`;
known faults of the program are listed in `KNOWN_FAULTS`.

The program is reached only through ``isoleaf.*`` and ``isoleaf.cli.run``,
looked up at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

import isoleaf
import isoleaf.cli

import oracles

STAGES = ("build", "check", "json", "render", "trace", "invert", "veech", "cli")

# operations that fail on every run because of a fault in the program;
# their inputs do not depend on the seed
KNOWN_FAULTS = {
    "trace:(1,i):(3,1)": "chamber_trace loses the wall after t = 32",
    "trace:(1,i):(2,3)": "chamber_trace loses the wall after t = 32",
    "cli:veech-large:0": "ValueError: 38,000-digit generator hits the int-to-str limit",
}

FAILED = object()  # output of an operation that raised or depends on one that did

TRACE_T = [4.0 * 2**k for k in range(7)]  # t = 4 ... 256
UNIT_CHAMBERS = [(1, 0), (0, 1), (1, 1), (1, -1)]  # the max-norm-1 chambers
CHI_SQUARE = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


class Recorder:
    """Times operations, charges them to stages and keeps their outputs."""

    def __init__(self):
        self.pass_times: list = []  # per pass: stage -> seconds
        self.op_times: dict = {}  # operation -> seconds of each of its calls
        self.op_stage: dict = {}  # operation -> stage
        self.first: dict = {}  # pass-1 output per operation
        self.digests: list = []  # later passes: digest per operation
        self.errors: list = []  # (pass, operation, repr of exception)
        self.attempted = 0

    def start_pass(self) -> None:
        self.pass_times.append(dict.fromkeys(STAGES, 0.0))
        if len(self.pass_times) > 1:
            self.digests.append({})

    def call(self, stage: str, key: str, fn, *args, keep=None):
        self.attempted += 1
        if any(a is FAILED for a in args):
            self.errors.append((len(self.pass_times), key, "input failed"))
            return FAILED
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that raises counts as failed
            self.timed(stage, key, perf_counter() - t0)
            self.errors.append((len(self.pass_times), key, repr(exc)[:200]))
            return FAILED
        self.timed(stage, key, perf_counter() - t0)
        kept = keep(out) if keep else out
        if len(self.pass_times) == 1:
            self.first[key] = kept
        else:
            self.digests[-1][key] = digest(kept)
        return out

    def timed(self, stage: str, key: str, dt: float) -> None:
        self.pass_times[-1][stage] += dt
        self.op_times.setdefault(key, []).append(dt)
        self.op_stage[key] = stage

    def stage_seconds(self) -> dict:
        """Per stage, the sum over its operations of each one's median time.

        This is the time of a typical pass in that stage.  Each operation
        is timed in every pass, and taking its median before summing keeps
        a slow moment of the machine, which hits a few calls of one pass,
        out of the figure.
        """
        out = dict.fromkeys(STAGES, 0.0)
        for key, times in self.op_times.items():
            out[self.op_stage[key]] += median(times)
        return out


def digest(x) -> str:
    """A comparable fingerprint that never converts large ints to text."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, str):
            h.update(b"s" + v.encode())
        elif isinstance(v, bool) or v is None:
            h.update(repr(v).encode())
        elif isinstance(v, int):
            h.update(b"i" + v.to_bytes((v.bit_length() + 8) // 8, "little", signed=True))
        elif isinstance(v, float):
            h.update(b"f" + v.hex().encode())
        elif isinstance(v, complex):
            h.update(b"c" + v.real.hex().encode() + v.imag.hex().encode())
        elif isinstance(v, Fraction):
            feed(v.numerator)
            feed(v.denominator)
        elif isinstance(v, (tuple, list)):
            h.update(b"(")
            for y in v:
                feed(y)
            h.update(b")")
        else:
            raise TypeError(f"cannot digest {type(v).__name__}")

    feed(x)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# shared operations


def dump_load(atlas):
    """Canonical JSON text of an atlas, then the atlas loaded back from it."""
    text = json.dumps(isoleaf.atlas_to_json_dict(atlas), sort_keys=True, indent=2) + "\n"
    back = isoleaf.atlas_from_json_dict(json.loads(text))
    return text, len(back.chambers), len(back.gluings), len(back.singularities)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = isoleaf.cli.run(list(argv))
        except SystemExit as exc:  # usage errors exit through argparse
            code = exc.code
    return code, out.getvalue()


def atlas_counts(a):
    return (len(a.chambers), len(a.gluings), len(a.singularities))


def report_summary(r):
    return (r.passed, tuple(name for name, _ in r.checks), len(r.failures))


def descriptor(g):
    if isinstance(g, isoleaf.QuadraticV):
        return ("QuadraticV", g.D, tuple(g.tau), tuple(g.generator), g.exponent)
    if isinstance(g, isoleaf.ConjSL2Z):
        return ("ConjSL2Z", tuple(tuple(Fraction(x) for x in row) for row in g.conjugator))
    return (type(g).__name__,)


def boundary_summary(bl):
    return (bl.estimate, bl.rational)


def trace_points(tr):
    return tuple((t, s) for t, s in tr.points)


def gauss(chi_pair):
    """PeriodCharacter from ((re, im), (re, im)) Fraction pairs."""
    return isoleaf.PeriodCharacter.gaussian(chi_pair[0], chi_pair[1])


def frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def pick_theta(rng: random.Random, D: int, target: int) -> tuple:
    """(c, p) with theta = (c + sqrt D)/p whose Veech exponent is near target.

    The exponent divides the order of the group (O/pO)^x / F_p^x, p - (D|p),
    and for a unit of norm one also half of it.  p is one of the first
    primes where the exponent reaches that largest value and is near
    ``target``, so the residue-cycle walk has a known length within about
    one percent of ``target`` whatever the seed.
    """
    eps = oracles.small_unit(D)
    half = oracles.ring_norm(D, eps) == 1
    candidates = []
    p = max(target * (2 if half else 1), 7)
    while len(candidates) < 8:
        p += 1
        if D % p == 0 or not oracles.is_prime(p):
            continue
        c = 1 + rng.randrange(p - 1)
        while (c * c - D) % p == 0:
            c = 1 + rng.randrange(p - 1)
        full = p - oracles.legendre(D, p)
        if oracles.veech_exponent(D, (c, p), eps) == (full // 2 if half else full):
            candidates.append((c, p))
    return rng.choice(candidates)


def stratified(rng: random.Random, nx: int, ny: int, box=(0.1, 0.9, -0.9, -0.1)) -> list:
    """nx * ny points of the box x0..x1, y0..y1, one per grid cell.

    One seeded point per cell keeps the spread of the points, and so the
    spread of inversion costs, nearly the same for every seed.
    """
    x0, x1, y0, y1 = box
    return [complex(x0 + (x1 - x0) * (i + rng.random()) / nx,
                    y0 + (y1 - y0) * (j + rng.random()) / ny)
            for i in range(nx) for j in range(ny)]


def quadratic_chi(D: int, theta: tuple, scale: Fraction = Fraction(1)):
    """The character (s, s (c + sqrt D)/p) over Q(sqrt D)."""
    c, p = theta
    F = isoleaf.GroundField.quadratic(D)
    return isoleaf.PeriodCharacter(F, F.element(scale), F.element(scale * c / p, scale / p))


def periods(chi) -> tuple:
    return complex(chi.g1), complex(chi.g2)


class Workload:
    """Inputs of one workload, one pass over them, and their checkers."""

    name = ""
    min_passes = 3
    PROBE_REPEATS = 4  # a probe of a few tens of ms is repeated, spread over the pass

    def __init__(self, seed: int, scratch: Path):
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.checks: dict = {}  # operation key -> list of checkers of its kept output
        self.same_as: dict = {}  # operation key -> key of the same call, checked in full
        self.square = gauss(CHI_SQUARE)

    def add_check(self, key: str, fn) -> None:
        self.checks.setdefault(key, []).append(fn)

    def write_atlas(self, name: str, atlas) -> str:
        path = self.scratch / name
        path.write_text(json.dumps(isoleaf.atlas_to_json_dict(atlas), sort_keys=True))
        return str(path)

    def run_pass(self, rec: Recorder) -> None:
        """One pass: the workload's streams of operations, interleaved.

        Each stream keeps its order; the streams are merged so that every
        stream is spread evenly over the pass.  A slow spell of the machine
        then weighs on every stage alike instead of on whichever block of
        operations it happens to hit.
        """
        jobs = []
        for k, stream in enumerate(self.streams(rec)):
            jobs.extend(((i + 0.5) / len(stream), k, i, job) for i, job in enumerate(stream))
        jobs.sort(key=lambda j: j[:3])
        for *_, job in jobs:
            job()

    @staticmethod
    def job(rec: Recorder, stage: str, key: str, fn, *args, **kw):
        return lambda: rec.call(stage, key, fn, *args, **kw)

    def atlas_stream(self, rec: Recorder, suffix: str, build, *args) -> list:
        """Build, check, JSON round trip and render of one atlas, in order."""
        held = {}

        def built():
            held["atlas"] = rec.call("build", "build" + suffix, build, *args, keep=atlas_counts)

        def then(stage, fn, **kw):
            return lambda: rec.call(stage, stage + suffix, fn, held["atlas"], **kw)

        def last():
            rec.call("render", "render" + suffix, isoleaf.render_atlas, held.pop("atlas"))

        return [built, then("check", isoleaf.check_atlas, keep=report_summary),
                then("json", dump_load), last]

    def atlas_checks(self, suffix: str, kind: str, bound: int, chambers: int, required=()):
        self.add_check("build" + suffix, lambda c: (
            None if c[0] == chambers else f"{c[0]} chambers, expected {chambers}"))
        self.add_check("check" + suffix, _report_ok(list(required)))
        self.add_check("json" + suffix, _json_ok(kind, bound))
        self.add_check("render" + suffix, oracles.check_svg)

    def cli_check_ok(self, name: str, kind: str, bound: int):
        """``atlas check`` passes on a file that the checkers accept too."""

        def check(out):
            if out.splitlines()[-1:] != ["all checks passed"]:
                return f"atlas check printed {out[-200:]!r}"
            text = (self.scratch / name).read_text()
            return oracles.check_atlas_json(text, {"kind": kind, "bound": bound})

        return _cli_ok(check)

    def inversion_checks(self, i: int, z: complex, chi, mp_sample: bool) -> None:
        p1, p2 = periods(chi)
        forward = lambda tau, *_: complex(isoleaf.leaf_coordinate(chi, tau))
        self.add_check(f"invert:{i}", lambda tau: oracles.check_inversion(z, tau, p1, p2, forward))
        if mp_sample:
            self.add_check(f"invert:{i}", lambda tau: oracles.check_inversion(
                z, tau, p1, p2, oracles.mp_leaf_coordinate))

    def probe_trace(self, rec: Recorder) -> list:
        """Short traces on the square leaf, so that trace_s is measured here too."""
        return [self.job(rec, "trace", f"trace:probe:{r}", isoleaf.chamber_trace, self.square,
                         (1, 0), TRACE_T[:4], keep=trace_points)
                for r in range(self.PROBE_REPEATS)]

    def probe_check(self) -> None:
        for r in range(self.PROBE_REPEATS):
            self.add_check(f"trace:probe:{r}", lambda pts: oracles.check_trace(pts, True))

    def cli_stream(self, rec: Recorder) -> list:
        """The workload's CLI commands, the whole set run CLI_REPEATS times."""
        return [self.job(rec, "cli", f"{key}:{r}", run_cli, argv)
                for r in range(self.CLI_REPEATS) for key, argv in self.cli]

    def add_cli_check(self, key: str, fn) -> None:
        for r in range(self.CLI_REPEATS):
            self.add_check(f"{key}:{r}", fn)


# ---------------------------------------------------------------------------
# atlas-arith


class AtlasArith(Workload):
    name = "atlas-arith"
    CLI_REPEATS = 2
    KMAX = 40

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = self.rng
        self.rationals = []
        for _ in range(600):
            a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            b = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            self.rationals.append((a or Fraction(1), b))
        self.rational_chis = [isoleaf.PeriodCharacter.rational(a, b) for a, b in self.rationals]
        self.chi = isoleaf.PeriodCharacter.rational(1, 0)
        self.zs = stratified(rng, 8, 5)
        small = self.write_atlas("arith.json", isoleaf.build_arithmetic(8))
        c1, c2 = self.rationals[0]
        self.cli = [
            ("cli:classify", ["classify", "--field", "rational", f"--g1={frac_text(c1)}",
                              f"--g2={frac_text(c2)}"]),
            ("cli:stats", ["atlas", "stats", small]),
            ("cli:check", ["atlas", "check", small]),
        ]

    def streams(self, rec: Recorder) -> list:
        job = self.job
        return [
            self.atlas_stream(rec, "", isoleaf.build_arithmetic, self.KMAX),
            [job(rec, "veech", f"veech:{i}", isoleaf.veech_group, chi, keep=descriptor)
             for i, chi in enumerate(self.rational_chis)],
            [job(rec, "invert", f"invert:{i}", _invert, self.chi, z, 1j)
             for i, z in enumerate(self.zs)],
            self.probe_trace(rec),
            self.cli_stream(rec),
        ]

    def install_checks(self):
        n = sum(2 * oracles.phi(k) for k in range(1, self.KMAX + 1))
        self.atlas_checks("", "arith_real", self.KMAX, n, ["wall-surface-match", "phi-count"])
        for i in range(len(self.rationals)):
            self.add_check(f"veech:{i}", lambda d: None if d == ("TriangularV",) else f"{d[0]}")
        for i, z in enumerate(self.zs):
            self.inversion_checks(i, z, self.chi, i < 2)
        self.probe_check()
        c1, c2 = self.rationals[0]
        self.add_cli_check("cli:classify", _cli_ok(
            lambda out: oracles.check_classify(out, (c1, 0), (c2, 0))))
        self.add_cli_check("cli:stats", _cli_ok(
            lambda out: oracles.check_stats(out, "arith_real", 8)))
        self.add_cli_check("cli:check", self.cli_check_ok("arith.json", "arith_real", 8))


# ---------------------------------------------------------------------------
# atlas-triangle


class AtlasTriangle(Workload):
    name = "atlas-triangle"
    CLI_REPEATS = 2
    BOUND = 12
    NONARITH_BOUND = 8

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = self.rng
        self.thetas = {D: pick_theta(rng, D, 30000) for D in (2, 3, 5)}
        self.nonarith = {D: quadratic_chi(D, self.thetas[D]) for D in (2, 3, 5)}
        self.chi_neg = isoleaf.PeriodCharacter.gaussian((1, 0), (0, -1))
        self.inv = []
        # tau on both sides of Re tau = 0 but 0.1 away from it: near that line
        # Newton fails from some guesses within 0.05 (README, "Operations left out")
        taus = (stratified(rng, 4, 5, (-0.45, -0.1, 0.9, 1.8))
                + stratified(rng, 4, 5, (0.1, 0.45, 0.9, 1.8)))
        for tau in taus:
            z = complex(isoleaf.leaf_coordinate(self.chi_neg, tau))
            guess = tau + complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
            self.inv.append((z, guess))
        small = self.write_atlas("negative.json", isoleaf.build_negative(4))
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        self.cli_scale = s
        self.cli = [
            ("cli:classify", ["classify", "--field", "gaussian", f"--g1={frac_text(s)},0",
                              f"--g2=0,{frac_text(-s)}"]),
            ("cli:stats", ["atlas", "stats", small]),
            ("cli:check", ["atlas", "check", small]),
        ]

    def streams(self, rec: Recorder) -> list:
        job = self.job
        atlases = self.atlas_stream(rec, ":negative", isoleaf.build_negative, self.BOUND)
        for D, chi in self.nonarith.items():
            atlases += self.atlas_stream(rec, f":nonarith{D}", isoleaf.build_nonarith, chi.g2,
                                         self.NONARITH_BOUND)
        veech = [job(rec, "veech", "veech:negative", isoleaf.veech_group, self.chi_neg,
                     keep=descriptor)]
        veech += [job(rec, "veech", f"veech:{D}", isoleaf.veech_group, chi, keep=descriptor)
                  for D, chi in self.nonarith.items()]
        return [
            atlases,
            veech,
            [job(rec, "invert", f"invert:{i}", _invert, self.chi_neg, z, guess)
             for i, (z, guess) in enumerate(self.inv)],
            self.probe_trace(rec),
            self.cli_stream(rec),
        ]

    def install_checks(self):
        prims = len(oracles.primitive(self.BOUND))
        tri = len(oracles.characteristic_triples(self.BOUND))
        self.atlas_checks(":negative", "negative", self.BOUND, prims + tri)
        small = len(oracles.primitive(self.NONARITH_BOUND))
        for D in self.nonarith:
            self.atlas_checks(f":nonarith{D}", "nonarith_real", self.NONARITH_BOUND, small)
            self.add_check(f"veech:{D}", _quadratic_ok(D, self.thetas[D]))
        conj = ("ConjSL2Z", ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))))
        self.add_check("veech:negative", lambda d: None if d == conj else f"descriptor {d}")
        for i, (z, _) in enumerate(self.inv):
            self.inversion_checks(i, z, self.chi_neg, i < 2)
        self.probe_check()
        s = self.cli_scale
        self.add_cli_check("cli:classify", _cli_ok(
            lambda out: oracles.check_classify(out, (s, 0), (0, -s))))
        self.add_cli_check("cli:stats", _cli_ok(lambda out: oracles.check_stats(out, "negative", 4)))
        self.add_cli_check("cli:check", self.cli_check_ok("negative.json", "negative", 4))


# ---------------------------------------------------------------------------
# teich-veech


VEECH_TARGETS = [  # (D, exponent near): residue cycles from 10^2 to 10^5 steps
    (2, 100000), (2, 100), (3, 30000), (3, 1000), (5, 10000), (5, 300),
    (13, 3000), (13, 100), (94, 1000),
]
BOUNDARY_US = [(1, 1), (2, 1), (3, 2)]
# three positive leaves (1, g2): the square one and two sheared, stretched ones
LEAVES = [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1)),
          (Fraction(-1, 4), Fraction(5, 4))]


FAULTY_TRACES = [(3, 1), (2, 3)]


class TeichVeech(Workload):
    name = "teich-veech"
    POS_BOUND = 12
    INV_PER_LEAF = 80
    CLI_REPEATS = 1

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = self.rng
        self.chis = [gauss(((Fraction(1), Fraction(0)), g2)) for g2 in LEAVES]
        self.inv = []
        for j, (x, y) in enumerate(LEAVES):
            centre = complex(float(x), float(y))  # the flat point of the leaf: a cold start
            for z in stratified(rng, 10, 8):
                self.inv.append((j, z, centre))
        self.veech = []
        for D, target in VEECH_TARGETS:
            theta = pick_theta(rng, D, target)
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            self.veech.append((D, theta, quadratic_chi(D, theta, scale)))
        small = self.write_atlas("positive.json", isoleaf.build_positive(4))
        gx, gy = self.cli_g2 = (Fraction(rng.randint(-4, 4), 8), Fraction(rng.randint(8, 16), 8))
        c, p = self.cli_theta = pick_theta(rng, 3, 1000)
        x, y = LEAVES[1]
        z = self.inv[self.INV_PER_LEAF][1]
        self.cli = [
            ("cli:classify", ["classify", "--field", "gaussian", "--g1=1,0",
                              f"--g2={frac_text(gx)},{frac_text(gy)}"]),
            ("cli:veech", ["veech", "--field", "quadratic", "--D", "3", "--g1=1,0",
                           f"--g2={c}/{p},1/{p}"]),
            ("cli:invert", ["teich", "invert", "--field", "gaussian", "--g1=1,0",
                            f"--g2={frac_text(x)},{frac_text(y)}",
                            f"--z={z.real!r},{z.imag!r}",
                            f"--guess={float(x)!r},{float(y)!r}"]),
            ("cli:stats", ["atlas", "stats", small]),
            ("cli:veech-large", ["veech", "--field", "quadratic", "--D", "2", "--g1=1,0",
                                 "--g2=0,1/100003"]),
        ]

    def streams(self, rec: Recorder) -> list:
        job = self.job
        traces = [job(rec, "trace", f"trace:{j}:{u}", isoleaf.chamber_trace, chi, u, TRACE_T,
                      keep=trace_points)
                  for j, chi in enumerate(self.chis) for u in UNIT_CHAMBERS]
        traces += [job(rec, "trace", f"trace:(1,i):({u[0]},{u[1]})", isoleaf.chamber_trace,
                       self.square, u, TRACE_T, keep=trace_points) for u in FAULTY_TRACES]
        traces += [job(rec, "trace", f"boundary:{u}", isoleaf.boundary_limit, self.square, u,
                       keep=boundary_summary) for u in BOUNDARY_US]
        veech = [job(rec, "veech", f"unit:{D}", isoleaf.fundamental_unit, D, keep=tuple)
                 for D in (2, 3, 5, 13, 94)]
        veech += [job(rec, "veech", f"veech:{i}", isoleaf.veech_group, chi, keep=descriptor)
                  for i, (_, _, chi) in enumerate(self.veech)]
        atlases = []
        for r in range(self.PROBE_REPEATS):
            atlases += self.atlas_stream(rec, f":{r}", isoleaf.build_positive, self.POS_BOUND)
        return [
            atlases,
            traces,
            [job(rec, "invert", f"invert:{i}", _invert, self.chis[j], z, guess)
             for i, (j, z, guess) in enumerate(self.inv)],
            veech,
            self.cli_stream(rec),
        ]

    def install_checks(self):
        n = 1 + len(oracles.primitive(self.POS_BOUND))
        self.atlas_checks(":0", "positive", self.POS_BOUND, n)
        for r in range(1, self.PROBE_REPEATS):  # repeats of the same calls: same outputs
            for stage in ("build", "check", "json", "render"):
                self.same_as[f"{stage}:{r}"] = f"{stage}:0"
        for j in range(len(LEAVES)):
            for u in UNIT_CHAMBERS:
                self.add_check(f"trace:{j}:{u}", lambda pts: oracles.check_trace(pts, True))
        for u in FAULTY_TRACES:
            self.add_check(f"trace:(1,i):({u[0]},{u[1]})",
                           lambda pts: oracles.check_trace(pts, False))
        for p, q in BOUNDARY_US:
            self.add_check(f"boundary:{(p, q)}",
                           lambda r, p=p, q=q: oracles.check_boundary(p, q, r[0], r[1]))
        for i, (j, z, _) in enumerate(self.inv):
            self.inversion_checks(i, z, self.chis[j], i % self.INV_PER_LEAF == 0)
        for D in (2, 3, 5, 13, 94):
            self.add_check(f"unit:{D}", lambda u, D=D: oracles.check_unit(D, u))
        for i, (D, theta, _) in enumerate(self.veech):
            self.add_check(f"veech:{i}", _quadratic_ok(D, theta))
        self.add_cli_check("cli:classify", _cli_ok(
            lambda out: oracles.check_classify(out, (1, 0), self.cli_g2)))

        def veech_json(out):
            d = json.loads(out)
            if d.get("type") != "QuadraticV" or d.get("D") != 3:
                return f"veech printed {d.get('type')}"
            return oracles.check_quadratic(3, self.cli_theta, d["exponent"], tuple(d["generator"]))

        self.add_cli_check("cli:veech", _cli_ok(veech_json))
        z, chi = self.inv[self.INV_PER_LEAF][1], self.chis[1]
        p1, p2 = periods(chi)
        forward = lambda tau, *_: complex(isoleaf.leaf_coordinate(chi, tau))

        def invert_json(out):
            d = json.loads(out)
            return oracles.check_inversion(z, complex(d["tau_re"], d["tau_im"]), p1, p2, forward)

        self.add_cli_check("cli:invert", _cli_ok(invert_json))
        self.add_cli_check("cli:stats", _cli_ok(lambda out: oracles.check_stats(out, "positive", 4)))
        self.add_cli_check("cli:veech-large", _cli_ok(lambda out: None))


def _invert(chi, z, guess):
    return isoleaf.leaf_to_teich(chi, z, guess).tau


# ---------------------------------------------------------------------------
# checker factories


def _report_ok(required):
    def check(summary):
        passed, names, nfail = summary
        missing = [n for n in required + ["cone-angles", "connectivity"] if n not in names]
        if not passed or nfail or missing:
            return f"check_atlas passed={passed}, failures={nfail}, missing {missing}"
        return None

    return check


def _json_ok(kind, bound):
    def check(kept):
        text, nch, ngl, nsing = kept
        doc = json.loads(text)
        if (len(doc["chambers"]), len(doc["gluings"]), len(doc["singularities"])) != (nch, ngl, nsing):
            return "the loaded atlas differs from its JSON"
        bad = oracles.check_atlas_json(text, {"kind": kind, "bound": bound})
        if bad:
            return bad
        again = json.dumps(
            isoleaf.atlas_to_json_dict(isoleaf.atlas_from_json_dict(doc)), sort_keys=True, indent=2
        ) + "\n"
        return None if again == text else "dump -> load -> dump is not byte-identical"

    return check


def _quadratic_ok(D, theta):
    def check(d):
        if d[0] != "QuadraticV" or d[1] != D:
            return f"descriptor {d[0]} for D={D}"
        return oracles.check_quadratic(D, theta, d[4], d[3])

    return check


def _cli_ok(check_out):
    def check(kept):
        code, out = kept
        if code != 0:
            return f"exit code {code}"
        return check_out(out)

    return check


WORKLOADS = {w.name: w for w in (AtlasArith, AtlasTriangle, TeichVeech)}
