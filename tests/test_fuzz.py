"""Random argv over every subcommand, and mutated atlas JSON, run in process.

Every run of `isoleaf.cli.run` must return 0 or 1 or stop with
``SystemExit(2)``: any other exception is a crash of the program.  Sizes
stay small (bounds up to 6, denominators up to 10^4, times up to 16) so
that each example takes milliseconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isoleaf import cli

JUNK = [
    "", " ", "nan", "inf", "-inf", "1/0", "0/0", "x", "1,", ",", "1,2,3", "0,0", "1e999",
    "--bogus", "-1", "0", "10**9", "½", "1/3,1/7", "--g2=nan,1", "-3/4,5/4", "--stats",
    "atlas", "veech", "--D", "--field=gaussian", "1" * 30,
]


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, err.getvalue()


def _check(argv: list) -> None:
    code, err = _run(argv)
    assert code in (0, 1, ("exit", 2)), (argv, code, err[-500:])
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scratch working directory: junk paths resolve inside it."""
    path = tmp_path_factory.mktemp("fuzz")
    old = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(old)


# ---------------------------------------------------------------------------
# random argv

small_int = st.integers(-6, 6).map(str)
rational = st.one_of(
    small_int,
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-60, 60), st.integers(1, 10**4)),
)
pair = st.builds(lambda a, b: f"{a},{b}", rational, rational)
junk = st.sampled_from(JUNK)
real = st.floats(-2.0, 16.0, allow_nan=False).map(repr)
reals = st.lists(real, min_size=1, max_size=3).map(",".join)


def _flag(name: str, values):
    """``--name=value`` or ``--name value``, the value sometimes junk."""
    return st.tuples(st.booleans(), st.one_of(values, junk)).map(
        lambda bv: [f"{name}={bv[1]}"] if bv[0] else [name, bv[1]]
    )


def _maybe(flag):
    return st.one_of(st.just([]), flag)


character = st.tuples(
    _flag("--field", st.sampled_from(["rational", "gaussian", "quadratic"])),
    _flag("--g1", pair),
    _flag("--g2", pair),
    _maybe(_flag("--D", st.sampled_from(["2", "3", "5", "13", "94", "1", "4", "12"]))),
).map(lambda parts: sum(parts, []))

atlas_file = st.sampled_from(["positive.json", "arith.json", "missing.json", "."])

COMMANDS = {
    "classify": st.tuples(st.just(["classify"]), character),
    "veech": st.tuples(st.just(["veech"]), character),
    "build": st.tuples(
        st.just(["atlas", "build"]),
        _flag("--kind", st.sampled_from(["positive", "negative", "arithmetic", "nonarith"])),
        _maybe(_flag("--bound", st.integers(-2, 6).map(str))),
        _maybe(_flag("--kmax", st.integers(-2, 6).map(str))),
        _maybe(_flag("--D", st.sampled_from(["2", "3", "5", "4"]))),
        _maybe(_flag("--theta", pair)),
        _maybe(_flag("--out", st.sampled_from(["-", "out.json", "no/such/dir.json"]))),
    ),
    "check": st.tuples(
        st.just(["atlas", "check"]), atlas_file.map(lambda p: [p]),
    ),
    "stats": st.tuples(st.just(["atlas", "stats"]), atlas_file.map(lambda p: [p])),
    "render": st.tuples(
        st.just(["render"]), _flag("--atlas", atlas_file),
        _maybe(_flag("--out", st.sampled_from(["-", "out.svg"]))),
    ),
    "trace": st.tuples(
        st.just(["teich", "trace"]), character,
        _flag("--u", st.builds(lambda a, b: f"{a},{b}", st.integers(-3, 3), st.integers(-3, 3))),
        _maybe(_flag("--t", reals)),
        _maybe(_flag("--precision", st.sampled_from(["1e-9", "1e-6", "0", "-1"]))),
        _maybe(_flag("--epsilon", st.sampled_from(["0.01", "0", "-0.5"]))),
    ),
    "invert": st.tuples(
        st.just(["teich", "invert"]), character,
        _flag("--z", st.builds(lambda a, b: f"{a},{b}", real, real)),
        _flag("--guess", st.builds(lambda a, b: f"{a},{b}", real, real)),
        _maybe(_flag("--precision", st.sampled_from(["1e-9", "1e-6"]))),
    ),
}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = sum(draw(COMMANDS[name]), [])
    if draw(st.booleans()):
        argv = ["--stats", "run.json", *argv]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(junk))
    return argv


@given(argv=argvs())
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_argv_never_crashes(workdir, argv):
    for name, args in (("positive.json", ["--kind", "positive", "--bound", "2"]),
                       ("arith.json", ["--kind", "arithmetic", "--kmax", "3"])):
        if not (workdir / name).exists():
            assert _run(["atlas", "build", *args, "--out", name])[0] == 0
    _check(argv)


# ---------------------------------------------------------------------------
# mutated atlas JSON

ATLAS_ARGS = [
    ["--kind", "positive", "--bound", "2"],
    ["--kind", "negative", "--bound", "2"],
    ["--kind", "arithmetic", "--kmax", "3"],
    ["--kind", "nonarith", "--D", "2", "--theta", "1/3,1/7", "--bound", "2"],
]
WRONG = [None, True, 1.5, -1, 0, 10**30, "x", "-5", "1/0", "0", str(10**30), [], {}, ["1"],
         [["1", "0"]], {"x": 1}]


@pytest.fixture(scope="module")
def atlas_docs(workdir):
    docs = []
    for args in ATLAS_ARGS:
        assert _run(["atlas", "build", *args, "--out", "doc.json"])[0] == 0
        docs.append(json.loads((workdir / "doc.json").read_text()))
    return docs


@st.composite
def mutations(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        for _ in range(draw(st.integers(1, 7))):
            if isinstance(node, dict) and node:
                k = draw(st.sampled_from(sorted(node)))
            elif isinstance(node, list) and node:
                k = draw(st.integers(0, len(node) - 1))
            else:
                break
            parent, key, node = node, k, node[k]
        if parent is None:
            continue
        op = draw(st.sampled_from(["drop", "rename", "replace", "replace", "int"]))
        if op == "drop":
            del parent[key]
        elif op == "rename" and isinstance(parent, dict):
            parent[key + "_"] = parent.pop(key)
        elif op == "int":
            parent[key] = str(draw(st.sampled_from([-10**30, -7, -1, 0, 1, 7, 10**30])))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(WRONG)))
    return doc


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_atlas_never_crashes(workdir, atlas_docs, data):
    doc = data.draw(mutations(atlas_docs))
    (workdir / "mutated.json").write_text(json.dumps(doc))
    command = data.draw(st.sampled_from([
        ["atlas", "check", "mutated.json"],
        ["atlas", "stats", "mutated.json"],
        ["render", "--atlas", "mutated.json", "--out", "mutated.svg"],
    ]))
    _check(command)
