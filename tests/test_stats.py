"""The run record of ``isoleaf --stats`` and the `isoleaf.stats` helpers."""

from __future__ import annotations

import json

import pytest

from isoleaf import cli, stats, teich_numeric


@pytest.fixture(scope="module")
def atlas_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("atlas") / "positive.json"
    assert cli.run(["atlas", "build", "--kind", "positive", "--bound", "3", "--out", str(path)]) == 0
    return str(path)


CHARACTER = ["--field", "gaussian", "--g1=1,0", "--g2=0,1"]

# argv, the command name, the spans the record must hold
COMMANDS = {
    "classify": (["classify", *CHARACTER], "classify", ["classify"]),
    "build": (["atlas", "build", "--kind", "arithmetic", "--kmax", "4"], "atlas build",
              ["build", "dump"]),
    "check": (["atlas", "check", "{atlas}"], "atlas check",
              ["load", "check", "check.gluing-involution", "check.segments-glued-once",
               "check.cone-angles", "check.connectivity"]),
    "stats": (["atlas", "stats", "{atlas}"], "atlas stats", ["load", "dump"]),
    "veech": (["veech", "--field", "quadratic", "--D", "3", "--g1=1,0", "--g2=0,3"], "veech",
              ["veech"]),
    "trace": (["teich", "trace", *CHARACTER, "--u", "1,0", "--t", "4,8"], "teich trace",
              ["trace"]),
    "invert": (["teich", "invert", *CHARACTER, "--z=0.3,-0.4", "--guess=0,1"], "teich invert",
               ["invert"]),
    "render": (["render", "--atlas", "{atlas}"], "render", ["load", "render"]),
}


def _argv(name, atlas_path):
    return [a.replace("{atlas}", atlas_path) for a in COMMANDS[name][0]]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_record_of_each_command(name, atlas_path, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ISOLEAF_STATS", raising=False)
    argv = _argv(name, atlas_path)
    assert cli.run(argv) == 0
    plain = capsys.readouterr().out
    path = tmp_path / "run.json"
    # a fresh process starts with no Weierstrass tables
    monkeypatch.setattr(teich_numeric, "_DATA_CACHE", {})
    assert cli.run(["--stats", str(path), *argv]) == 0
    assert capsys.readouterr().out == plain  # stdout does not change with stats on
    rec = json.loads(path.read_text())
    _, command, spans = COMMANDS[name]
    assert rec["command"] == command and rec["exit"] == 0
    assert "stats" not in rec["flags"] and "handler" not in rec["flags"]
    assert rec["normal_form"] and rec["kind"]
    assert "bound" in rec
    for span in spans + ["total"]:
        assert rec["spans"][span] >= 0.0, span
    assert sum(rec["spans"][s] for s in spans if "." not in s) <= rec["spans"]["total"]
    if name in ("build", "check", "stats", "render"):
        assert rec["counts"]["chambers"] > 0 and rec["counts"]["gluings"] > 0
        assert "stars" in rec["counts"]
    if name == "build":
        assert rec["bound"] == 4 and rec["kind"] == "arith_real"
    if name == "veech":
        # M' = 3 for (t, l, m) = (1, 0, 3) over D = 3; the order divides 3
        assert rec["veech"] == {"modulus": 3, "bound": 3, "exponent": 3}
    if name in ("trace", "invert"):
        assert rec["counts"]["tables"] >= 1 and rec["counts"]["cold_zero_searches"] >= 1
    if name == "invert":
        # Newton needs two cold zero searches: at the guess and for the check
        assert rec["invert"]["strategy"] == "newton"
        assert rec["invert"]["newton_iterations"] >= 1
        assert rec["counts"]["cold_zero_searches"] == 2


def test_environment_variable(tmp_path, capsys, monkeypatch):
    path = tmp_path / "env.json"
    monkeypatch.setenv("ISOLEAF_STATS", str(path))
    assert cli.run(["classify", *CHARACTER]) == 0
    assert json.loads(path.read_text())["command"] == "classify"


def test_error_runs_are_recorded(tmp_path, capsys):
    path = tmp_path / "err.json"
    assert cli.run(["--stats", str(path), "atlas", "build", "--kind", "negative",
                    "--bound", "-3"]) == 1
    assert json.loads(path.read_text())["exit"] == 1
    with pytest.raises(SystemExit):
        cli.run(["--stats", str(path), "veech", "--field", "quadratic", "--g1=1,0", "--g2=0,1"])
    assert json.loads(path.read_text())["exit"] == 2


def test_unwritable_record_exits_1(tmp_path, capsys):
    code = cli.run(["--stats", str(tmp_path / "missing" / "run.json"), "classify", *CHARACTER])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.strip() == "Positive, Vol=1"
    assert captured.err.strip().splitlines()[-1].startswith("error: cannot write")


def test_helpers_do_nothing_when_off():
    with stats.span("x"):
        stats.count("y", 3)
        stats.record("z", 1)
    with stats.collect(command="c") as rec:
        with stats.span("x"):
            stats.count("y", 3)
            stats.count("y")
            stats.record("z", 1)
    assert rec["command"] == "c" and rec["counts"] == {"y": 4} and rec["z"] == 1
    assert set(rec["spans"]) == {"x", "total"}
    with stats.span("x"):  # off again after the block
        stats.count("y")
    assert rec["counts"] == {"y": 4}


@pytest.mark.parametrize("kind", [["--kind", "negative", "--bound", "3"],
                                  ["--kind", "positive", "--bound", "2"]])
def test_star_walk_span_and_counts(kind, tmp_path, capsys, monkeypatch):
    # the builder and the loader both walk the stars: one span, two counts
    monkeypatch.delenv("ISOLEAF_STATS", raising=False)
    out = tmp_path / "a.json"
    argv = ["atlas", "build", *kind, "--out", str(out)]
    assert cli.run(argv) == 0
    plain = capsys.readouterr().out
    path = tmp_path / "run.json"
    assert cli.run(["--stats", str(path), *argv]) == 0
    assert capsys.readouterr().out == plain
    built = json.loads(path.read_text())
    assert cli.run(["--stats", str(path), "atlas", "check", str(out)]) == 0
    checked = json.loads(path.read_text())
    for rec in (built, checked):
        assert 0.0 <= rec["spans"]["stars"] <= rec["spans"]["total"]
        counts = rec["counts"]
        assert counts["star_walks"] == counts["stars"] + counts["open_walks"]
    assert built["spans"]["stars"] <= built["spans"]["build"]
    assert checked["spans"]["stars"] <= checked["spans"]["load"]
