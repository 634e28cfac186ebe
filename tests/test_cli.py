"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from isoleaf import cli
from isoleaf.leaf_atlas import atlas_from_json_dict
from isoleaf.period_algebra import _RHO_STEPS, PeriodCharacter
from isoleaf.teich_numeric import hyperbolic_distance, model_point
from isoleaf.veech import veech_group


# nextprime(10**19) * nextprime(3 * 10**19): factoring it takes about 10^10 rho steps
_SEMIPRIME = 300000000000000001940000000000000002091


def invoke(capsys, argv):
    """Run the CLI in-process; return (exit_code, stdout, stderr)."""
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _replaced(node, old, new):
    """``node`` with every sub-document equal to ``old`` replaced by ``new``."""
    if node == old:
        return new
    if isinstance(node, dict):
        return {k: _replaced(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [_replaced(v, old, new) for v in node]
    return node


class TestClassify:
    def test_positive_gaussian(self, capsys):
        code, out, err = invoke(
            capsys, ["classify", "--g1", "1,0", "--g2", "0,1", "--field", "gaussian"]
        )
        assert code == 0
        assert out.strip() == "Positive, Vol=1"

    def test_negative_gaussian(self, capsys):
        code, out, _ = invoke(
            capsys, ["classify", "--g1", "1,0", "--g2", "0,-1", "--field", "gaussian"]
        )
        assert code == 0
        assert out.strip() == "Negative, Vol=-1"

    def test_arithmetic_rational(self, capsys):
        code, out, _ = invoke(
            capsys, ["classify", "--g1", "1,0", "--g2", "0,0", "--field", "rational"]
        )
        assert code == 0
        assert out.startswith("ArithmeticReal, Vol=0")
        assert "generator=1" in out

    def test_nonarithmetic_quadratic(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["classify", "--field", "quadratic", "--D", "2", "--g1", "1,0", "--g2=-1,1"],
        )
        assert code == 0
        assert out.startswith("NonArithmeticReal, Vol=0")
        assert "sqrt(2)" in out

    def test_fractional_coordinates(self, capsys):
        code, out, _ = invoke(
            capsys, ["classify", "--g1", "1/2,0", "--g2", "0,1/2", "--field", "gaussian"]
        )
        assert code == 0
        assert out.strip() == "Positive, Vol=1/4"

    def test_run_logs_normal_form(self, capsys):
        _, _, err = invoke(
            capsys, ["classify", "--g1", "2,0", "--g2", "0,2", "--field", "gaussian"]
        )
        assert "normal form" in err
        assert "truncation bound" in err


class TestUsageErrors:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_coordinate_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["classify", "--g1", "one,0", "--g2", "0,1", "--field", "gaussian"])
        assert exc.value.code == 2

    def test_rational_with_imaginary_part_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["classify", "--g1", "1,1", "--g2", "0,0", "--field", "rational"])
        assert exc.value.code == 2

    def test_quadratic_without_discriminant_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["classify", "--field", "quadratic", "--g1", "1,0", "--g2", "0,1"])
        assert exc.value.code == 2

    def test_build_without_bound_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["atlas", "build", "--kind", "positive"])
        assert exc.value.code == 2

    def test_nonarith_build_without_theta_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["atlas", "build", "--kind", "nonarith", "--bound", "1", "--D", "2"])
        assert exc.value.code == 2

    def test_bad_u_pair_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(
                ["teich", "trace", "--field", "gaussian", "--g1", "1,0", "--g2", "0,1", "--u", "1"]
            )
        assert exc.value.code == 2

    def test_wrong_leaf_kind_exits_1(self, capsys):
        code, _, err = invoke(
            capsys,
            [
                "teich", "trace", "--field", "gaussian",
                "--g1", "1,0", "--g2", "0,-1", "--u", "1,0", "--t", "2",
            ],
        )
        assert code == 1
        assert "error:" in err


SQUARE_LEAF = ["--field", "gaussian", "--g1", "1,0", "--g2", "0,1"]


class TestTypedErrors:
    """Inputs that once ended in a traceback: a usage error or one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["teich", "trace", *SQUARE_LEAF, "--u", "1,0", "--t", "nan"],
            ["teich", "invert", *SQUARE_LEAF, "--z", "inf,0", "--guess", "0,1"],
            ["teich", "trace", *SQUARE_LEAF, "--u", "2,2"],
            ["teich", "invert", *SQUARE_LEAF, "--z", "0.3,0.2", "--guess", "0,-1"],
            ["teich", "trace", *SQUARE_LEAF, "--u", "1,0", "--precision", "-1"],
            ["classify", "--field", "quadratic", "--D", "4", "--g1", "1,0", "--g2", "0,1"],
        ],
        ids=["t-nan", "z-inf", "u-imprimitive", "guess-below-axis", "precision-negative",
             "D-not-square-free"],
    )
    def test_exits_without_traceback(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "isoleaf.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode in (1, 2)
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["teich", "trace", *SQUARE_LEAF, "--u", "1,0", "--t", "nan"],
            ["teich", "trace", *SQUARE_LEAF, "--u", "1,0", "--horizon", "inf"],
            ["teich", "trace", *SQUARE_LEAF, "--u", "2,2"],
            ["teich", "trace", *SQUARE_LEAF, "--u", "0,0"],
            ["teich", "trace", *SQUARE_LEAF, "--u", "1,0", "--precision", "0"],
            ["teich", "invert", *SQUARE_LEAF, "--z", "inf,0", "--guess", "0,1"],
            ["teich", "invert", *SQUARE_LEAF, "--z", "0.3,0.2", "--guess", "nan,1"],
            ["classify", "--field", "quadratic", "--D", "4", "--g1", "1,0", "--g2", "0,1"],
            ["classify", "--field", "quadratic", "--D", "1", "--g1", "1,0", "--g2", "0,1"],
            ["atlas", "build", "--kind", "nonarith", "--D", "12", "--theta", "0,1",
             "--bound", "2"],
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["teich", "invert", *SQUARE_LEAF, "--z", "0.3,0.2", "--guess", "0,-1"],
            ["teich", "trace", *SQUARE_LEAF, "--u", "1,0", "--t", "-1"],
            # the reduced modulus is 8.4e6 i, past the double-precision series
            ["teich", "invert", *SQUARE_LEAF, "--z", "0.3,0.2", "--guess", "0,1.2e-7"],
            ["atlas", "build", "--kind", "positive", "--bound", "2", "--out", "no/such/dir.json"],
        ],
    )
    def test_library_value_errors_exit_1(self, capsys, argv):
        code, out, err = invoke(capsys, argv)
        assert code == 1 and out == ""
        *log_lines, last = err.splitlines()
        assert last.startswith("error:")
        assert all(line.startswith("isoleaf:") for line in log_lines)


class TestVeech:
    def test_triangular_descriptor(self, capsys):
        code, out, _ = invoke(
            capsys, ["veech", "--g1", "1,0", "--g2", "0,0", "--field", "rational"]
        )
        assert code == 0
        assert json.loads(out) == {"type": "TriangularV"}

    def test_conjugate_modular_descriptor(self, capsys):
        code, out, _ = invoke(
            capsys, ["veech", "--g1", "1,0", "--g2", "0,1", "--field", "gaussian"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["type"] == "ConjSL2Z"
        assert data["conjugator"] == [["1", "0"], ["0", "1"]]

    def test_quadratic_descriptor(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["veech", "--field", "quadratic", "--D", "2", "--g1", "1,0", "--g2", "0,1"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["type"] == "QuadraticV"
        assert data["D"] == 2
        assert data["generator"] == [3, 2]
        assert data["exponent"] == 2

    def test_generator_past_int_str_limit_exits_1(self, capsys):
        # eps^100004 over D = 2 has about 38,000 digits
        code, out, err = invoke(
            capsys,
            ["veech", "--field", "quadratic", "--D", "2", "--g1", "1,0", "--g2", "0,1/100003"],
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        # the run log line, then one error line
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and err.strip().splitlines()[-1] == errors[0]
        assert "D = 2" in errors[0] and "eps^100004" in errors[0]

    def test_generator_past_limit_is_not_expanded(self, capsys):
        # eps^1000004 would have about 383,000 digits; the digit count is
        # bounded from k log10 eps, so the command answers at once
        start = time.perf_counter()
        code, out, err = invoke(
            capsys,
            ["veech", "--field", "quadratic", "--D", "2", "--g1=1,0", "--g2=0,1/1000003"],
        )
        assert time.perf_counter() - start < 0.1
        assert code == 1 and out == ""
        assert err.strip().splitlines()[-1].startswith("error: the generator eps^1000004 ")

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["classify", "--field", "quadratic", f"--D={_SEMIPRIME}", "--g1=1,0", "--g2=0,1"], 2),
            (["veech", "--field", "quadratic", "--D", "2", "--g1=1,0", f"--g2=0,1/{_SEMIPRIME}"], 1),
        ],
        ids=["classify-D", "veech-denominator"],
    )
    def test_product_of_two_large_primes_ends_in_one_error(self, capsys, argv, want):
        # the Pollard-Brent steps of one factorization are bounded, and the
        # error names the budget that ran out; the time limit only guards
        # against a hang (about 1 s each; unbounded, still running at 20 s)
        start = time.perf_counter()
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        err = capsys.readouterr().err
        assert time.perf_counter() - start < 20
        assert code == want and "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and err.strip().splitlines()[-1] == errors[0]
        assert f"cannot factor {_SEMIPRIME}" in errors[0]
        assert f"within {_RHO_STEPS} rho steps" in errors[0]

    @pytest.mark.parametrize("limit, code", [(667, 0), (666, 1)])
    def test_generator_near_limit_is_expanded(self, capsys, limit, code):
        # eps^1742 over D = 2 has 667 digits: within the margin of the
        # k log10 eps estimate, so the exact generator decides
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            got, out, err = invoke(
                capsys,
                ["veech", "--field", "quadratic", "--D", "2", "--g1=1,0", "--g2=0,1/1741"],
            )
        finally:
            sys.set_int_max_str_digits(old)
        assert got == code
        if code == 0:
            assert json.loads(out)["exponent"] == 1742
        else:
            assert out == "" and "eps^1742 over D = 2 has more than 666" in err

    @pytest.mark.parametrize("denominator", [3, 97, 1009, 4999])
    def test_printed_generator_matches_descriptor(self, capsys, denominator):
        chi = PeriodCharacter.quadratic(2, (1, 0), (0, Fraction(1, denominator)))
        want = veech_group(chi)
        code, out, _ = invoke(
            capsys,
            ["veech", "--field", "quadratic", "--D", "2", "--g1=1,0", f"--g2=0,1/{denominator}"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["exponent"] == want.exponent
        assert data["generator"] == list(want.generator)


class TestAtlasCommands:
    def test_build_check_stats_cycle(self, capsys, tmp_path):
        path = tmp_path / "arith.json"
        code, _, err = invoke(
            capsys,
            ["atlas", "build", "--kind", "arithmetic", "--kmax", "10", "--out", str(path)],
        )
        assert code == 0
        assert "truncation bound 10" in err

        code, out, _ = invoke(capsys, ["atlas", "check", str(path)])
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

        code, out, _ = invoke(capsys, ["atlas", "stats", str(path)])
        assert code == 0
        stats = json.loads(out)
        assert stats["schema"] == "isoleaf-atlas/1"
        assert stats["kind"] == "arith_real"
        assert stats["chambers"] == stats["chambers_by_type"]["cyl_arith"]
        assert stats["gluings"] > 0

    def test_build_output_round_trips_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "pos.json"
        code, _, _ = invoke(
            capsys, ["atlas", "build", "--kind", "positive", "--bound", "1", "--out", str(path)]
        )
        assert code == 0
        text = path.read_text(encoding="utf-8")
        reloaded = atlas_from_json_dict(json.loads(text))
        assert cli._dump_atlas(reloaded) == text

    def test_build_to_stdout(self, capsys):
        code, out, _ = invoke(capsys, ["atlas", "build", "--kind", "positive", "--bound", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "isoleaf-atlas/1"
        assert data["kind"] == "positive"

    def test_nonarith_build(self, capsys, tmp_path):
        path = tmp_path / "na.json"
        code, _, _ = invoke(
            capsys,
            [
                "atlas", "build", "--kind", "nonarith",
                "--D", "2", "--theta=-1,1", "--bound", "1", "--out", str(path),
            ],
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["kind"] == "nonarith_real"

    def test_check_failure_exits_1_with_counterexample(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        code, _, _ = invoke(
            capsys,
            ["atlas", "build", "--kind", "arithmetic", "--kmax", "5", "--out", str(path)],
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["gluings"], "expected at least one gluing to remove"
        data["gluings"] = data["gluings"][:-1]
        path.write_text(json.dumps(data))

        code, out, _ = invoke(capsys, ["atlas", "check", str(path)])
        assert code == 1
        assert "FAIL" in out
        report = json.loads(out.splitlines()[-1])
        assert report["counterexamples"], "failure must carry machine-readable counterexamples"
        assert any("chamber" in json.dumps(entry) for entry in report["counterexamples"])

    def test_shifted_constant_is_listed_once(self, capsys, tmp_path):
        # one plus-side gluing of a bound-8 atlas with its constant shifted by +1
        path = tmp_path / "arith.json"
        invoke(capsys, ["atlas", "build", "--kind", "arithmetic", "--kmax", "8", "--out", str(path)])
        doc = json.loads(path.read_text())
        rec = next(g for g in doc["gluings"] if g["a"]["chamber"]["sign"] == 1)
        (num, den), = rec["c"]
        rec["c"] = [[str(int(num) + int(den)), den]]
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, ["atlas", "check", str(path)])
        assert code == 1 and "FAIL wall-surface-match" in out
        listed = [c for c in json.loads(out.splitlines()[-1])["counterexamples"]
                  if c["check"] == "wall-surface-match"]
        assert [c["gluing"]["chamber"] for c in listed] == ["CylArithChamber(k=1, l=0, sign=1)"]

    @pytest.mark.parametrize(
        "argv", [["render", "--atlas"], ["atlas", "check"], ["atlas", "stats"]],
        ids=["render", "check", "stats"],
    )
    def test_chamber_of_another_kind_exits_1_in_one_line(self, capsys, tmp_path, argv):
        # every CC^-_{1,0} of an arithmetic atlas written as a lattice cylinder
        path = tmp_path / "arith.json"
        invoke(capsys, ["atlas", "build", "--kind", "arithmetic", "--kmax", "3", "--out", str(path)])
        doc = _replaced(json.loads(path.read_text()),
                        {"type": "cyl_arith", "k": "1", "l": "0", "sign": -1},
                        {"type": "cyl", "u": ["0", "1"]})
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "isoleaf.cli", *argv, str(path)], capture_output=True, text=True
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        errors = proc.stderr.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:"), proc.stderr
        assert "'cyl' is not a chamber type" in errors[0]

    def test_wall_with_an_infinite_end_exits_1_in_one_line(self, capsys, tmp_path):
        # a plus-side wall of CC^+_{1,0} made a ray: `atlas check` reports it,
        # and `render` names the wall without a traceback
        path = tmp_path / "arith.json"
        invoke(capsys, ["atlas", "build", "--kind", "arithmetic", "--kmax", "3", "--out", str(path)])
        doc = json.loads(path.read_text())
        rec = next(g for g in doc["gluings"] if g["a"]["chamber"]["sign"] == 1)
        rec["a"]["lo"] = None
        path.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, ["atlas", "check", str(path)])
        assert code == 1 and "FAIL wall-surface-match" in out
        proc = subprocess.run(
            [sys.executable, "-m", "isoleaf.cli", "render", "--atlas", str(path),
             "--out", str(tmp_path / "a.svg")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if not line.startswith("isoleaf:")]
        assert errors == [
            "error: the wall of CylArithChamber(k=1, l=0, sign=1) on (None, -2) has an infinite end"
        ], proc.stderr
        assert not (tmp_path / "a.svg").exists()

    @pytest.mark.parametrize(
        "case",
        ["schema-only", "list", "zero-denominator", "two-coordinates-over-Q", "non-integer",
         "part-of-another-chamber", "unknown-part", "character-of-another-kind"],
    )
    def test_malformed_atlas_exits_1_in_one_line(self, capsys, tmp_path, case):
        path = tmp_path / "arith.json"
        code, _, _ = invoke(
            capsys,
            ["atlas", "build", "--kind", "arithmetic", "--kmax", "2", "--out", str(path)],
        )
        assert code == 0
        doc = json.loads(path.read_text())
        if case == "schema-only":
            doc = {"schema": "isoleaf-atlas/1"}
        elif case == "list":
            doc = []
        elif case == "zero-denominator":
            doc["gluings"][0]["c"] = [["1", "0"]]
        elif case == "two-coordinates-over-Q":
            doc["gluings"][0]["c"] = [["1", "2"], ["3", "4"]]
        elif case == "part-of-another-chamber":
            doc["gluings"][0]["a"]["part"] = ["side", 1]
        elif case == "unknown-part":
            doc["gluings"][0]["b"]["part"] = ["line", 1.5]
        elif case == "character-of-another-kind":
            doc["character"] = {"field": "gaussian", "g1": [["1", "1"], ["0", "1"]],
                                "g2": [["0", "1"], ["1", "1"]]}
        else:
            doc["gluings"][0]["c"] = [["x", "2"]]
        path.write_text(json.dumps(doc))
        code, _, err = invoke(capsys, ["atlas", "check", str(path)])
        assert code == 1
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")

    def test_huge_stored_bound_fails_check_at_once(self, capsys, tmp_path):
        # the phi-count check stops at the first k past the stored chambers
        path = tmp_path / "arith.json"
        invoke(capsys, ["atlas", "build", "--kind", "arithmetic", "--kmax", "2", "--out", str(path)])
        doc = json.loads(path.read_text())
        doc["bound"] = str(10**30)
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, _ = invoke(capsys, ["atlas", "check", str(path)])
        assert time.perf_counter() - start < 2
        assert code == 1 and "FAIL phi-count" in out
        report = json.loads(out.splitlines()[-1])
        assert {(c["k"], c["sign"]) for c in report["counterexamples"]} == {(3, 1), (3, -1)}

    @pytest.mark.parametrize("bound", ["0", "-5"])
    @pytest.mark.parametrize(
        "kind,argv,message",
        [
            ("positive", ["--bound", "1"], "positive atlases need bound >= 1"),
            ("negative", ["--bound", "1"], "negative atlases need bound >= 1"),
            ("arithmetic", ["--kmax", "2"], "arithmetic atlases need kmax >= 1"),
            ("nonarith", ["--D", "2", "--theta", "0/1,1/1", "--bound", "1"],
             "non-arithmetic atlases need bound >= 1"),
        ],
        ids=["positive", "negative", "arithmetic", "nonarith"],
    )
    def test_stored_bound_below_one_exits_1_in_one_line(self, capsys, tmp_path, kind, argv,
                                                        message, bound):
        # the loader rejects what the builders reject: a stored bound of 0 or
        # less would pass `atlas check` (no k in 1..bound) and cut the wall tree
        path = tmp_path / "atlas.json"
        code, _, _ = invoke(capsys, ["atlas", "build", "--kind", kind, *argv, "--out", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        doc["bound"] = bound
        path.write_text(json.dumps(doc))
        for command in (["atlas", "check"], ["render", "--atlas"], ["atlas", "stats"]):
            code, out, err = invoke(capsys, [*command, str(path)])
            assert (code, out) == (1, ""), command
            assert err.splitlines() == [f"error: {message}"], command

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "negative", "--bound", "-3"],
            ["--kind", "nonarith", "--D", "2", "--theta", "1/3,1/7", "--bound", "0"],
        ],
    )
    def test_bound_below_one_exits_1(self, capsys, argv):
        code, out, err = invoke(capsys, ["atlas", "build", *argv])
        assert code == 1
        assert out == ""
        assert "bound >= 1" in err

    def test_missing_atlas_file_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.run(["atlas", "check", str(tmp_path / "absent.json")])
        assert exc.value.code == 2


class TestTeichCommands:
    def test_trace_csv_matches_library(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "teich", "trace", "--field", "gaussian",
                "--g1", "1,0", "--g2", "0,1", "--u", "1,0", "--t", "2,4",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,re_sigma,im_sigma,distance_to_model"
        assert len(lines) == 3
        t, re_s, im_s, dist = (float(x) for x in lines[2].split(","))
        assert t == 4.0
        sigma = complex(re_s, im_s)
        assert hyperbolic_distance(sigma, model_point(4.0)) == pytest.approx(dist, abs=1e-9)

    def test_trace_writes_file(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, out, _ = invoke(
            capsys,
            [
                "teich", "trace", "--field", "gaussian", "--g1", "1,0", "--g2", "0,1",
                "--u", "0,1", "--t", "2", "--out", str(path),
            ],
        )
        assert code == 0
        assert out == ""
        rows = path.read_text().strip().splitlines()
        assert rows[0].startswith("t,")
        assert len(rows) == 2

    def test_trace_distance_nan_below_model_domain(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "teich", "trace", "--field", "gaussian",
                "--g1", "1,0", "--g2", "0,1", "--u", "1,0", "--t", "0.5,2",
            ],
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0].endswith("nan")
        assert not rows[1].endswith("nan")

    def test_invert_reaches_known_point(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "teich", "invert", "--field", "gaussian",
                "--g1", "1,0", "--g2", "0,1", "--z", "0,-0.5", "--guess", "0,1",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["tau_re"] == pytest.approx(0.0, abs=1e-6)
        assert data["tau_im"] == pytest.approx(0.9060, abs=2e-3)

    def test_invert_precision_flag(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "teich", "invert", "--field", "gaussian", "--g1", "1,0", "--g2", "0,1",
                "--z", "0,-0.5", "--guess", "0,1", "--precision", "1e-12",
            ],
        )
        assert code == 0
        assert json.loads(out)["tau_im"] == pytest.approx(0.9060, abs=2e-3)


class TestRender:
    def test_render_positive_atlas(self, capsys, tmp_path):
        atlas_path = tmp_path / "pos.json"
        svg_path = tmp_path / "pos.svg"
        invoke(capsys, ["atlas", "build", "--kind", "positive", "--bound", "1", "--out", str(atlas_path)])
        code, _, _ = invoke(capsys, ["render", "--atlas", str(atlas_path), "--out", str(svg_path)])
        assert code == 0
        text = svg_path.read_text(encoding="utf-8")
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        root = ET.fromstring(text)
        slits = [el for el in root.iter() if el.get("class") == "slit"]
        assert len(slits) == 8

    def test_render_deterministic(self, capsys, tmp_path):
        atlas_path = tmp_path / "neg.json"
        invoke(capsys, ["atlas", "build", "--kind", "negative", "--bound", "2", "--out", str(atlas_path)])
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        invoke(capsys, ["render", "--atlas", str(atlas_path), "--out", str(first)])
        invoke(capsys, ["render", "--atlas", str(atlas_path), "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isoleaf.cli", "classify",
             "--g1", "1,0", "--g2", "0,1", "--field", "gaussian"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "Positive, Vol=1"

    def test_module_usage_error_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isoleaf.cli", "classify", "--g1", "1,0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

