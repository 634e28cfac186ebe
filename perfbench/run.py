#!/usr/bin/env python3
"""Benchmark of isoleaf: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload atlas-arith --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the program from its
``src`` directory.  The workload's passes repeat in one thread, one
operation at a time, as long as another pass is likely to end within
``--seconds`` (and at least three times); then every output is checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the program's public names are wrapped in timing spans and
the metrics are the per-layer ones.  The same object, with details, is
written to ``perfbench/results/<workload>-seed<seed>[.trace].json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
IMPORT_PROBES = 5

END_TO_END = {  # name -> unit
    "setup_s": "s", "run_s": "s", "build_s": "s", "check_s": "s", "json_s": "s",
    "render_s": "s", "trace_s": "s", "invert_ms": "ms", "invert_tail_ms": "ms",
    "veech_s": "s", "cli_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (times set-up)")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ISOLEAF_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(args) -> list:
    """Time from starting fresh interpreters until they have built the inputs.

    The child prints the monotonic clock (shared by all processes) when
    its set-up ends, so neither its exit nor the polling of a wait with a
    timeout, which sleeps up to 50 ms at a time, is counted.
    """
    out = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                              capture_output=True, text=True, timeout=120)
        out.append(float(done.stdout.split()[-1]) - t0)
    return out


def import_seconds() -> tuple:
    """Fresh-interpreter cost of importing the CLI, and numpy's share of it."""
    code = ("import time; t = time.perf_counter(); import isoleaf.cli; "
            "print(time.perf_counter() - t)")
    cli, numpy = [], []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                              env=child_env(), check=True, capture_output=True, text=True,
                              timeout=120)
        cli.append(float(done.stdout.split()[-1]))
        for line in done.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "numpy":
                numpy.append(int(parts[1]) / 1e6)
    return statistics.median(cli), statistics.median(numpy) if numpy else 0.0


def inversion_latency(rec) -> tuple:
    """Median and tail of the per-input inversion latency, in seconds.

    Each input's latency is the median over the passes, so a slow moment of
    the machine in one pass does not pose as a slow input.  The tail is the
    highest whole percentile with at least ten of the inputs beyond it.
    """
    per_input = sorted(statistics.median(v) for key, v in rec.op_times.items()
                       if rec.op_stage[key] == "invert")
    n = len(per_input)
    pct = int(100 * (1 - 10 / n))
    tail = per_input[max(0, -(-pct * n // 100) - 1)]
    return statistics.median(per_input), tail, pct, n


def check_outputs(workload, rec, known_faults):
    """Problems and the failed count: pass 1 is checked, later passes repeat it."""
    from workloads import digest

    workload.install_checks()
    passes = len(rec.pass_times)
    problems, failed = [], len(rec.errors)
    raised = {(p, key) for p, key, _ in rec.errors}
    for p, key, why in rec.errors:
        if key not in known_faults:
            print(f"operation {key} failed in pass {p}: {why}", file=sys.stderr)
    for key, kept in rec.first.items():
        if key in workload.same_as:
            twin = workload.same_as[key]
            if digest(kept) != digest(rec.first.get(twin)):
                problems.append(f"{key}: differs from {twin}, the same call")
            continue
        checks = workload.checks.get(key) or [lambda _: "no checker"]
        bad = next((msg for msg in (check(kept) for check in checks) if msg), None)
        if bad and key in known_faults:
            failed += sum(1 for p in range(1, passes + 1) if (p, key) not in raised)
        elif bad:
            problems.append(f"{key}: {bad}")
    reference = {key: digest(kept) for key, kept in rec.first.items()}
    for p, digests in enumerate(rec.digests, start=2):
        for key, d in digests.items():
            if d != reference.get(key):
                problems.append(f"{key}: pass {p} differs from pass 1")
    return problems, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isoleaf" / "__init__.py").is_file():
        print(f"isoleaf sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ISOLEAF_THREADS", None)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="inputs-", dir=RESULTS))
    try:
        if args.setup_only:
            cls(args.seed, scratch)
            print(time.perf_counter())
            return 0
        return measure(args, workloads, cls, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workloads, cls, scratch) -> int:
    extra: dict = {}
    if args.trace:
        import tracer

        extra["cli.import_s"], extra["teich_numeric.numpy_import_s"] = import_seconds()
    else:
        setups = setup_seconds(args)
    workload = cls(args.seed, scratch)
    rec = workloads.Recorder()
    layers = []
    if args.trace:
        spans = tracer.Tracer()
        tracer.install(spans)
    t_start = time.perf_counter()
    pass_s = 0.0
    # stop before a pass that would likely end after --seconds
    while (len(rec.pass_times) < workload.min_passes
           or time.perf_counter() - t_start + pass_s <= args.seconds):
        # every pass starts from the same collector state: what is alive now
        # (inputs, kept outputs) is frozen, so collections in the pass scan
        # only the objects the pass creates
        gc.collect()
        gc.freeze()
        t_pass = time.perf_counter()
        rec.start_pass()
        before = spans.snapshot() if args.trace else None
        workload.run_pass(rec)
        if args.trace:
            layers.append(tracer.layer_metrics(before, spans.snapshot()))
        pass_s = time.perf_counter() - t_pass
    wall = time.perf_counter() - t_start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, failed = check_outputs(workload, rec, workloads.KNOWN_FAULTS)
    for line in problems:
        print(f"wrong output: {line}", file=sys.stderr)

    per_pass = rec.stage_seconds()
    run_s = sum(per_pass.values())
    invert_s, tail_s, pct, n_inputs = inversion_latency(rec)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": len(rec.pass_times), "wall_s": wall, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "run_s": run_s,
        "invert_inputs": n_inputs, "invert_tail_percentile": pct,
        "errors": sorted({(key, why) for _, key, why in rec.errors}),
        "problems": problems,
    }
    if args.trace:
        values = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
        values.update(extra)
        units = {name: ("s" if name.endswith("_s") else
                        "ratio" if name.endswith("per_solve") else "count") for name in values}
        values = {name: int(v) if units[name] == "count" else v for name, v in values.items()}
        info["layers_per_pass"] = layers
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            **{f"{s}_s": per_pass[s] for s in ("build", "check", "json", "render", "trace",
                                              "veech", "cli")},
            "invert_ms": 1000 * invert_s,
            "invert_tail_ms": 1000 * tail_s,
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END
        info["setup_probes_s"] = setups
        info["pass_times"] = rec.pass_times
    result = {
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    suffix = ".trace" if args.trace else ""
    (RESULTS / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps({**result, "info": info}, indent=2, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
