"""End-to-end and per-layer benchmark of ``overlap forest --json``.

    python3 benchmark/run.py --workload giant|blocks|nested --seed N \\
        --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory, never from an installed copy. The benchmark writes the
seeded family (see workloads.py) to a scratch directory, then:

1. checks a small instance of the same generator exactly against
   ``overlap.oracle``, and checks that a corrupted result fails the
   checker (check.py);
2. times ``import overlap.cli`` in SETUP_SAMPLES fresh interpreters
   (every call below times its import too, and adds to the samples);
3. for S seconds runs a closed loop of fresh interpreters, one call at
   a time, each making one ``overlap.cli.main(["forest", "--json",
   FILE])`` call (child.py). The first call's output is checked in full;
   every call's output must have the same sha256. A pure-Python
   calibration loop is timed before every call. With ``--trace 1`` every
   other call is traced: per-layer spans come from the traced calls,
   and the tracing overhead is the traced minus the untraced e2e_s.

A report of every metric, with units, sample counts, quartiles, the
host and the output digest, goes to stderr. The last line of stdout is
one JSON object: ``correct``, ``attempted`` and ``failed`` (full-size
calls plus the small exact check), and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

End-to-end metrics, and why each was chosen:

- e2e_s: wall time of the CLI call -- read, parse, pipeline and JSON
  output -- which is what a CLI user waits for. Median over the calls.
- pipeline_s: wall time of ``run_pipeline`` inside that call, what a
  library user pays after parsing. Median over the calls.
- setup_s: ``import overlap.cli`` (with numpy) in a fresh interpreter,
  paid by every CLI invocation, so work moved into import time shows.
- peak_rss_mb: peak resident set of the child that made the call, in
  MiB (see child.peak_rss_kib); the parent generates the input, so
  generator memory is not counted.
- ok_frac: share of attempted operations that succeeded. A call fails
  on an exception, a non-zero return, an output that fails the check
  or differs from the checked one. ``fail_frac`` is 1 - ok_frac; it is
  reported this way round because an end-to-end metric must never be 0.
"""

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_payload, oracle_problems, read_sets, self_test
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

clock = time.perf_counter

SETUP_SAMPLES = 5
MIN_CALLS = 3          # a median and quartiles need a few samples
RUN_LIMIT_S = 150.0    # stop starting calls so a run ends within 180 s
CALIB_LOOPS = 1_000_000

E2E_UNITS = {"e2e_s": "s", "pipeline_s": "s", "setup_s": "s",
             "peak_rss_mb": "MiB", "ok_frac": "ratio"}

# Per-layer spans of the traced call, in the order run_pipeline runs them.
STAGE_SPANS = {
    "orders": ["family.lf_order_s", "family.sl_lists_s"],
    "maxcomp": ["maxcomp.pf_s", "maxcomp.bounds_s", "maxcomp.am_s",
                "maxcomp.max_s"],
    "dgraph": ["dgraph.build_s", "dgraph.components_s"],
    "subgraph": ["subgraph.build_s"],
    "forest": ["subgraph.forest_s"],
}
LAYER_UNITS = {
    "family.parse_s": "s", "family.lf_order_s": "s", "family.sl_lists_s": "s",
    "family.total_size": "count", "family.m": "count", "family.n": "count",
    "partition.refine_s": "s", "partition.refine_calls": "count",
    "maxcomp.pf_s": "s", "maxcomp.bounds_s": "s", "maxcomp.am_s": "s",
    "maxcomp.max_s": "s", "maxcomp.max_defined": "count",
    "dgraph.build_s": "s", "dgraph.components_s": "s",
    "dgraph.raw_edges": "count", "dgraph.edges": "count",
    "dgraph.raw_per_F": "ratio", "dgraph.unique_frac": "ratio",
    "subgraph.build_s": "s", "subgraph.forest_s": "s",
    "subgraph.edges": "count", "subgraph.edges_per_bound": "ratio",
    "subgraph.trees": "count",
    "pipeline.total_s": "s", "pipeline.unattributed_s": "s",
    "cli.serialize_s": "s", "cli.out_bytes": "B",
    "gc.pause_s": "s", "gc.collections": "count",
    "gc.gen2_collections": "count",
    "stage.orders_s": "s", "stage.maxcomp_s": "s", "stage.dgraph_s": "s",
    "stage.subgraph_s": "s", "stage.forest_s": "s",
    "trace.e2e_s": "s", "trace.overhead_s": "s",
    "host.calib_s": "s",
}
EXACT_UNITS = ("count", "B")


class BenchError(Exception):
    """The benchmark cannot measure: no program, or no call completed."""


def calibrate():
    """Seconds for a fixed pure-Python loop, to tell a slow host from a
    slow commit."""
    t0 = clock()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc = (acc + i * i) % 1000003
    return clock() - t0


def host_record():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return "nproc %d, cpu %s, python %s, numpy %s" % (
        os.cpu_count(), cpu, platform.python_version(), numpy.__version__)


def import_package():
    """Import overlap from SRC, refusing any other copy."""
    if not (SRC / "overlap" / "cli.py").is_file():
        raise BenchError("no package at %s" % (SRC / "overlap"))
    sys.path.insert(0, str(SRC))
    import overlap.cli
    if Path(overlap.cli.__file__).resolve().parent != SRC / "overlap":
        raise BenchError("imported overlap from %s" % overlap.cli.__file__)
    return overlap.cli


class Children:
    """Runs child.py in fresh interpreters, one at a time."""

    def __init__(self, started):
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))

    def run(self, *args):
        """The child's JSON result, or (None, error text) when it failed."""
        timeout = max(5.0, RUN_LIMIT_S + 25.0 - (clock() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py")] + list(args),
                cwd=str(ROOT), env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "timed out after %.0f s" % timeout
        if proc.returncode != 0:
            return None, "exit %d: %s" % (
                proc.returncode, proc.stderr.strip()[-400:])
        return json.loads(proc.stdout.splitlines()[-1]), None


def small_check(cli, workload, seed, work):
    """Problems from the exact oracle check and the checker self-test."""
    text = workload.text(seed, small=True)
    path = work / "small.txt"
    path.write_text(text, encoding="utf-8")
    sink = io.StringIO()
    try:
        rc = cli.main(["forest", "--json", str(path)], out=sink)
        payload = json.loads(sink.getvalue()) if rc == 0 else None
    except Exception as exc:  # a failed operation, not a benchmark error
        return ["small instance raised %s: %s" % (type(exc).__name__, exc)]
    if payload is None:
        return ["small instance: exit %r" % rc]
    sets = read_sets(text)
    return (check_payload(sets, payload, **workload.facts)
            + oracle_problems(text, payload)
            + self_test(sets, text, payload))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(args, work, report):
    started = clock()
    workload = WORKLOADS[args.workload]
    cli = import_package()
    report("host      %s" % host_record())

    text = workload.text(args.seed)
    family = work / "family.txt"
    family.write_text(text, encoding="utf-8")
    tokens = text.split()
    report("workload  %s seed %d: m %d, n %d, |F| %d" % (
        workload.name, args.seed, text.count("\n"), len(set(tokens)),
        len(tokens)))
    del text, tokens

    problems = small_check(cli, workload, args.seed, work)
    attempted, failed = 1, int(bool(problems))
    report("check     small instance vs oracle and checker self-test: %s"
           % ("; ".join(problems) or "ok"))

    children = Children(started)
    setup = []
    for _ in range(SETUP_SAMPLES):
        res, err = children.run("setup")
        if res is None:
            raise BenchError("import failed: %s" % err)
        setup.append(res["import_s"])

    calib, plain, traced = [], [], []
    ref = None           # (sha256, problems) of the checked output
    longest = checked = 0.0  # longest call without and with the check
    loop_start = clock()
    while True:
        elapsed = clock() - loop_start
        calls = attempted - 1
        next_call = longest or checked
        if calls >= MIN_CALLS and elapsed + next_call > args.seconds:
            break
        if clock() - started > RUN_LIMIT_S:
            break
        t0 = clock()
        calib.append(calibrate())
        kind = "trace" if args.trace and calls % 2 == 1 else "e2e"
        check = ref is None and kind == "e2e"
        extra = [json.dumps(workload.facts)] if check else []
        res, err = children.run(kind, str(family), *extra)
        if check:
            checked = max(checked, clock() - t0)
        else:
            longest = max(longest, clock() - t0)
        attempted += 1
        if res is None:
            failed += 1
            report("call %d   failed: %s" % (calls + 1, err))
            continue
        if "problems" in res:
            ref = (res["sha256"], res["problems"])
            report("check     full-size output (%d bytes): %s" % (
                res["out_bytes"], "; ".join(res["problems"]) or "ok"))
        (traced if kind == "trace" else plain).append(res)
        setup.append(res["import_s"])

    if not plain or (args.trace and not traced):
        raise BenchError("no call completed")
    ok_sha = ref[0] if ref is not None and not ref[1] else None
    for res in plain + traced:
        if res["rc"] != 0 or res["sha256"] != ok_sha:
            failed += 1
            report("call      failed: exit %r, sha256 %s" % (
                res["rc"], res["sha256"]))
    if ok_sha is not None:
        report("output    sha256 %s, identical in every passing call"
               % ok_sha)

    e2e = {
        "e2e_s": [r["e2e_s"] for r in plain],
        "pipeline_s": [r["spans"]["pipeline_s"] for r in plain],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    metrics = {name: statistics.median(v) for name, v in e2e.items()}
    metrics["ok_frac"] = 1.0 - failed / attempted
    for name, values in e2e.items():
        q1, med, q3 = quartiles(values)
        report("%-26s %-6s n %2d  median %.4f  q1 %.4f  q3 %.4f" % (
            name, E2E_UNITS[name], len(values), med, q1, q3))
    report("%-26s %-6s %.4f  (fail_frac %.4f, %d of %d failed)" % (
        "ok_frac", "ratio", metrics["ok_frac"], 1 - metrics["ok_frac"],
        failed, attempted))
    report("%-26s %-6s n %2d  median %.4f" % (
        "host.calib_s", "s", len(calib), statistics.median(calib)))

    correct = failed == 0
    if not args.trace:
        return correct, attempted, failed, metrics, E2E_UNITS

    layers = layer_metrics(traced, metrics["e2e_s"])
    layers["host.calib_s"] = statistics.median(calib)
    report("per layer, median of %d traced calls:" % len(traced))
    for name, unit in LAYER_UNITS.items():
        value = layers[name]
        report("  %-26s %-6s %s" % (
            name, unit, value if unit in EXACT_UNITS else "%.6g" % value))
    spans = sum(layers["stage.%s_s" % s] for s in STAGE_SPANS)
    report("  stage spans + unattributed = %.4f s; traced pipeline %.4f s "
           "(%+.1f%%)" % (
               spans + layers["pipeline.unattributed_s"],
               layers["pipeline.total_s"],
               100 * ((spans + layers["pipeline.unattributed_s"])
                      / layers["pipeline.total_s"] - 1)))
    return correct, attempted, failed, layers, LAYER_UNITS


def layer_metrics(traced, untraced_e2e):
    """Per-layer metrics as medians over the traced calls."""
    per_call = []
    for r in traced:
        spans, counts = r["spans"], r["counts"]
        row = {name: spans.get(name, 0.0) for name, unit in LAYER_UNITS.items()
               if unit == "s"}
        row.update({name: counts.get(name, 0)
                    for name, unit in LAYER_UNITS.items() if unit == "count"})
        row["partition.refine_calls"] = r["calls"].get("partition.refine_s", 0)
        for stage, names in STAGE_SPANS.items():
            row["stage.%s_s" % stage] = sum(row[n] for n in names)
        pipeline = spans["pipeline_s"]
        row["pipeline.total_s"] = pipeline
        row["pipeline.unattributed_s"] = pipeline - sum(
            row["stage.%s_s" % s] for s in STAGE_SPANS)
        row["cli.serialize_s"] = (
            r["e2e_s"] - row["family.parse_s"] - pipeline)
        row["cli.out_bytes"] = r["out_bytes"]
        row["trace.e2e_s"] = r["e2e_s"]
        size = max(1, row["family.total_size"])
        row["dgraph.raw_per_F"] = row["dgraph.raw_edges"] / size
        # With no raw edges nothing was wasted.
        row["dgraph.unique_frac"] = (
            row["dgraph.edges"] / row["dgraph.raw_edges"]
            if row["dgraph.raw_edges"] else 1.0)
        row["subgraph.edges_per_bound"] = row["subgraph.edges"] / (
            row["family.m"] + size)
        per_call.append(row)
    # Counts are exact, so they take an observed value, not a midpoint.
    out = {name: (statistics.median_low if LAYER_UNITS[name] in EXACT_UNITS
                  else statistics.median)(row[name] for row in per_call)
           for name in per_call[0]}
    out["trace.overhead_s"] = out["trace.e2e_s"] - untraced_e2e
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    def report(line):
        print(line, file=sys.stderr, flush=True)

    # On SIGTERM unwind normally: subprocess.run then kills and reaps the
    # running child, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    scratch = ROOT / ".bench_work"
    work = scratch / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        correct, attempted, failed, metrics, units = measure(
            args, work, report)
    except BenchError as exc:
        report("error: %s" % exc)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
