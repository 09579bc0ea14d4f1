"""Paired verdicts of a committed benchmark file.

    python3 tools/bench_pairs.py BENCH_N.json

A BENCH_N.json holds interleaved runs of benchmark/run.py: per
workload, each seed ran once at the parent commit and once at the
change, untraced (trace 0). The two runs of a seed are a pair. For each
workload and end-to-end metric of BENCHMARK.json, the tool prints one
row of a Markdown table with each side's median and then, per pair,
the log-ratio ln(change / parent):

- wins: the pairs the change won, by the metric's direction; a tie
  counts for neither side;
- the median of the pair log-ratios;
- a distribution-free interval for that median: the k-th smallest to
  the k-th largest log-ratio, with k the largest count for which the
  interval holds the true median with at least 95% probability
  (Binomial(n, 1/2) tails). For ten pairs that is the 2nd to the 9th,
  98%; fewer than six pairs give none.

A second row, "adjusted", gives the same figures for time metrics
after each pair's log-ratio loses the log-ratio of the two runs'
host.calib_s, a pure-Python loop timed beside every call, so a host
that slowed down for one run of a pair counts less. Memory and ratio
metrics do not follow the host's speed and get no adjusted row. Claims
rest on the raw rows; the adjusted ones show how much of the spread was
the host.

A file may hold a second set of runs beside the first, as an object
with its own "runs" and "summary"; each set is printed under its key.
"""

import json
import math
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
COVERAGE = 0.95

HEADER = ("| set | workload | metric | figure | parent | change | wins "
          "| median ln(change/parent) | interval |")


def end_to_end():
    """The end-to-end metrics of BENCHMARK.json, each a dict with its
    name, unit and better direction."""
    return json.loads(SPEC.read_text())["end_to_end"]


def interval(values):
    """The order-statistic interval for the median of values: (lo, hi,
    coverage), or None when no such interval reaches COVERAGE."""
    n = len(values)
    below = [math.comb(n, i) / 2**n for i in range(n + 1)]
    k, tail = 0, 0.0
    while k < n // 2 and 1 - 2 * (tail + below[k]) >= COVERAGE:
        tail += below[k]
        k += 1
    if not k:
        return None
    s = sorted(values)
    return s[k - 1], s[n - k], 1 - 2 * tail


def pairs(runs):
    """Per workload, in order of first appearance, the (parent, change)
    untraced runs of each seed."""
    by_key = {}
    for r in runs:
        if r["trace"] == 0:
            by_key.setdefault((r["workload"], r["seed"]), {})[r["side"]] = r
    out = {}
    for (workload, _), sides in by_key.items():
        out.setdefault(workload, []).append((sides["parent"], sides["change"]))
    return out


def _value(run, metric):
    return run["result"]["metrics"][metric]["value"]


def _figures(log_ratios, sign):
    """wins, median and interval of per-pair log-ratios; sign is -1 when
    lower is better."""
    wins = sum(1 for x in log_ratios if x * sign > 0)
    return wins, statistics.median(log_ratios), interval(log_ratios)


def verdicts(runs):
    """One dict per workload and metric: each side's median, the raw
    figures (wins, median log-ratio, interval) and, for a time metric
    whose every run has host.calib_s, the adjusted ones (else None)."""
    rows, specs = [], end_to_end()
    for workload, ps in pairs(runs).items():
        for spec in specs:
            metric = spec["name"]
            sign = 1 if spec["better"] == "higher" else -1
            parent = [_value(p, metric) for p, _ in ps]
            change = [_value(c, metric) for _, c in ps]
            logs = [math.log(c / p) for p, c in zip(parent, change)]
            calib = [(p.get("host.calib_s"), c.get("host.calib_s"))
                     for p, c in ps]
            adjusted = None
            if spec["unit"] == "s" and all(p and c for p, c in calib):
                adjusted = _figures([x - math.log(c / p) for x, (p, c)
                                     in zip(logs, calib)], sign)
            rows.append({"workload": workload, "metric": metric,
                         "pairs": len(ps),
                         "parent_median": statistics.median(parent),
                         "change_median": statistics.median(change),
                         "raw": _figures(logs, sign), "adjusted": adjusted})
    return rows


def run_sets(doc):
    """(name, runs) of each set of runs in a benchmark file: the file's
    own, then every top-level object that holds runs and a summary."""
    sets = [("main", doc["runs"])]
    sets += [(key, value["runs"]) for key, value in doc.items()
             if isinstance(value, dict) and "runs" in value
             and "summary" in value]
    return sets


def _cells(figures, pairs_run):
    wins, median, ci = figures
    span = "-" if ci is None else "[%+.4f, %+.4f] %.0f%%" % (
        ci[0], ci[1], 100 * ci[2])
    return ["%d of %d" % (wins, pairs_run), "%+.4f" % median, span]


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 1:
        print("usage: bench_pairs.py BENCH_N.json", file=sys.stderr)
        return 2
    doc = json.loads(Path(paths[0]).read_text())
    print(HEADER)
    print("|" + "---|" * (HEADER.count("|") - 1))
    for name, runs in run_sets(doc):
        for row in verdicts(runs):
            head = [name, row["workload"], row["metric"]]
            print("| " + " | ".join(
                head + ["raw", "%.6g" % row["parent_median"],
                        "%.6g" % row["change_median"]]
                + _cells(row["raw"], row["pairs"])) + " |")
            if row["adjusted"] is not None:
                print("| " + " | ".join(
                    head + ["adjusted", "", ""]
                    + _cells(row["adjusted"], row["pairs"])) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
