"""End-to-end pipeline: SL lists -> Max -> subgraph -> forest, each layer
timed. The LF order is the family's own (SetFamily.lf)."""

import time
from functools import cached_property

from .dgraph import build_dgraph, spanning_forest
from .family import build_sl_lists
from .maxcomp import compute_bounds, compute_max, compute_pf
from .subgraph import build_overlap_subgraph

__all__ = ["LAYERS", "PipelineResult", "run_pipeline"]

# the layers run_pipeline times, in the order it runs them: the SL lists,
# the three passes that compute Max (pass 1, bounds and pass 3), the
# subgraph's three parts and the spanning forest
LAYERS = ("sl_lists", "pass1", "bounds", "pass3", "covers", "resolve",
          "dedup", "forest")


class PipelineResult:
    """Every stage's output for one family.

    labeling is the spanning forest: the true subgraph has the same
    components as the overlap graph, and the forest labels them by
    smallest member. dgraph, the helper (Dahlhaus) graph with the same
    components (spanning_forest(res.dgraph) gives them), is not needed
    for that. It is built on first access, from SL lists it builds
    again, so the result keeps no |F|-sized lists or membership keys.
    lf is the family's LF order.
    """

    def __init__(self, family, maxes, subgraph, forest, times):
        self.family = family
        self.lf = family.lf
        self.maxes = maxes
        self.subgraph = subgraph
        self.labeling = self.forest = forest
        self.times = times

    @cached_property
    def dgraph(self):
        return build_dgraph(self.family, build_sl_lists(self.family),
                            self.maxes)

    @property
    def n_classes(self):
        return len(self.labeling.start) - 1


def run_pipeline(f):
    """Run every layer on the family, recording each one's wall time.

    times holds the seconds of each of LAYERS, in run order, then
    "total", which they add up to: the clock is read once at the start
    and once after each layer. build_overlap_subgraph laps its three
    parts (covers, resolve and dedup) itself.
    """
    times = {}
    clock = time.perf_counter
    start = last = clock()

    def lap(name):
        nonlocal last
        now = clock()
        times[name] = now - last
        last = now

    sl = build_sl_lists(f)
    lap("sl_lists")
    pf = compute_pf(f, sl)
    lap("pass1")
    bounds = compute_bounds(f, pf)
    lap("bounds")
    maxes = compute_max(f, pf, bounds)
    lap("pass3")
    sub = build_overlap_subgraph(f, sl, maxes, bounds, pf, lap)
    forest = spanning_forest(sub)
    lap("forest")
    times["total"] = last - start

    return PipelineResult(f, maxes, sub, forest, times)
