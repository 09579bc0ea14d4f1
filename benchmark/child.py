"""One measured call in a fresh interpreter; prints one JSON line.

    python3 child.py setup
    python3 child.py e2e FAMILY_FILE [FACTS_JSON]
    python3 child.py trace FAMILY_FILE

``setup`` times ``import overlap.cli``. ``e2e`` times one
``overlap.cli.main(["forest", "--json", FAMILY_FILE])`` with the output
going to an in-memory sink and GC on, as a CLI user runs it; its only
wrapper is a pair of clock reads around ``run_pipeline`` for
``pipeline_s``. With FACTS_JSON the output is then checked (outside the
timed call) by ``check.check_payload``. ``trace`` makes the same call
with timing wrappers swapped into the public module attributes of every
layer and a ``gc.callbacks`` hook; nothing in the package changes.

The package is found through PYTHONPATH, which run.py points at src/.
"""

import gc
import hashlib
import importlib
import io
import json
import resource
import sys
import time

clock = time.perf_counter

# (module, attribute, span). run_pipeline's stages are wrapped in the
# pipeline module's namespace, where run_pipeline looks them up. An
# attribute a later version no longer has is skipped; its time then
# shows in pipeline.unattributed_s.
LAYERS = [
    ("overlap.cli", "parse_family", "family.parse_s"),
    ("overlap.pipeline", "lf_order", "family.lf_order_s"),
    ("overlap.pipeline", "build_sl_lists", "family.sl_lists_s"),
    ("overlap.pipeline", "compute_pf", "maxcomp.pf_s"),
    ("overlap.pipeline", "compute_bounds", "maxcomp.bounds_s"),
    ("overlap.pipeline", "build_am", "maxcomp.am_s"),
    ("overlap.pipeline", "compute_max", "maxcomp.max_s"),
    ("overlap.pipeline", "build_dgraph", "dgraph.build_s"),
    ("overlap.pipeline", "components", "dgraph.components_s"),
    ("overlap.pipeline", "build_overlap_subgraph", "subgraph.build_s"),
    ("overlap.pipeline", "spanning_forest", "subgraph.forest_s"),
]

# Counts read off a layer's return value, all O(1) or one C-level scan.
COUNTS = {
    "family.parse_s": lambda f: {
        "family.total_size": f.total_size, "family.m": f.m, "family.n": f.n},
    "maxcomp.max_s": lambda mx: {
        "maxcomp.max_defined": len(mx.values) - mx.values.count(None)},
    "dgraph.build_s": lambda g: {
        "dgraph.raw_edges": g.raw_edge_count, "dgraph.edges": len(g.edges)},
    "subgraph.build_s": lambda g: {"subgraph.edges": len(g.edges)},
    "subgraph.forest_s": lambda fo: {"subgraph.trees": len(fo.roots)},
}


class Tracer:
    """Accumulated seconds and call counts per span, plus GC pauses."""

    def __init__(self):
        self.spans = {}
        self.calls = {}
        self.counts = {}
        self._gc_start = 0.0

    def wrap(self, span, fn):
        spans = self.spans
        calls = self.calls
        spans.setdefault(span, 0.0)
        calls.setdefault(span, 0)
        count = COUNTS.get(span)

        def timed(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            spans[span] += clock() - t0
            calls[span] += 1
            if count is not None:
                try:
                    self.counts.update(count(result))
                except AttributeError:
                    pass  # result type changed; the count is not traced
            return result
        return timed

    def install(self):
        for module, attr, span in LAYERS:
            mod = importlib.import_module(module)
            if hasattr(mod, attr):
                setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
        from overlap.partition import OrderedPartition
        OrderedPartition.refine = self.wrap("partition.refine_s",
                                            OrderedPartition.refine)
        self.counts.update({"gc.collections": 0, "gc.gen2_collections": 0})
        self.spans["gc.pause_s"] = 0.0

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = clock()
            return
        self.spans["gc.pause_s"] += clock() - self._gc_start
        self.counts["gc.collections"] += 1
        if info["generation"] == 2:
            self.counts["gc.gen2_collections"] += 1


def peak_rss_kib():
    """Peak resident set of this process since exec.

    ru_maxrss is not enough on Linux: exec keeps the high-water mark of
    the process image it replaced, so a child of a large parent reports
    at least the parent's size. VmHWM belongs to the new image only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    mode = argv[0]
    t0 = clock()
    import overlap.cli as cli
    import_s = clock() - t0
    if mode == "setup":
        return {"import_s": import_s}

    path = argv[1]
    tracer = Tracer()
    if mode == "trace":
        tracer.install()
        gc.callbacks.append(tracer.on_gc)
    cli.run_pipeline = tracer.wrap("pipeline_s", cli.run_pipeline)
    sink = io.StringIO()
    t0 = clock()
    rc = cli.main(["forest", "--json", path], out=sink)
    e2e_s = clock() - t0
    if mode == "trace":
        gc.callbacks.remove(tracer.on_gc)
    peak_rss_mb = peak_rss_kib() / 1024.0

    data = sink.getvalue().encode("utf-8")
    result = {
        "rc": rc, "e2e_s": e2e_s, "import_s": import_s,
        "peak_rss_mb": peak_rss_mb, "out_bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "spans": tracer.spans, "calls": tracer.calls, "counts": tracer.counts,
    }
    if len(argv) > 2:
        from check import check_payload, read_sets
        with open(path, encoding="utf-8") as fh:
            sets = read_sets(fh.read())
        try:
            payload = json.loads(data)
        except ValueError as exc:
            result["problems"] = ["output is not JSON: %s" % exc]
        else:
            result["problems"] = check_payload(sets, payload,
                                               **json.loads(argv[2]))
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
