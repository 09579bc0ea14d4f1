"""Linear-time identification of set overlap classes.

Given a family of subsets of a finite universe, compute the overlap
classes (connected components of the overlap graph) in time linear in
the universe size plus the total size of the family, along with a
linear-size subgraph of the overlap graph with identical components and
a spanning forest of the classes.
"""

from .dgraph import (SetGraph, SpanningForest, UnionFind, build_dgraph, covers,
                     spanning_edges, spanning_forest)
from .family import (FamilyFormatError, LFOrder, SetFamily, SLLists,
                     build_sl_lists, parse_family)
from .generate import (gen_blocks, gen_nested, gen_random, gen_random_sets,
                       gen_star)
from .maxcomp import (Bounds, MaxAssignment, PfOrder, compute_bounds,
                      compute_max, compute_pf)
from .oracle import (OracleCapExceeded, max_oracle, overlap_graph_full,
                     overlaps)
from .partition import OrderedPartition, SplitEvent
from .pipeline import PipelineResult, run_pipeline
from .subgraph import build_overlap_subgraph

__version__ = "0.1.0"
