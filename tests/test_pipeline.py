import math

import pytest

from overlap.family import parse_family
from overlap.generate import gen_blocks
from overlap.pipeline import LAYERS, run_pipeline

from conftest import FAM_A_TEXT


@pytest.mark.parametrize("text", [FAM_A_TEXT, gen_blocks(400, 300, 40, 7)],
                         ids=["fam_a", "blocks"])
def test_times_hold_every_layer_in_run_order_then_the_total(text):
    times = run_pipeline(parse_family(text)).times
    assert list(times) == [*LAYERS, "total"]
    assert min(times.values()) >= 0
    assert math.isclose(sum(times[k] for k in LAYERS), times["total"],
                        rel_tol=1e-9)
