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


def test_layers_start_at_the_sl_lists_and_reuse_the_family_lf_order():
    # the LF order is made once, by the family; the run makes no other
    f = parse_family(FAM_A_TEXT)
    res = run_pipeline(f)
    assert LAYERS[0] == "sl_lists"
    assert res.lf is res.family.lf is f.lf
