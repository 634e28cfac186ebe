"""No reference cycles: an atlas operation's temporaries die at return.

A cycle (a recursive nested function and its closure cell, say) outlives
the call until a full collection, which then costs the next operation in
the same process.  Each call runs under ``gc.DEBUG_SAVEALL``, so every
cycle it leaves lands in ``gc.garbage``.
"""

import gc
import json

import pytest

from isoleaf.leaf_atlas import (
    atlas_from_json_dict,
    atlas_to_json_dict,
    build_arithmetic,
    build_negative,
    build_nonarith,
    build_positive,
    check_atlas,
    wall_tree,
)
from isoleaf.period_algebra import GroundField
from isoleaf.render import render_atlas

BUILDS = {
    "arithmetic-6": lambda: build_arithmetic(6),
    "negative-3": lambda: build_negative(3),
    "positive-3": lambda: build_positive(3),
    "nonarith-sqrt2-3": lambda: build_nonarith(GroundField.quadratic(2).element(0, 1), 3),
}


def _cycles_left_by(fn, *args):
    """``fn(*args)`` and the objects of the cycles it left unreachable."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = fn(*args)
        gc.collect()
        return result, list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_atlas_operations_leave_no_cycles(name):
    atlas, left = _cycles_left_by(BUILDS[name])
    assert left == [], "build"
    steps = [("check_atlas", check_atlas, atlas), ("dump", atlas_to_json_dict, atlas)]
    doc = json.loads(json.dumps(atlas_to_json_dict(atlas)))
    steps.append(("load", atlas_from_json_dict, doc))
    if atlas.kind == "arith_real":
        steps.append(("wall_tree", wall_tree, atlas))
    steps.append(("render_atlas", render_atlas, atlas))
    # objects left in cycles, by step
    left = {step: len(_cycles_left_by(fn, arg)[1]) for step, fn, arg in steps}
    assert left == {step: 0 for step, _, _ in steps}
