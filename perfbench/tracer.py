"""Spans around the program's public names, aggregated per layer.

`install` replaces each public function of an ``isoleaf`` module (its
``__all__``) by a timing wrapper in every ``isoleaf`` namespace that holds
it, so a name imported into another module is wrapped where it is looked
up.  Methods of ``FieldElement`` and ``WeierstrassData`` are wrapped on
their classes.  Classes themselves are not wrapped: callers test
``isinstance`` against them.

Spans are not stored one by one (a pass makes millions of kernel calls);
each wrapper adds to the counters of its group at span end:

* ``calls``: number of spans;
* ``outer``: duration of spans not nested in a span of the same group;
* ``self``: duration minus the durations of child spans of any group.
"""

from __future__ import annotations

import functools
import types
from time import perf_counter

# group of each wrapped name; names not listed get the group "other"
GROUPS = {
    "surface_kernel.cylinder_boundary_surface": "boundary",
    "leaf_atlas.build_positive": "build",
    "leaf_atlas.build_negative": "build",
    "leaf_atlas.build_arithmetic": "build",
    "leaf_atlas.build_nonarith": "build",
    "leaf_atlas.check_atlas": "check",
    "leaf_atlas.connectivity_check": "connectivity",
    "leaf_atlas.wall_surface_match": "wall_match",
    "leaf_atlas.atlas_to_json_dict": "dump",
    "leaf_atlas.atlas_from_json_dict": "load",
    "leaf_atlas.wall_tree": "wall_tree",
    "render.render_atlas": "render",
    "render.render_surface": "render",
    "veech.veech_group": "group",
    "veech.quadratic_group_search": "search",
    "veech.fundamental_unit": "unit",
    "veech.unit_power": "power",
    "teich_numeric.WeierstrassData.__init__": "table",
    "teich_numeric.WeierstrassData.wp": "series",
    "teich_numeric.WeierstrassData.wp_prime": "series",
    "teich_numeric.WeierstrassData.wzeta": "series",
    "teich_numeric.WeierstrassData.half_period_values": "series",
    "teich_numeric.solve_form": "solve",
    "teich_numeric.leaf_to_teich": "continuation",
    "teich_numeric.chamber_trace": "continuation",
    "teich_numeric.boundary_limit": "continuation",
    "teich_numeric.trace_many": "continuation",
    "cli.run": "cli",
}

LAYER_MODULES = (
    "period_algebra", "surface_kernel", "leaf_atlas", "veech", "teich_numeric", "render", "cli",
)


class Tracer:
    """Counters per group plus the open-span stack."""

    def __init__(self):
        self.names = ["other"]
        self.calls = [0]
        self.outer = [0.0]
        self.self_time = [0.0]
        self.active = [0]
        self.cycle_steps = 0
        self.stack: list = []

    def group(self, name: str) -> int:
        if name not in self.names:
            for table in (self.calls, self.active):
                table.append(0)
            for table in (self.outer, self.self_time):
                table.append(0.0)
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        g = self.group(name)
        stack, calls, outer, self_time, active = (
            self.stack, self.calls, self.outer, self.self_time, self.active,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            active[g] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                active[g] -= 1
                calls[g] += 1
                self_time[g] += dur - child
                if not active[g]:
                    outer[g] += dur
                if stack:
                    stack[-1] += dur

        return wrapper

    def snapshot(self) -> dict:
        out = {"cycle_steps": self.cycle_steps}
        for i, name in enumerate(self.names):
            out[name] = (self.calls[i], self.outer[i], self.self_time[i])
        return out


def install(tracer: Tracer) -> None:
    import isoleaf
    import isoleaf.cli
    from isoleaf import teich_numeric, veech
    from isoleaf.period_algebra import FieldElement

    modules = [isoleaf] + [getattr(isoleaf, m) for m in LAYER_MODULES]
    namespaces = [vars(m) for m in modules]

    def replace(original, wrapper):
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if value is original:
                    ns[attr] = wrapper

    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                label = f"{short}.{name}"
                replace(fn, tracer.wrap(fn, GROUPS.get(label, "other")))

    # the residue-cycle length is read off the search result
    search = vars(veech)["quadratic_group_search"]

    def counted_search(*args, **kwargs):
        found = search(*args, **kwargs)
        tracer.cycle_steps += len(found.cycle)
        return found

    replace(search, counted_search)

    for attr, value in list(vars(FieldElement).items()):
        if attr in ("__setattr__", "__delattr__"):
            continue
        if isinstance(value, staticmethod):
            setattr(FieldElement, attr, staticmethod(tracer.wrap(value.__func__, "fe")))
        elif isinstance(value, types.FunctionType):
            setattr(FieldElement, attr, tracer.wrap(value, "fe"))

    for attr in ("__init__", "wp", "wp_prime", "wzeta", "half_period_values"):
        cls = teich_numeric.WeierstrassData
        label = f"teich_numeric.WeierstrassData.{attr}"
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), GROUPS[label]))


def layer_metrics(before: dict, after: dict) -> dict:
    """Per-layer metrics of one pass from two snapshots."""

    def d(group, field):
        a = after.get(group, (0, 0.0, 0.0))
        b = before.get(group, (0, 0.0, 0.0))
        return a[field] - b[field]

    calls, outer, self_ = 0, 1, 2
    tables, solves = d("table", calls), d("solve", calls)
    return {
        "period_algebra.fe_calls": d("fe", calls),
        "period_algebra.fe_s": d("fe", outer),
        "surface_kernel.boundary_calls": d("boundary", calls),
        "surface_kernel.boundary_s": d("boundary", outer),
        "leaf_atlas.build_self_s": d("build", self_),
        "leaf_atlas.check_self_s": d("check", self_),
        "leaf_atlas.connectivity_s": d("connectivity", outer),
        "leaf_atlas.wall_match_calls": d("wall_match", calls),
        "leaf_atlas.wall_match_s": d("wall_match", outer),
        "leaf_atlas.dump_s": d("dump", outer),
        "leaf_atlas.load_s": d("load", outer),
        "leaf_atlas.wall_tree_s": d("wall_tree", outer),
        "render.self_s": d("render", self_),
        "veech.group_s": d("group", outer),
        "veech.search_self_s": d("search", self_),
        "veech.cycle_steps": after["cycle_steps"] - before["cycle_steps"],
        "veech.unit_calls": d("unit", calls),
        "veech.unit_s": d("unit", outer),
        "veech.power_s": d("power", outer),
        "teich_numeric.tables": tables,
        "teich_numeric.table_s": d("table", outer),
        "teich_numeric.series_calls": d("series", calls),
        "teich_numeric.series_s": d("series", outer),
        "teich_numeric.solves": solves,
        "teich_numeric.tables_per_solve": tables / solves if solves else 0.0,
        "teich_numeric.continuation_self_s": d("continuation", self_),
        "cli.self_s": d("cli", self_),
    }
