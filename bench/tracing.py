"""Layer spans for a traced run, recorded from outside the library.

``Tracer.install`` replaces each public function listed in ``LAYERS``
with a wrapper that records one span per call.  Modules import names
with ``from .x import y``, so a wrapper placed only on the defining
module would miss the calls made through the other modules' bindings;
the wrapper therefore goes into every ``arcdeg`` module that binds the
original function object.  Nothing under ``src/`` changes.

Spans live in flat arrays (name, start, end, parent, op) while the run
goes on and are written out once it ends.  A function that no longer
exists is skipped and its metrics are absent from the report.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from functools import update_wrapper

from stats import self_times, sum_by_name

# Public functions traced per module (layer), by name in that module.
LAYERS = {
    "objects": (
        "enumerate_objects",
        "object_type",
        "diagram_of_object",
        "object_of_diagram",
        "crossings",
        "alpha_of",
        "S2Object.from_text",
    ),
    "homcalc": ("hom_leq", "delta_hom", "delta_mult", "hom_obj", "test_set", "mesh_defect_report"),
    "moves": (
        "down_moves",
        "apply_down",
        "arc_leq",
        "hasse",
        "extrema",
        "hasse_dot",
        "region",
        "ses_witness",
    ),
    "reduction": ("reduction_chain", "find_descent_move"),
    "oracle": ("oracle_hom_dim", "realize", "rank_mod_p"),
    "geometry": ("stratum_dim", "subspace_orbit_dim"),
    "lr": ("lr_coefficient", "minimal_count_prediction"),
    "verify": ("equivalence_sweep", "mesh_check", "region_check"),
}

# Counters kept at the layer boundaries (all start at zero).
COUNTERS = (
    "objects.enumerated",
    "partitions.Partition.constructed",
    "homcalc.test_set.members",
    "moves.down_moves.generated",
    "moves.hasse.edges",
    "reduction.chain_steps",
    "reduction.moves_returned",
    "reduction.candidates_checked",
    "oracle.rank_mod_p.elim_ops",
    "oracle.system_bytes",
    "verify.pairs_checked",
    "verify.types_realizable",
)

# lru caches read through cache_info(): (module, function, metric prefix).
CACHES = (
    ("homcalc", "hom_indec", "homcalc.hom_indec"),
    ("homcalc", "_hom_profile", "homcalc.profile_cache"),
    ("moves", "_down_closure", "moves.closure_cache"),
    ("moves", "_type_graph", "moves.type_graph_cache"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.in_descent = 0
        self.traced: list[str] = []
        self._partitions = [0]

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name, fn, after=None):
        nid = self._name_id(name)
        name_of, start, end, parent, op, stack = (
            self.name_of, self.start, self.end, self.parent, self.op, self.stack,
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        update_wrapper(traced, fn)
        return traced

    @contextmanager
    def root(self, name: str):
        """A harness span around one benchmark operation; spans inside
        it share a fresh op id."""
        self.op_id += 1
        idx = len(self.start)
        self.name_of.append(self._root_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def _root_id(self, name: str) -> int:
        full = f"bench.{name}"
        if full in self.names:
            return self.names.index(full)
        return self._name_id(full)

    # -- installation --------------------------------------------------

    def _hooks(self):
        c = self.counters

        def add(key, amount):
            c[key] += amount

        def rank_cost(rank, args):
            rows, cols = args[0].shape
            add("oracle.rank_mod_p.elim_ops", rank * rows * cols)
            add("oracle.system_bytes", rows * cols * 8)

        def sweep_counts(report, _):
            add("verify.pairs_checked", report.pairs_checked)
            add("verify.types_realizable", report.types_realizable)

        def witness(_, __):
            if self.in_descent:
                add("reduction.candidates_checked", 1)

        return {
            "objects.enumerate_objects": lambda r, _: add("objects.enumerated", len(r)),
            "homcalc.test_set": lambda r, _: add("homcalc.test_set.members", len(r)),
            "moves.down_moves": lambda r, _: add("moves.down_moves.generated", len(r)),
            "moves.hasse": lambda r, _: add("moves.hasse.edges", len(r)),
            "moves.ses_witness": witness,
            "reduction.reduction_chain": lambda r, _: add("reduction.chain_steps", len(r)),
            "oracle.rank_mod_p": rank_cost,
            "verify.equivalence_sweep": sweep_counts,
        }

    def _descent_scope(self, fn):
        def scoped(*args, **kwargs):
            self.in_descent += 1
            try:
                move = fn(*args, **kwargs)
            finally:
                self.in_descent -= 1
            self.counters["reduction.moves_returned"] += 1
            return move

        update_wrapper(scoped, fn)
        return scoped

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "arcdeg" or n.startswith("arcdeg."))
        ]
        hooks = self._hooks()
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"arcdeg.{layer}")
            if home is None:
                continue
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    self._install_method(home, fn, name)
                    continue
                original = getattr(home, fn, None)
                if not callable(original):
                    continue
                target = original
                if name == "reduction.find_descent_move":
                    target = self._descent_scope(original)
                wrapper = self._wrap(name, target, hooks.get(name))
                for m in modules:
                    if m.__dict__.get(fn) is original:
                        setattr(m, fn, wrapper)
                self.traced.append(name)
        self._count_partitions()

    def _install_method(self, home, dotted, name):
        cls_name, attr = dotted.split(".")
        cls = getattr(home, cls_name, None)
        raw = cls.__dict__.get(attr) if cls is not None else None
        if not isinstance(raw, classmethod):
            return
        setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
        self.traced.append(name)

    def _count_partitions(self):
        partitions = sys.modules.get("arcdeg.partitions")
        cls = getattr(partitions, "Partition", None)
        post_init = getattr(cls, "__post_init__", None)
        if post_init is None:
            del self.counters["partitions.Partition.constructed"]
            return
        cell = self._partitions

        def counting(obj):
            cell[0] += 1
            post_init(obj)

        cls.__post_init__ = counting

    # -- reporting -----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per traced function, self seconds per
        layer and for the harness, counters and cache figures."""
        self.counters["partitions.Partition.constructed"] = self._partitions[0]
        names = [self.names[i] for i in self.name_of]
        selfs = self_times(self.start, self.end, self.parent)
        by_name = sum_by_name(names, selfs)
        calls = sum_by_name(names, [1] * len(names))
        out: dict[str, float] = {}
        for name in self.traced:
            out[f"{name}.calls"] = int(calls.get(name, 0))
            out[f"{name}.self_s"] = by_name.get(name, 0.0)
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum((v for k, v in by_name.items() if k.startswith(prefix)), 0.0)
        out["bench.harness.self_s"] = sum((v for k, v in by_name.items() if k.startswith("bench.")), 0.0)
        for key, value in self.counters.items():
            out[key] = value
        checked = self.counters["reduction.candidates_checked"]
        out["reduction.admissible_ratio"] = (
            self.counters["reduction.moves_returned"] / checked if checked else 0.0
        )
        out.update(cache_metrics())
        out["trace.spans"] = len(names)
        out["trace.self_total_s"] = sum(selfs)
        return out

    def write(self, path: str):
        """Spans as JSON: a name table and five parallel columns."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "op_id"],
                    "name": self.name_of.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "op_id": self.op.tolist(),
                },
                fh,
            )


def cache_metrics() -> dict[str, float]:
    out: dict[str, float] = {}
    for module, fn, prefix in CACHES:
        info = getattr(getattr(sys.modules.get(f"arcdeg.{module}"), fn, None), "cache_info", None)
        if info is None:
            continue
        ci = info()
        lookups = ci.hits + ci.misses
        out[f"{prefix}.entries"] = ci.currsize
        out[f"{prefix}.lookups"] = lookups
        out[f"{prefix}.hit_ratio"] = ci.hits / lookups if lookups else 0.0
    return out
