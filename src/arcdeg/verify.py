"""Whole-library property sweep over every type up to a weight bound.

Each ambient type beta up to the bound is enumerated once, and all its
objects get one record (``moves.TypeGraph``); the betas and gammas come
from one partition walk, with an explicit stack instead of recursion.
No move changes the quotient type gamma, so the record's successors
stay inside a type, and each realizable type (beta, gamma) is checked
exhaustively on its own node ids in that record:

* diagram round trip: the object of the diagram of an object is the
  object itself;
* equivalence of the arc order and the hom order on every ordered pair;
* agreement of the hom order computed with the default test-set cutoff
  and with a cutoff three columns wider;
* vanishing of the hom delta on every P0 and P2, checked per object:
  the hom space from each such picket has one dimension over the type;
* every single down-move stays in the type and strictly raises the
  stratum dimension;
* the orbit-stabilizer identity: the stratum dimension that the record
  gives (from crossing numbers) plus the dimension of the object's
  endomorphism space (from the hom table) is |alpha|^2 + |beta|^2;
* a unique maximal element whose diagram carries no arc, and agreement
  of the minimal-element count with the Littlewood-Richardson
  prediction whenever the skew type is a column strip.

The moves, crossings, dimensions and extrema are read from the record,
where a move count above the successor count means a move leaves the
type; ``down_moves`` then names the moves that leave, and a count it
does not match is reported too.  Both orders come from tables built
once per beta: the hom order from one packed hom row per object and
test set (``homcalc._hom_rows``), where y <= z iff row y is entrywise
at most row z, decided by one guarded subtraction per pair, and the arc
order from the bitset closure of the record (``moves._reach_ids``),
where y <= z iff bit y is set in the closure of z.  The point queries
``hom_leq`` and ``arc_leq`` decide the same orders pair by pair and are
the tests' reference for both tables.

Beside the sweep, ``region_check`` tests the region lemma on seeded
random unit pairs: each pair's packed hom delta must equal the guard
bits plus the move's region mask (``moves._region_mask``), the mask the
descent reads.
"""

from __future__ import annotations

import random

from .errors import InconsistentDiagram
from .homcalc import _fields, _guard, _hom_rows, _packed_delta, _row_width, hom_obj, mesh_defect_report, test_set
from .lr import minimal_count_prediction
from .moves import (
    MOVE_ARITY,
    Move,
    _extrema_ids,
    _node_dims,
    _reach_ids,
    _region_mask,
    _type_table,
    down_moves,
    unit_pair,
)
from .objects import (
    B2,
    P0,
    P2,
    Indecomposable,
    S2Object,
    enumerate_objects,
    object_of_diagram,
    object_type,
)
from .partitions import Partition


def _partitions_below(bounds: tuple[int, ...], max_weight: int) -> list[Partition]:
    """Every partition with i-th part at most ``bounds[i]`` and weight at
    most max_weight, depth first with larger parts first, each right
    before the ones that extend it by a part."""
    out = []
    stack = [((), max_weight)]
    while stack:
        parts, room = stack.pop()
        # each part is positive and at most the one before, so the parts
        # are already canonical
        out.append(tuple.__new__(Partition, parts))
        if len(parts) < len(bounds):
            cap = min(bounds[len(parts)], room, parts[-1] if parts else room)
            stack += [(parts + (p,), room - p) for p in range(1, cap + 1)]
    return out


def all_partitions(max_weight: int) -> list[Partition]:
    """Every partition of weight 0..max_weight."""
    return _partitions_below((max_weight,) * max_weight, max_weight)


def subpartitions(beta: Partition) -> list[Partition]:
    """Every partition contained in beta."""
    return _partitions_below(beta, beta.weight())


class SweepReport:
    def __init__(self):
        self.types_seen = 0
        self.types_realizable = 0
        self.objects_total = 0
        self.pairs_checked = 0
        self.move_edges = 0
        self.failures: dict[str, list[str]] = {}

    def fail(self, kind: str, message: str):
        self.failures.setdefault(kind, []).append(message)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list[str]:
        lines = [
            f"types seen:       {self.types_seen}",
            f"types realizable: {self.types_realizable}",
            f"objects:          {self.objects_total}",
            f"ordered pairs:    {self.pairs_checked}",
            f"move edges:       {self.move_edges}",
        ]
        if self.ok:
            lines.append("all checks passed")
        else:
            for kind, msgs in sorted(self.failures.items()):
                lines.append(f"FAILED {kind}: {len(msgs)} case(s); first: {msgs[0]}")
        return lines


def equivalence_sweep(max_weight: int) -> SweepReport:
    """Run the exhaustive per-type checks up to the weight bound."""
    report = SweepReport()
    for beta in all_partitions(max_weight)[1:]:  # all but the empty one
        _check_ambient(report, beta)
    return report


def _picket_probes(max_part: int) -> tuple[Indecomposable, ...]:
    """The P0 and P2 probes of the types with this largest part."""
    return tuple([P0(m) for m in range(1, max_part + 2)] + [P2(m) for m in range(2, max_part + 2)])


def _check_ambient(report: SweepReport, beta: Partition):
    """Every per-type check on the types (beta, gamma), in
    ``subpartitions(beta)`` order, from one record and one set of tables
    of all objects of ambient type beta."""
    graph = _type_table(enumerate_objects(beta))
    objects = graph.nodes
    # canonical order within beta is canonical order within each gamma
    ids_of: dict[Partition, list[int]] = {}
    for i, obj in enumerate(objects):
        ids_of.setdefault(object_type(obj)[1], []).append(i)
    dims = _node_dims(graph, beta)
    square_beta = beta.weight() ** 2
    probes = _picket_probes(beta.max_part)
    w = _row_width(beta)
    picket_rows = _hom_rows(probes, objects, w)
    # y <= z in the hom order iff ((row z | G) - row y) & G == G, G the
    # guard bits, and in the arc order iff bit y is set in the closure of z
    xs, wide_xs = test_set(beta), test_set(beta, beta.max_part + 4)
    guard, wide_guard = _guard(len(xs), w), _guard(len(wide_xs), w)
    rows, wide_rows = _hom_rows(xs, objects, w), _hom_rows(wide_xs, objects, w)
    reach = _reach_ids(graph)
    for gamma in subpartitions(beta):
        report.types_seen += 1
        ids = ids_of.get(gamma)
        if ids is None:
            continue
        report.types_realizable += 1
        report.objects_total += len(ids)
        report.move_edges += sum(graph.moves[i] for i in ids)
        first = objects[ids[0]]
        for i in ids:
            obj, d, (alpha, dim) = objects[i], graph.diagrams[i], dims[i]
            # a diagram that completes to another type fails the round trip, not the run
            try:
                back = object_of_diagram(d, beta, gamma)
            except InconsistentDiagram:
                back = None
            if back != obj:
                report.fail("roundtrip", obj.to_text())
            if picket_rows[i] != picket_rows[ids[0]]:
                values = _fields(picket_rows[i], len(probes), w)
                for probe, value, expected in zip(probes, values, _fields(picket_rows[ids[0]], len(probes), w)):
                    if value != expected:
                        report.fail("picket-delta-zero", f"{probe.to_text()} on {first.to_text()} vs {obj.to_text()}")
            # orbit-stabilizer: the stabilizer of the embedding is Aut(obj), an
            # open subset of End(obj), so the stratum, the sum of the three
            # orbits, has dimension |alpha|^2 + |beta|^2 - [obj, obj]
            if dim + hom_obj(obj, obj) != alpha.weight() ** 2 + square_beta:
                report.fail("dimension-identity", obj.to_text())
            leaving = graph.moves[i] - len(graph.succ[i])
            if leaving or any(dims[j][1] <= dim for j in graph.succ[i]):
                # name each failing move, in down_moves order
                type_ids = {graph.diagrams[j]: j for j in ids}
                named = 0
                for move, result in down_moves(d):
                    j = type_ids.get(result)
                    if j is None:
                        named += 1
                        report.fail("move-type", f"{move} leaves the type from {obj.to_text()}")
                    elif dims[j][1] <= dim:
                        report.fail("dimension-monotonicity", f"{move} from {obj.to_text()} ({dim} -> {dims[j][1]})")
                # the record and down_moves disagree on the moves that leave
                if named != leaving:
                    report.fail(
                        "move-type",
                        f"moves leaving the type from {obj.to_text()}: {leaving} in the record, {named} in down_moves",
                    )
        report.pairs_checked += len(ids) ** 2
        for i in ids:
            # the guard bits of a row are 0, so (row z | G) - row y is row z - (row y - G)
            low, wide_low = rows[i] - guard, wide_rows[i] - wide_guard
            for j in ids:
                hom = (rows[j] - low) & guard == guard
                if bool(reach[j] >> i & 1) != hom:
                    report.fail("order-equivalence", f"{objects[i].to_text()} vs {objects[j].to_text()}")
                if ((wide_rows[j] - wide_low) & wide_guard == wide_guard) != hom:
                    report.fail("test-set-bound", f"{objects[i].to_text()} vs {objects[j].to_text()}")
        maximal, minimal = _extrema_ids(graph, ids)
        if len(maximal) != 1:
            report.fail("unique-maximal", f"type ({beta.to_text()};{gamma.to_text()})")
        elif graph.diagrams[maximal[0]].arcs:
            report.fail("maximal-has-arc", f"type ({beta.to_text()};{gamma.to_text()})")
        predicted = minimal_count_prediction(beta, gamma)
        if predicted is not None and predicted != len(minimal):
            report.fail(
                "minimal-count",
                f"type ({beta.to_text()};{gamma.to_text()}): predicted {predicted}, found {len(minimal)}",
            )


def random_same_type_pairs(count: int, max_weight: int, seed: int):
    """Deterministic stream of (y, z) pairs of equal type with the
    ambient weight bounded; used by the randomized mesh check."""
    rng = random.Random(seed)
    betas = [p for p in all_partitions(max_weight) if p]
    cache: dict[tuple[Partition, Partition], list[S2Object]] = {}
    produced = 0
    while produced < count:
        beta = rng.choice(betas)
        subs = subpartitions(beta)
        gamma = rng.choice(subs)
        key = (beta, gamma)
        if key not in cache:
            cache[key] = enumerate_objects(beta, gamma)
        objects = cache[key]
        if not objects:
            continue
        y = rng.choice(objects)
        z = rng.choice(objects)
        produced += 1
        yield y, z


def random_unit_pairs(count: int, max_point: int, seed: int):
    """Deterministic stream of (move, smaller, larger) unit-move pairs
    with a little shared context; used by the randomized region check."""
    rng = random.Random(seed)
    kinds = tuple(MOVE_ARITY)
    produced = 0
    while produced < count:
        kind = rng.choice(kinds)
        need = MOVE_ARITY[kind]
        pts = tuple(sorted(rng.sample(range(1, max_point + 1), need), reverse=True))
        move = Move(kind, pts)
        context: list[Indecomposable] = []
        for _ in range(rng.randrange(0, 3)):
            k = rng.choice(("P0", "P1", "P2", "B2"))
            if k == "B2":
                m = rng.randrange(3, max_point + 1)
                context.append(B2(m, rng.randrange(1, m - 1)))
            elif k == "P2":
                context.append(P2(rng.randrange(2, max_point + 1)))
            else:
                context.append(Indecomposable(k, rng.randrange(1, max_point + 1)))
        smaller, larger = unit_pair(move, context)
        produced += 1
        yield move, smaller, larger


def mesh_check(pairs: int, max_weight: int, seed: int) -> list[str]:
    """Mesh identity over a random pair stream; returns failure texts."""
    failures = []
    for y, z in random_same_type_pairs(pairs, max_weight, seed):
        beta = object_type(y)[0]
        report = mesh_defect_report(y, z, beta.max_part + 4)
        if report:
            failures.append(f"{y.to_text()} vs {z.to_text()}: {report[0]}")
    return failures


def region_check(pairs: int, max_point: int, seed: int) -> list[str]:
    """Region indicator versus hom delta over random unit pairs; a
    failure names the first test-set member where they differ."""
    failures = []
    for move, smaller, larger in random_unit_pairs(pairs, max_point, seed):
        beta = object_type(smaller)[0]
        diff, guard, w = _packed_delta(smaller, larger)
        expected = guard + _region_mask(move, beta.max_part + 1, w)
        if diff != expected:
            # the lowest differing bit lies in the first differing field
            wrong = diff ^ expected
            k = ((wrong & -wrong).bit_length() - 1) // w
            failures.append(f"{move} at {test_set(beta)[k].to_text()}")
    return failures
