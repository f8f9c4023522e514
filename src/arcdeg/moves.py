"""The five rewriting moves on arc diagrams, oriented downward (each
move strictly decreases the pair (pole count, crossing count)
lexicographically):

* ``A(m,n,r,s)``: crossing arcs (m,r), (n,s) become nested (m,s), (n,r);
* ``B(m,r,s)``:  arc (m,s) with a pole strictly inside at r becomes
  arc (m,r) plus a pole at s;
* ``C(m,n,r,s)``: crossing arcs (m,r), (n,s) become disjoint (m,n), (r,s);
* ``D(m,r,s)``:  arc (m,s) with a pole inside at r becomes arc (r,s)
  plus a pole at m;
* ``E(m,r)``:    poles at two distinct points m > r fuse into arc (m,r).

Each move carries a short exact sequence witness whose middle term is
the smaller side's replaced summands and whose end terms are the larger
side's, and a region of test objects on which the hom delta of a pair
differing by the move alone equals 1.  The reflexive-transitive closure
of the moves is the arc order; this module also computes Hasse diagrams
(single moves need not be covers, so a transitive reduction is taken)
and poset extrema for a fixed type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .errors import MoveNotApplicable
from .objects import (
    B2,
    P1,
    ArcDiagram,
    Indecomposable,
    S2Object,
    arc_summands,
    crossings,
    diagram_of_object,
    enumerate_objects,
    object_of_diagram,
    require_same_type,
)
from .partitions import Partition

# number of points each move kind takes, in canonical kind order
MOVE_ARITY = {"A": 4, "B": 3, "C": 4, "D": 3, "E": 2}
# the pieces each move kind replaces, as indices into its points:
# (arcs removed, poles removed, arcs added, poles added)
_MOVE_PIECES = {
    "A": (((0, 2), (1, 3)), (), ((0, 3), (1, 2)), ()),
    "B": (((0, 2),), (1,), ((0, 1),), (2,)),
    "C": (((0, 2), (1, 3)), (), ((0, 1), (2, 3)), ()),
    "D": (((0, 2),), (1,), ((1, 2),), (0,)),
    "E": ((), (0, 1), ((0, 1),), ()),
}
_KINDS = tuple(MOVE_ARITY)


@dataclass(frozen=True)
class Move:
    """A tagged down-move with its point parameters.

    Kinds A and C take four points m > n > r > s, kinds B and D take
    three points m > r > s, kind E takes two points m > r.  An A move
    with n = r + 1 produces a decomposable nested arc; it acts on the
    diagram like any other A move and only its sequence witness differs.
    """

    kind: str
    points: tuple[int, ...]

    def __post_init__(self):
        need = MOVE_ARITY.get(self.kind)
        if need is None:
            raise ValueError(f"unknown move kind {self.kind!r}")
        pts = self.points
        if len(pts) != need:
            raise ValueError(f"move {self.kind} takes {need} points, got {pts}")
        if any(p < 1 for p in pts):
            raise ValueError(f"move points must be >= 1, got {pts}")
        if list(pts) != sorted(pts, reverse=True) or len(set(pts)) != need:
            raise ValueError(f"move {self.kind}{pts} needs strictly decreasing points")

    @property
    def display_kind(self) -> str:
        if self.kind == "A" and self.points[1] == self.points[2] + 1:
            return "A'"
        return self.kind

    def to_text(self) -> str:
        return f"{self.display_kind}({','.join(str(p) for p in self.points)})"

    def __str__(self) -> str:
        return self.to_text()

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (_KINDS.index(self.kind), self.points)


def apply_down(diagram: ArcDiagram, move: Move) -> ArcDiagram:
    """Apply a down-move; raises :class:`MoveNotApplicable` when the
    required arcs or poles are missing (with multiplicity)."""
    arcs_out, poles_out, arcs_in, poles_in = _MOVE_PIECES[move.kind]
    pts = move.points
    arcs = list(diagram.arcs)
    poles = list(diagram.poles)
    try:
        for i, j in arcs_out:
            arcs.remove((pts[i], pts[j]))
        for i in poles_out:
            poles.remove(pts[i])
    except ValueError:
        raise MoveNotApplicable(f"{move} does not apply to {diagram}") from None
    for i, j in arcs_in:
        arcs.append((pts[i], pts[j]))
    for i in poles_in:
        poles.append(pts[i])
    return ArcDiagram.of(arcs, poles, diagram.loops)


def down_moves(diagram: ArcDiagram) -> list[tuple[Move, ArcDiagram]]:
    """All distinct applicable down-moves with their results, ordered by
    kind A < B < C < D < E and then lexicographically on the points."""
    arc_values = sorted(set(diagram.arcs), reverse=True)
    pole_values = sorted(set(diagram.poles), reverse=True)
    moves: list[Move] = []
    for i, (m1, r1) in enumerate(arc_values):
        for m2, r2 in arc_values[i + 1:]:
            # arc_values is sorted descending, so (m1, r1) >= (m2, r2)
            if m1 > m2 > r1 > r2:
                moves.append(Move("A", (m1, m2, r1, r2)))
                moves.append(Move("C", (m1, m2, r1, r2)))
    for m, s in arc_values:
        for r in pole_values:
            if m > r > s:
                moves.append(Move("B", (m, r, s)))
                moves.append(Move("D", (m, r, s)))
    for i, m in enumerate(pole_values):
        for r in pole_values[i + 1:]:
            moves.append(Move("E", (m, r)))
    moves.sort(key=lambda mv: mv.sort_key)
    return [(mv, apply_down(diagram, mv)) for mv in moves]


def ses_witness(move: Move) -> tuple[S2Object, S2Object, S2Object]:
    """The short exact sequence attached to a move, as a triple
    (left end, middle, right end).

    The ends are the larger side's removed pieces, one each (kinds A
    and D put the second one on the left); the middle is the smaller
    side's added pieces, where a nested arc at the boundary parameter
    expands into its picket pair (this is the only difference between
    an A move and its n = r + 1 variant).
    """
    arcs_out, poles_out, arcs_in, poles_in = _MOVE_PIECES[move.kind]
    pts = move.points
    ends = [S2Object.of(B2(pts[i], pts[j])) for i, j in arcs_out]
    ends += [S2Object.of(P1(pts[i])) for i in poles_out]
    left, right = ends[::-1] if move.kind in "AD" else ends
    middle = S2Object.of(
        *(x for i, j in arcs_in for x in arc_summands(pts[i], pts[j])),
        *(P1(pts[i]) for i in poles_in),
    )
    return left, middle, right


def region(move: Move) -> Callable[[Indecomposable], bool]:
    """The indicator of the test objects on which the hom delta of a
    unit pair for this move equals 1 (it is 0 elsewhere)."""
    k, pts = move.kind, move.points

    if k == "A":
        m, n, r, s = pts

        def pred(x: Indecomposable) -> bool:
            return x.kind == "B2" and n < x.m <= m and s < x.r <= r

    elif k == "B":
        m, r, s = pts

        def pred(x: Indecomposable) -> bool:
            if x.kind == "B2":
                return x.m > m and s < x.r <= r
            return x.kind == "P1" and s < x.m <= r

    elif k == "C":
        m, n, r, s = pts

        def pred(x: Indecomposable) -> bool:
            if x.kind == "B2":
                return (x.m > m and r < x.r <= n) or (r < x.m <= n and x.r <= s)
            return x.kind == "P1" and r < x.m <= n

    elif k == "D":
        m, r, s = pts

        def pred(x: Indecomposable) -> bool:
            return x.kind == "B2" and r < x.m <= m and x.r <= s

    else:
        m, r = pts

        def pred(x: Indecomposable) -> bool:
            if x.kind == "B2":
                return x.m > m and x.r <= r
            return x.kind == "P1" and x.m <= r

    return pred


@lru_cache(maxsize=None)
def _down_closure(diagram: ArcDiagram) -> frozenset[ArcDiagram]:
    reach = {diagram}
    for _, nxt in down_moves(diagram):
        reach |= _down_closure(nxt)
    return frozenset(reach)


def arc_leq(y: S2Object, z: S2Object) -> bool:
    """True when the diagram of y is reachable from the diagram of z by
    a (possibly empty) sequence of down-moves."""
    require_same_type(y, z)
    return diagram_of_object(y) in _down_closure(diagram_of_object(z))


@lru_cache(maxsize=None)
def _type_graph(beta: Partition, gamma: Partition):
    """Objects of a type plus the single-move successor relation on them."""
    nodes = tuple(enumerate_objects(beta, gamma))
    by_diagram = {diagram_of_object(o): o for o in nodes}
    succ: dict[S2Object, tuple[S2Object, ...]] = {}
    for obj in nodes:
        seen: list[S2Object] = []
        for _, nxt in down_moves(diagram_of_object(obj)):
            target = by_diagram.get(nxt)
            # a move that leaves the type is the sweep's move-type failure
            if target is not None and target not in seen:
                seen.append(target)
        succ[obj] = tuple(seen)
    return nodes, succ


def hasse(beta: Partition, gamma: Partition) -> list[tuple[S2Object, S2Object]]:
    """Cover edges of the arc order on all objects of the type, directed
    from the greater object to the smaller, in canonical order."""
    nodes, succ = _type_graph(beta, gamma)
    closure: dict[S2Object, frozenset[ArcDiagram]] = {
        o: _down_closure(diagram_of_object(o)) for o in nodes
    }
    edges: list[tuple[S2Object, S2Object]] = []
    for u in nodes:
        for v in succ[u]:
            dv = diagram_of_object(v)
            if any(w != v and dv in closure[w] for w in succ[u]):
                continue
            edges.append((u, v))
    edges.sort(key=lambda e: (e[0].sort_key, e[1].sort_key))
    return edges


def extrema(beta: Partition, gamma: Partition) -> tuple[list[S2Object], list[S2Object]]:
    """(maximal, minimal) elements of the arc order on the type: objects
    with no up-move, respectively no down-move."""
    nodes, succ = _type_graph(beta, gamma)
    has_incoming = {v for targets in succ.values() for v in targets}
    maximal = [o for o in nodes if o not in has_incoming]
    minimal = [o for o in nodes if not succ[o]]
    return maximal, minimal


def hasse_dot(beta: Partition, gamma: Partition) -> str:
    """DOT source for the Hasse diagram; one node per diagram labeled
    with its text form, subspace type, crossings and stratum dimension."""
    from .geometry import stratum_dim
    from .objects import alpha_of

    nodes, _ = _type_graph(beta, gamma)
    ids = {o: f"n{i}" for i, o in enumerate(nodes)}
    lines = ["digraph hasse {", "  rankdir=TB;", "  node [shape=box];"]
    for o in nodes:
        d = diagram_of_object(o)
        label = (
            f"{d.to_text()}\\nalpha={alpha_of(o).to_text() or '()'}"
            f" x={crossings(d)} dim={stratum_dim(o)}"
        )
        lines.append(f'  {ids[o]} [label="{label}"];')
    for u, v in hasse(beta, gamma):
        lines.append(f"  {ids[u]} -> {ids[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def unit_pair(move: Move, context: Iterable[Indecomposable] = ()) -> tuple[S2Object, S2Object]:
    """The pair (smaller, larger) of objects differing by one move, with
    optional shared extra summands."""
    left, middle, right = ses_witness(move)
    extra = tuple(context)
    smaller = S2Object(middle.summands + extra)
    larger = S2Object(left.summands + right.summands + extra)
    return smaller, larger
