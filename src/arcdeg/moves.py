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
of the moves is the arc order.  A point query (``arc_leq``) searches,
with an explicit stack, the down-closure of the integer (arcs, poles)
tuples of one diagram, cached per queried diagram; loops, which no move
touches, are compared apart.  For a whole type, the objects get
integer ids and the moves are applied to integer arc and pole tuples;
the closure is one bitset per object (``_reach_ids``), built in
ascending (poles, crossings) order, which is topological since every
move lowers that pair.  From it come Hasse diagrams (single moves need
not be covers, so the transitive reduction is taken), poset extrema,
and the arc order on every pair that the verification sweep reads.
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


def _move_candidates(arcs, poles):
    """(kind, points) of every down-move on a diagram with these arcs
    and poles (each in descending order, repeats allowed), unordered."""
    arc_values = tuple(dict.fromkeys(arcs))
    pole_values = tuple(dict.fromkeys(poles))
    for i, (m1, r1) in enumerate(arc_values):
        for m2, r2 in arc_values[i + 1:]:
            # arc_values is sorted descending, so (m1, r1) >= (m2, r2)
            if m1 > m2 > r1 > r2:
                yield "A", (m1, m2, r1, r2)
                yield "C", (m1, m2, r1, r2)
    for m, s in arc_values:
        for r in pole_values:
            if m > r > s:
                yield "B", (m, r, s)
                yield "D", (m, r, s)
    for i, m in enumerate(pole_values):
        for r in pole_values[i + 1:]:
            yield "E", (m, r)


def _replace_pieces(kind: str, pts: tuple[int, ...], arcs, poles):
    """The (arcs, poles) lists after a move of this kind on these points
    replaces its pieces; raises ValueError when a removed piece is
    missing (with multiplicity)."""
    arcs_out, poles_out, arcs_in, poles_in = _MOVE_PIECES[kind]
    arcs = list(arcs)
    poles = list(poles)
    for i, j in arcs_out:
        arcs.remove((pts[i], pts[j]))
    for i in poles_out:
        poles.remove(pts[i])
    arcs += [(pts[i], pts[j]) for i, j in arcs_in]
    poles += [pts[i] for i in poles_in]
    return arcs, poles


def apply_down(diagram: ArcDiagram, move: Move) -> ArcDiagram:
    """Apply a down-move; raises :class:`MoveNotApplicable` when the
    required arcs or poles are missing (with multiplicity)."""
    try:
        arcs, poles = _replace_pieces(move.kind, move.points, diagram.arcs, diagram.poles)
    except ValueError:
        raise MoveNotApplicable(f"{move} does not apply to {diagram}") from None
    return ArcDiagram.of(arcs, poles, diagram.loops)


def down_moves(diagram: ArcDiagram) -> list[tuple[Move, ArcDiagram]]:
    """All distinct applicable down-moves with their results, ordered by
    kind A < B < C < D < E and then lexicographically on the points."""
    moves = [Move(kind, pts) for kind, pts in _move_candidates(diagram.arcs, diagram.poles)]
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


def _move_targets(arcs, poles):
    """The (arcs, poles) of every single down-move result, each sorted
    descending, as integer tuples; repeats are possible."""
    for kind, pts in _move_candidates(arcs, poles):
        arcs_to, poles_to = _replace_pieces(kind, pts, arcs, poles)
        yield tuple(sorted(arcs_to, reverse=True)), tuple(sorted(poles_to, reverse=True))


@lru_cache(maxsize=None)
def _down_closure(arcs, poles) -> frozenset:
    """Every (arcs, poles) reachable from these by down-moves, the start
    included: one entry per queried start, found by an explicit-stack
    search (moves leave loops alone)."""
    start = (arcs, poles)
    reach = {start}
    stack = [start]
    while stack:
        for nxt in _move_targets(*stack.pop()):
            if nxt not in reach:
                reach.add(nxt)
                stack.append(nxt)
    return frozenset(reach)


def arc_leq(y: S2Object, z: S2Object) -> bool:
    """True when the diagram of y is reachable from the diagram of z by
    a (possibly empty) sequence of down-moves."""
    require_same_type(y, z)
    dy, dz = diagram_of_object(y), diagram_of_object(z)
    return dy.loops == dz.loops and (dy.arcs, dy.poles) in _down_closure(dz.arcs, dz.poles)


@lru_cache(maxsize=16)
def _type_graph(beta: Partition, gamma: Partition):
    """Objects of a type in canonical order, plus for each object the
    sorted ids (positions in that order) of its single-move successors.

    Each caller reads a type right after building it, so a few recent
    types are kept."""
    nodes = tuple(enumerate_objects(beta, gamma))
    diagrams = [diagram_of_object(o) for o in nodes]
    ids = {(d.arcs, d.poles, d.loops): i for i, d in enumerate(diagrams)}
    succ = []
    for d in diagrams:
        targets = set()
        for arcs, poles in _move_targets(d.arcs, d.poles):
            j = ids.get((arcs, poles, d.loops))
            # a move that leaves the type is the sweep's move-type failure
            if j is not None:
                targets.add(j)
        succ.append(tuple(sorted(targets)))
    return nodes, tuple(succ)


def _reach_ids(succ, diagrams: list[ArcDiagram]) -> list[int]:
    """The reflexive-transitive closure of a type graph, as one bitset
    per node: bit j of ``reach[i]`` is set iff node j lies below node i
    in the arc order."""
    # every move lowers (poles, crossings), so successors come first
    order = sorted(range(len(succ)), key=lambda i: (len(diagrams[i].poles), crossings(diagrams[i])))
    reach = [0] * len(succ)
    for i in order:
        bits = 1 << i
        for j in succ[i]:
            bits |= reach[j]
        reach[i] = bits
    return reach


def _cover_ids(succ, diagrams: list[ArcDiagram]) -> list[tuple[int, int]]:
    """Cover edges (i, j) of a type graph, in (i, j) order: its
    transitive reduction, from one bitset closure per node."""
    reach = _reach_ids(succ, diagrams)
    edges = []
    for i, targets in enumerate(succ):
        # the targets some other successor reaches are not covers
        below = 0
        for k in targets:
            below |= reach[k] ^ (1 << k)
        edges += [(i, j) for j in targets if not below >> j & 1]
    return edges


def hasse(beta: Partition, gamma: Partition) -> list[tuple[S2Object, S2Object]]:
    """Cover edges of the arc order on all objects of the type, directed
    from the greater object to the smaller, in canonical order."""
    nodes, succ = _type_graph(beta, gamma)
    diagrams = [diagram_of_object(o) for o in nodes]
    return [(nodes[i], nodes[j]) for i, j in _cover_ids(succ, diagrams)]


def extrema(beta: Partition, gamma: Partition) -> tuple[list[S2Object], list[S2Object]]:
    """(maximal, minimal) elements of the arc order on the type: objects
    with no up-move, respectively no down-move."""
    nodes, succ = _type_graph(beta, gamma)
    has_incoming = {j for targets in succ for j in targets}
    maximal = [o for i, o in enumerate(nodes) if i not in has_incoming]
    minimal = [o for o, targets in zip(nodes, succ) if not targets]
    return maximal, minimal


def hasse_dot(beta: Partition, gamma: Partition) -> str:
    """DOT source for the Hasse diagram; one node per diagram labeled
    with its text form, subspace type, crossings and stratum dimension."""
    from .geometry import _stratum_dim_less_crossings
    from .objects import alpha_of

    nodes, succ = _type_graph(beta, gamma)
    diagrams = [diagram_of_object(o) for o in nodes]
    # alpha has a 2 per arc or loop and a 1 per pole, so it and the
    # crossing-free part of the dimension are shared by each such class
    by_alpha: dict[tuple[int, int], tuple[str, int]] = {}
    lines = ["digraph hasse {", "  rankdir=TB;", "  node [shape=box];"]
    for i, (o, d) in enumerate(zip(nodes, diagrams)):
        key = (len(d.arcs) + len(d.loops), len(d.poles))
        if key not in by_alpha:
            alpha = alpha_of(o)
            by_alpha[key] = (alpha.to_text() or "()", _stratum_dim_less_crossings(alpha, beta, gamma))
        alpha_text, uncrossed_dim = by_alpha[key]
        x = crossings(d)
        lines.append(f'  n{i} [label="{d.to_text()}\\nalpha={alpha_text} x={x} dim={uncrossed_dim - x}"];')
    lines += [f"  n{i} -> n{j};" for i, j in _cover_ids(succ, diagrams)]
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
