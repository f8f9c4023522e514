"""Invariant subspaces of nilpotent operators with subspace exponent at
most two: the classification of indecomposables, objects as multisets of
summands, the object/arc-diagram bijection, crossing counts, and the
enumeration of all objects of a fixed ambient/quotient type or of a
whole ambient type.

Every indecomposable is one of four kinds, listed with its subspace
dimension, which one table holds for alpha and the quotient parts:

* ``P0(m)`` -- the zero subspace of a single Jordan block of size m;
* ``P1(m)`` -- the 1-dimensional invariant subspace of a block of size m;
* ``P2(m)`` -- the 2-dimensional invariant subspace of a block of size m
  (needs m >= 2);
* ``B2(m, r)`` -- a 2-dimensional subspace embedded diagonally into two
  Jordan blocks of sizes m and r, with 1 <= r <= m - 2.

The boundary value r = m - 1 is deliberately *not* an indecomposable:
that embedding decomposes as ``P2(m) + P0(m-1)``.  Arc diagrams record
one arc per ``B2(m, r)``, one arc (m, m-1) per ``P2(m) + P0(m-1)`` pair,
one pole per ``P1``, and one loop per unpaired ``P2``; ``P0`` summands
are invisible.

Summands, arc diagrams and objects, like the partitions of their
types, are tuples that compare and hash equal to their plain tuples,
``(kind, m, r)``, ``(arcs, poles, loops)`` and the summands in
canonical order, so each is its own key in every table.  The
constructors check summands and sort diagram groups and object
summands.  ``P0``, ``P1``, ``P2`` and ``B2`` intern what they build:
each keeps its 1024 most recent summands, keyed on the arguments and
their types, so a summand is checked once, a ``bool`` or ``float``
argument still reaches the check, and a call that raises keeps
nothing.  Two builders here skip a constructor through
``tuple.__new__``, each because its parts are valid and already in
canonical order:

* ``enumerate_objects`` builds each object from summands that the
  constructors made, sorted once on their sort keys;
* ``diagram_of_object`` builds each diagram from an object's summands,
  which are valid and canonical, so its bipicket arcs, poles and loops
  come out descending; it sorts the arcs once, and only when boundary
  arcs (m, m-1) joined them.

The ``partitions`` module lists its own such sites, and the library
never calls the namedtuple ``_make`` or ``_replace``, which skip both
checks and sorting.
Objects are parsed from and printed as ``+``-joined text; diagrams are
only printed, since no command reads one.  Each distinct summand token
is parsed once and kept (the 1024 most recent); a token that raises is
not kept, so it raises the same message every time.

An object's (ambient, quotient) type is derived once, by the first
``object_type`` call, and kept in the object's ``_type`` attribute,
which takes no part in equality, hashing, ``repr`` or the text form;
``enumerate_objects`` and ``object_of_diagram`` set it to the type they
were given or, when enumerating a whole ambient type, to the quotient
type derived.  Each enumeration builds one role list per part value, so
each summand once, with its sort key and quotient parts, and sorts the
objects once, on those sort keys.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache
from itertools import combinations
from operator import itemgetter

from .errors import InconsistentDiagram, TypeMismatch
from .partitions import Partition

_KIND_RANK = {"B2": 0, "P2": 1, "P1": 2, "P0": 3}
_SUBSPACE_DIM = {"B2": 2, "P2": 2, "P1": 1, "P0": 0}


class Indecomposable(namedtuple("Indecomposable", "kind m r")):
    """One indecomposable summand; ``r`` is meaningful only for kind B2."""

    __slots__ = ()

    def __new__(cls, kind: str, m: int, r: int = 0):
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown summand kind {kind!r}")
        if type(m) is not int or type(r) is not int:
            raise ValueError(f"{kind} takes integer parameters, got {m!r}, {r!r}")
        if kind == "B2":
            if not (1 <= r <= m - 2):
                raise ValueError(f"B2({m},{r}) needs 1 <= r <= m-2")
        else:
            if r != 0:
                raise ValueError(f"{kind} takes a single parameter")
            if m < 1 or (kind == "P2" and m < 2):
                raise ValueError(f"{kind}({m}) is out of range")
        return super().__new__(cls, kind, m, r)

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (_KIND_RANK[self.kind], -self.m, -self.r)

    def ambient_parts(self) -> tuple[int, ...]:
        """Jordan block sizes this summand contributes to the ambient space."""
        return (self.m, self.r) if self.kind == "B2" else (self.m,)

    def quotient_parts(self) -> tuple[int, ...]:
        """Jordan block sizes contributed to the quotient (zeros dropped)."""
        raw = (self.m - 1, self.r - 1) if self.kind == "B2" else (self.m - _SUBSPACE_DIM[self.kind],)
        return tuple(p for p in raw if p > 0)

    def to_text(self) -> str:
        if self.kind == "B2":
            return f"B({self.m},{self.r})"
        return f"{self.kind}({self.m})"

    def __str__(self) -> str:
        return self.to_text()


# typed=True keeps P1(True) and B2(5.0, 3) apart from the equal P1(1) and
# B2(5, 3) they would otherwise be served, so they still reach the check
@lru_cache(maxsize=1024, typed=True)
def P0(m: int) -> Indecomposable:
    return Indecomposable("P0", m)


@lru_cache(maxsize=1024, typed=True)
def P1(m: int) -> Indecomposable:
    return Indecomposable("P1", m)


@lru_cache(maxsize=1024, typed=True)
def P2(m: int) -> Indecomposable:
    return Indecomposable("P2", m)


@lru_cache(maxsize=1024, typed=True)
def B2(m: int, r: int) -> Indecomposable:
    return Indecomposable("B2", m, r)


def arc_summands(m: int, r: int) -> tuple[Indecomposable, ...]:
    """Summands encoded by an arc from m to r (m > r >= 1).

    Arcs with r <= m - 2 are bipickets; the boundary arc (m, m-1) is the
    decomposable pair ``P2(m) + P0(m-1)``.
    """
    if not m > r >= 1:
        raise ValueError(f"arc ({m},{r}) needs m > r >= 1")
    if r == m - 1:
        return (P2(m), P0(m - 1))
    return (B2(m, r),)


_SUMMAND_RE = re.compile(r"^(B2?|P[012])\((\d+)(?:,(\d+))?\)$")


# one parse per distinct token, spaces included, for the 1024 most recent;
# a token that raises is not kept, so it raises the same way every time
@lru_cache(maxsize=1024)
def _parse_summand(token: str) -> Indecomposable:
    """The summand of one ``+``-separated token of an object's text."""
    token = token.strip().replace(" ", "")
    mt = _SUMMAND_RE.match(token)
    if not mt:
        raise ValueError(f"cannot parse summand {token!r}")
    kind, m, r = mt.group(1), int(mt.group(2)), mt.group(3)
    if kind in ("B", "B2"):
        if r is None:
            raise ValueError(f"bipicket {token!r} needs two parameters")
        return B2(m, int(r))
    if r is not None:
        raise ValueError(f"{token!r}: pickets take a single parameter")
    return Indecomposable(kind, m)


class S2Object(tuple):
    """An isomorphism class: a multiset of indecomposables, stored as the
    tuple of its summands in canonical order (B2 before P2 before P1
    before P0, then lexicographically descending on the parameters), so
    equality of objects is multiset equality.  Objects are sorted only by
    a key on their summands' sort keys, never by tuple order, which ranks
    the kinds by name (B2 < P0 < P1 < P2) rather than canonically.
    """

    # (ambient, quotient) type, set by the builder or the first object_type call
    _type: tuple[Partition, Partition] | None = None

    def __new__(cls, summands: Iterable[Indecomposable] = ()):
        # descending tuple order is P2, P1, P0, B2, each by m then r
        # descending, which is the canonical order once the trailing B2
        # block moves to the front
        ordered = sorted(summands, reverse=True)
        if ordered and ordered[-1][0] == "B2":
            k = len(ordered) - 1
            while k and ordered[k - 1][0] == "B2":
                k -= 1
            ordered = ordered[k:] + ordered[:k]
        return super().__new__(cls, ordered)

    @classmethod
    def of(cls, *summands: Indecomposable) -> "S2Object":
        return cls(summands)

    @classmethod
    def from_text(cls, text: str) -> "S2Object":
        """Parse the ``+``-joined text form, e.g. ``"B(7,3)+P2(5)+P1(1)"``.

        ``B`` and ``B2`` are both accepted for bipickets; the empty
        string is the zero object.
        """
        text = text.strip()
        if not text:
            return cls()
        return cls(map(_parse_summand, text.split("+")))

    def to_text(self) -> str:
        return "+".join(s.to_text() for s in self)

    def __str__(self) -> str:
        return self.to_text()


class ArcDiagram(namedtuple("ArcDiagram", "arcs poles loops")):
    """Multisets of arcs, poles and loops on the points 1, 2, 3, ...

    Arcs are pairs (m, r) with m > r >= 1 (the boundary case r = m - 1
    is allowed), poles are single points, loops mark points m >= 2 and
    are untouched by every move.  Each group is kept in descending order.
    """

    __slots__ = ()

    def __new__(
        cls, arcs: tuple[tuple[int, int], ...] = (), poles: tuple[int, ...] = (), loops: tuple[int, ...] = ()
    ):
        for m, r in arcs:
            if type(m) is not int or type(r) is not int or not m > r >= 1:
                raise ValueError(f"arc ({m!r},{r!r}) needs integers m > r >= 1")
        for p in poles:
            if type(p) is not int or p < 1:
                raise ValueError(f"pole at {p!r} is out of range")
        for q in loops:
            if type(q) is not int or q < 2:
                raise ValueError(f"loop at {q!r} is out of range (loops need integers m >= 2)")
        return super().__new__(cls, *(tuple(sorted(g, reverse=True)) for g in (arcs, poles, loops)))

    def to_text(self) -> str:
        arcs = ",".join(f"{m}-{r}" for m, r in self.arcs)
        poles = ",".join(str(p) for p in self.poles)
        loops = ",".join(str(q) for q in self.loops)
        return f"arcs:{arcs}; poles:{poles}; loops:{loops}"

    def __str__(self) -> str:
        return self.to_text()


def object_type(obj: S2Object) -> tuple[Partition, Partition]:
    """The (ambient, quotient) pair of Jordan types of an object,
    computed once per object and kept on it."""
    if obj._type is None:
        obj._type = (
            Partition([p for s in obj for p in s.ambient_parts()]),
            Partition([p for s in obj for p in s.quotient_parts()]),
        )
    return obj._type


def require_same_type(y: S2Object, z: S2Object) -> Partition:
    """The shared ambient type of y and z; raises :class:`TypeMismatch`
    when their (ambient, quotient) types differ."""
    ty, tz = object_type(y), object_type(z)
    if ty != tz:
        raise TypeMismatch(
            f"objects have types ({ty[0].to_text()};{ty[1].to_text()}) and ({tz[0].to_text()};{tz[1].to_text()})"
        )
    return ty[0]


def alpha_of(obj: S2Object) -> Partition:
    """Jordan type of the subspace: a 2 per arc or loop, a 1 per pole."""
    return Partition(tuple([_SUBSPACE_DIM[s.kind] for s in obj]))


def diagram_of_object(obj: S2Object) -> ArcDiagram:
    """The arc diagram of an object.

    ``P2(m)`` summands pair greedily with ``P0(m-1)`` summands into arcs
    (m, m-1) while both remain; unpaired ``P2`` become loops, ``P1``
    become poles, remaining ``P0`` contribute nothing.
    """
    arcs: list[tuple[int, int]] = []
    poles: list[int] = []
    p2_count: dict[int, int] = {}
    p0_count: dict[int, int] = {}
    for s in obj:
        if s.kind == "B2":
            arcs.append((s.m, s.r))
        elif s.kind == "P1":
            poles.append(s.m)
        elif s.kind == "P2":
            p2_count[s.m] = p2_count.get(s.m, 0) + 1
        else:
            p0_count[s.m] = p0_count.get(s.m, 0) + 1
    loops: list[int] = []
    bipickets = len(arcs)
    for m, c2 in p2_count.items():
        paired = min(c2, p0_count.get(m - 1, 0))
        arcs.extend([(m, m - 1)] * paired)
        loops.extend([m] * (c2 - paired))
    # the summands are in canonical order, so the bipicket arcs, the poles
    # and the loops (p2_count keeps first-seen order) are already
    # descending; only boundary arcs must be merged into the arcs
    if len(arcs) > bipickets:
        arcs.sort(reverse=True)
    return tuple.__new__(ArcDiagram, (tuple(arcs), tuple(poles), tuple(loops)))


def object_of_diagram(diagram: ArcDiagram, beta: Partition, gamma: Partition) -> S2Object:
    """The unique object of type (beta, gamma) with the given diagram.

    Arcs, poles and loops determine their summands directly; every
    ambient part of beta not consumed that way becomes an invisible
    ``P0``.  Raises :class:`InconsistentDiagram` when the diagram needs
    a part that beta lacks or the resulting quotient type is not gamma.
    The object keeps (beta, gamma) as its type.
    """
    # one pass: each arc, loop and pole gives its summands, ambient parts
    # and quotient parts (zeros included) at once; an arc (m, r) has the
    # quotient parts m - 1, r - 1 also at the boundary r = m - 1
    summands, used, quotient = [], [], []
    for m, r in diagram.arcs:
        summands += arc_summands(m, r)
        used += (m, r)
        quotient += (m - 1, r - 1)
    for q in diagram.loops:
        summands.append(P2(q))
        used.append(q)
        quotient.append(q - 2)
    for p in diagram.poles:
        summands.append(P1(p))
        used.append(p)
        quotient.append(p - 1)

    remaining = list(beta)
    for part in used:
        try:
            remaining.remove(part)
        except ValueError:
            raise InconsistentDiagram(
                f"diagram needs an ambient part {part} not available in {beta.to_text() or '()'}"
            ) from None
    summands += map(P0, remaining)
    quotient += remaining
    # every part of beta is used exactly once, so only the quotient can differ
    if tuple(sorted(filter(None, quotient), reverse=True)) != gamma:
        raise InconsistentDiagram(
            f"diagram completes to type ({beta.to_text()};{Partition(quotient).to_text()}), "
            f"not ({beta.to_text()};{gamma.to_text()})"
        )
    obj = S2Object(summands)
    obj._type = (beta, gamma)
    return obj


def crossings(diagram: ArcDiagram) -> int:
    """Number of crossings: strictly interleaved arc pairs plus poles
    strictly inside an arc.  Loops never cross anything."""
    count = 0
    # the arcs are in descending order, so (m, r) is the larger of each
    # pair; shared endpoints, nesting and tangency do not count
    for (m, r), (n, s) in combinations(diagram.arcs, 2):
        if m > n > r > s:
            count += 1
    for m, r in diagram.arcs:
        for p in diagram.poles:
            if m > p > r:
                count += 1
    return count


def _remove_values(pool: tuple[int, ...], values: tuple[int, ...]) -> tuple[int, ...] | None:
    if not values:
        return pool
    out = list(pool)
    for v in values:
        try:
            out.remove(v)
        except ValueError:
            return None
    return tuple(out)


def _roles(m: int, parts: Iterable[int]):
    """Summands for an ambient part m, in canonical order: a bipicket to
    each distinct part r <= m - 2 of parts, then the pickets."""
    for r in sorted({p for p in parts if 1 <= p <= m - 2}, reverse=True):
        yield B2(m, r)
    if m >= 2:
        yield P2(m)
    yield P1(m)
    yield P0(m)


def enumerate_objects(beta: Partition, gamma: Partition | None = None) -> list[S2Object]:
    """All objects of type (beta, gamma), without duplicates, in canonical
    order; the list is empty exactly when the type is unrealizable.
    Without gamma, every object of ambient type beta once, in canonical
    order, its quotient type derived once all its summands are chosen.
    Each part value m gets one role list per call, with a bipicket to
    every part of beta at most m - 2; a search node skips the bipickets
    whose partner part it has already used.  Equal parts take their
    summands in canonical order, so each multiset is produced once: a
    node skips a summand whose sort key lies below that of the summand
    chosen for the equal part before it."""
    found: list[tuple[tuple, S2Object]] = []
    quotients: dict[tuple[int, ...], Partition] = {}
    # part -> [((sort key, summand), quotient parts, bipicket partner part)]
    roles: dict[int, list] = {}
    # depth-first over the ambient parts, largest first; an explicit stack
    # because a type may have more parts than the interpreter's recursion
    # limit.  Without gamma, the second entry collects the quotient parts.
    stack = [(beta, () if gamma is None else gamma, (), None)]
    while stack:
        beta_rem, gamma_rem, acc, prev = stack.pop()
        if not beta_rem:
            quotient = gamma
            if gamma is None:
                parts = tuple(sorted(gamma_rem, reverse=True))
                if parts not in quotients:
                    quotients[parts] = Partition(parts)
                quotient = quotients[parts]
            elif gamma_rem:
                continue
            # acc holds (sort key, summand) pairs, so sorting it gives the
            # canonical summand order and the object's sort key at once
            key = tuple(sorted(acc))
            obj = tuple.__new__(S2Object, [s for _, s in key])
            # the type is known here, so object_type need not derive it
            obj._type = (beta, quotient)
            found.append((key, obj))
            continue
        if gamma is not None and gamma_rem and gamma_rem[0] > beta_rem[0]:
            continue
        m, rest = beta_rem[0], beta_rem[1:]
        choices = roles.get(m)
        if choices is None:
            choices = roles[m] = [
                ((s.sort_key, s), s.quotient_parts(), s.ambient_parts()[1:]) for s in _roles(m, beta)
            ]
        for pair, quotient, partner in choices:
            if prev is not None and prev[0] == m and pair < prev[1]:
                continue
            # new_rest is None when the bipicket's partner part is no longer in rest
            new_rest = _remove_values(rest, partner)
            new_gamma = gamma_rem + quotient if gamma is None else _remove_values(gamma_rem, quotient)
            if new_rest is None or new_gamma is None:
                continue
            stack.append((new_rest, new_gamma, acc + (pair,), (m, pair)))
    found.sort(key=itemgetter(0))
    return [obj for _, obj in found]
