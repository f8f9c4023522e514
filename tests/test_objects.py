import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcdeg.errors import InconsistentDiagram
from arcdeg.objects import (
    B2,
    P0,
    P1,
    P2,
    ArcDiagram,
    Indecomposable,
    S2Object,
    alpha_of,
    arc_summands,
    crossings,
    diagram_of_object,
    enumerate_objects,
    object_of_diagram,
    object_type,
)
from arcdeg.moves import MOVE_ARITY, Move, ses_witness, unit_pair
from arcdeg.partitions import Partition
from arcdeg.verify import all_partitions, subpartitions

from conftest import canonical_summands, iter_types, object_key

# the running classification example: every summand kind at once
MIXED = S2Object.of(B2(5, 3), B2(4, 2), P2(5), P0(2), P2(3), P1(3), P0(1), P1(1))


def indecomposables(max_m=7):
    singles = [P0(m) for m in range(1, max_m + 1)]
    singles += [P1(m) for m in range(1, max_m + 1)]
    singles += [P2(m) for m in range(2, max_m + 1)]
    singles += [B2(m, r) for m in range(3, max_m + 1) for r in range(1, m - 1)]
    return singles


objects_strategy = st.lists(st.sampled_from(indecomposables()), max_size=6).map(
    lambda xs: S2Object(tuple(xs))
)


def test_indecomposable_validation():
    with pytest.raises(ValueError):
        B2(4, 3)  # the boundary parameter is the pair P2(4) + P0(3), not a summand
    with pytest.raises(ValueError):
        B2(3, 0)
    with pytest.raises(ValueError):
        P2(1)
    with pytest.raises(ValueError):
        P0(0)
    with pytest.raises(ValueError):
        Indecomposable("Q1", 3)
    with pytest.raises(ValueError):
        Indecomposable("P1", 3, 1)  # pickets take a single parameter
    # parameters are integers: not floats, strings or bools
    for kind, m, r in (("P1", 2.5, 0), ("B2", 5.0, 3), ("B2", 5, 3.0), ("P0", "3", 0), ("P1", True, 0)):
        with pytest.raises(ValueError):
            Indecomposable(kind, m, r)


def test_arc_summands_refuse_arcs_without_m_above_r_above_0():
    assert arc_summands(5, 4) == (P2(5), P0(4)) and arc_summands(5, 3) == (B2(5, 3),)
    for m, r in ((3, 3), (2, 5), (2, 0)):
        with pytest.raises(ValueError) as raised:
            arc_summands(m, r)
        assert str(raised.value) == f"arc ({m},{r}) needs m > r >= 1"


def test_interned_constructors_refuse_what_the_check_refuses():
    # each bad call raises the check's message twice in a row, both before
    # and after the good summand that it equals in hash was built and kept
    cases = [
        (P1, (True,), (1,), "P1 takes integer parameters, got True, 0"),
        (B2, (5.0, 3), (5, 3), "B2 takes integer parameters, got 5.0, 3"),
        (B2, (5, True), (5, 1), "B2 takes integer parameters, got 5, True"),
        (B2, (5, True), (5, 3), "B2 takes integer parameters, got 5, True"),
        (P0, (1.0,), (1,), "P0 takes integer parameters, got 1.0, 0"),
        (P2, (1,), None, "P2(1) is out of range"),
        (B2, (4, 3), None, "B2(4,3) needs 1 <= r <= m-2"),
        (P0, ("3",), None, "P0 takes integer parameters, got '3', 0"),
    ]
    for make, bad, good, message in cases:
        make.cache_clear()
        for built in (None, good):
            if built:
                assert make(*built) == Indecomposable(make.__name__, *built)
            for _ in range(2):
                with pytest.raises(ValueError) as raised:
                    make(*bad)
                assert str(raised.value) == message
            assert make.cache_info().currsize == (1 if built else 0)
    assert P1(1) is P1(1) and B2(5, 3) is B2(5, 3)


def test_arc_diagram_validation():
    with pytest.raises(ValueError):
        ArcDiagram(((3, 3),))
    with pytest.raises(ValueError):
        ArcDiagram((), (0,))
    with pytest.raises(ValueError):
        ArcDiagram((), (), (1,))
    for arcs, poles, loops in ((((3.0, 1),), (), ()), (((3, True),), (), ()), ((), (2.0,), ()), ((), (True,), ()), ((), (), (3.5,))):
        with pytest.raises(ValueError):
            ArcDiagram(arcs, poles, loops)
    d = ArcDiagram(((4, 2), (5, 1)), (1, 3), (2, 5))
    assert d.arcs == ((5, 1), (4, 2)) and d.poles == (3, 1) and d.loops == (5, 2)


def test_summands_and_diagrams_are_their_own_keys():
    assert repr(B2(5, 3)) == "Indecomposable(kind='B2', m=5, r=3)"
    assert repr(P1(2)) == "Indecomposable(kind='P1', m=2, r=0)"
    d = ArcDiagram([(5, 3)], [2], [4])
    assert repr(d) == "ArcDiagram(arcs=((5, 3),), poles=(2,), loops=(4,))"
    # the sweep's failure messages look diagrams up by plain move targets
    for value, plain in ((B2(5, 3), ("B2", 5, 3)), (d, (((5, 3),), (2,), (4,)))):
        assert value == plain and hash(value) == hash(plain)
        assert {value: 1}[plain] == 1


def test_object_type_examples():
    beta, gamma = object_type(MIXED)
    assert beta == Partition.of(5, 5, 4, 3, 3, 3, 2, 2, 1, 1)
    assert gamma == Partition.of(4, 3, 3, 2, 2, 2, 1, 1, 1)
    for m in (1, 2, 5):
        assert object_type(S2Object.of(P0(m))) == (Partition.of(m), Partition.of(m))
    assert object_type(S2Object.of(P1(1))) == (Partition.of(1), Partition())


def test_alpha_of_examples():
    obj = S2Object.of(B2(6, 3), B2(5, 1), P1(7), P1(4), P1(2))
    assert alpha_of(obj) == Partition.of(2, 2, 1, 1, 1)
    assert alpha_of(S2Object.of(P0(3), P0(1))) == Partition()
    assert alpha_of(S2Object.of(P2(5), P0(4))) == Partition.of(2)


def test_diagram_of_object_examples():
    d = diagram_of_object(MIXED)
    assert d == ArcDiagram([(5, 3), (4, 2), (3, 2)], [3, 1], [5])
    obj = S2Object.of(P1(7), P1(4), P1(2), B2(6, 3), B2(5, 1))
    assert diagram_of_object(obj) == ArcDiagram([(6, 3), (5, 1)], [7, 4, 2], [])
    assert diagram_of_object(S2Object.of(P0(4), P0(2))) == ArcDiagram()


def test_greedy_pairing_is_maximal():
    obj = S2Object.of(P2(3), P2(3), P0(2))
    assert diagram_of_object(obj) == ArcDiagram([(3, 2)], [], [3])


def test_object_of_diagram_examples():
    assert object_of_diagram(
        ArcDiagram([(2, 1)]), Partition.of(2, 1), Partition.of(1)
    ) == S2Object.of(P2(2), P0(1))
    assert object_of_diagram(
        ArcDiagram(), Partition.of(3, 1), Partition.of(3, 1)
    ) == S2Object.of(P0(3), P0(1))
    with pytest.raises(InconsistentDiagram) as missing:
        object_of_diagram(ArcDiagram([], [3]), Partition.of(2, 1), Partition.of(1))
    assert str(missing.value) == "diagram needs an ambient part 3 not available in 2,1"
    with pytest.raises(InconsistentDiagram) as wrong:
        # parts exist but the quotient type comes out wrong
        object_of_diagram(ArcDiagram([], [2]), Partition.of(2, 1), Partition.of(2))
    assert str(wrong.value) == "diagram completes to type (2,1;1,1), not (2,1;2)"


def object_of_diagram_reference(diagram, beta, gamma):
    """The two-pass round trip the one-pass ``object_of_diagram`` replaced:
    build every summand first, then read its ambient and quotient parts."""
    summands = [s for m, r in diagram.arcs for s in arc_summands(m, r)]
    summands.extend(P2(q) for q in diagram.loops)
    summands.extend(P1(p) for p in diagram.poles)

    remaining = list(beta)
    for s in summands:
        for part in s.ambient_parts():
            try:
                remaining.remove(part)
            except ValueError:
                raise InconsistentDiagram(
                    f"diagram needs an ambient part {part} not available in {beta.to_text() or '()'}"
                ) from None
    summands.extend(P0(w) for w in remaining)
    got_gamma = Partition([p for s in summands for p in s.quotient_parts()])
    if got_gamma != gamma:
        raise InconsistentDiagram(
            f"diagram completes to type ({beta.to_text()};{got_gamma.to_text()}), "
            f"not ({beta.to_text()};{gamma.to_text()})"
        )
    obj = S2Object(summands)
    obj._type = (beta, gamma)
    return obj


def round_trip_outcome(build, diagram, beta, gamma):
    """The object with its kept type, or the error text."""
    try:
        obj = build(diagram, beta, gamma)
    except InconsistentDiagram as err:
        return str(err)
    return type(obj), obj, obj._type


def test_object_of_diagram_matches_the_reference_up_to_weight_8():
    count = 0
    for beta in all_partitions(8)[1:]:
        for obj in enumerate_objects(beta):
            gamma = object_type(obj)[1]
            outcome = round_trip_outcome(object_of_diagram, diagram_of_object(obj), beta, gamma)
            assert outcome == round_trip_outcome(object_of_diagram_reference, diagram_of_object(obj), beta, gamma)
            assert outcome == (S2Object, obj, (beta, gamma))
            count += 1
    assert count == 910


def perturbed_diagrams(d, max_point):
    """Each diagram one edit away from d: one arc, pole or loop dropped,
    one pole moved to another point in 1..max_point, one loop turned
    into a pole."""
    def without(group, i):
        return group[:i] + group[i + 1 :]

    for i in range(len(d.arcs)):
        yield ArcDiagram(without(d.arcs, i), d.poles, d.loops)
    for i, p in enumerate(d.poles):
        yield ArcDiagram(d.arcs, without(d.poles, i), d.loops)
        for q in range(1, max_point + 1):
            if q != p:
                yield ArcDiagram(d.arcs, without(d.poles, i) + (q,), d.loops)
    for i, q in enumerate(d.loops):
        yield ArcDiagram(d.arcs, d.poles, without(d.loops, i))
        yield ArcDiagram(d.arcs, d.poles + (q,), without(d.loops, i))


def test_object_of_diagram_matches_the_reference_on_perturbed_diagrams():
    outcomes = Counter()
    for beta, gamma in iter_types(6):
        for obj in enumerate_objects(beta, gamma):
            for d in perturbed_diagrams(diagram_of_object(obj), beta.max_part + 1):
                outcome = round_trip_outcome(object_of_diagram, d, beta, gamma)
                assert outcome == round_trip_outcome(object_of_diagram_reference, d, beta, gamma), d
                kind = outcome.split()[1] if isinstance(outcome, str) else "object"
                outcomes[kind] += 1
                if kind == "completes":
                    # and again at the quotient type the diagram completes to
                    completed = Partition.from_text(outcome.split(";")[1].split(")")[0])
                    again = round_trip_outcome(object_of_diagram, d, beta, completed)
                    assert again == round_trip_outcome(object_of_diagram_reference, d, beta, completed), d
                    assert again[0] is S2Object and again[1:] == (S2Object(again[1]), (beta, completed)), again
                    outcomes["object"] += 1
    # every kind of outcome occurs
    assert set(outcomes) == {"object", "needs", "completes"}, outcomes


def test_object_of_diagram_names_the_first_missing_part():
    # arcs, then loops, then poles: 5 is the first part that 1 lacks
    with pytest.raises(InconsistentDiagram) as err:
        object_of_diagram(ArcDiagram([(5, 4)], [6], [7]), Partition.of(1), Partition())
    assert str(err.value) == "diagram needs an ambient part 5 not available in 1"
    with pytest.raises(InconsistentDiagram) as err:
        object_of_diagram(ArcDiagram([], [6], [7]), Partition.of(1), Partition())
    assert str(err.value) == "diagram needs an ambient part 7 not available in 1"
    with pytest.raises(InconsistentDiagram) as err:
        object_of_diagram(ArcDiagram([(3, 1)], [], []), Partition.of(3), Partition())
    assert str(err.value) == "diagram needs an ambient part 1 not available in 3"


def test_crossings_examples():
    assert crossings(ArcDiagram([(4, 3), (2, 1)], [], [3])) == 0
    assert crossings(ArcDiagram([(4, 1), (3, 2)], [], [3])) == 0
    assert crossings(ArcDiagram([(4, 1)], [3, 2], [3])) == 2
    assert crossings(diagram_of_object(MIXED)) == 2


def test_crossings_multiplicity_and_shared_endpoints():
    # doubled arcs never cross each other; a doubled pole counts twice
    assert crossings(ArcDiagram([(4, 1), (4, 1)], [], [])) == 0
    assert crossings(ArcDiagram([(4, 1)], [2, 2], [])) == 2
    assert crossings(ArcDiagram([(4, 2), (2, 1)], [], [])) == 0  # shared endpoint


def test_enumerate_objects_counts():
    assert len(enumerate_objects(Partition.of(4, 3, 3, 2, 1), Partition.of(3, 2, 1, 1))) == 10
    assert len(enumerate_objects(Partition.of(3, 3, 2, 1), Partition.of(2, 2, 1))) == 5
    two = enumerate_objects(Partition.of(2, 1), Partition.of(1))
    assert two == [S2Object.of(P2(2), P0(1)), S2Object.of(P1(2), P1(1))]


def test_enumerate_objects_unrealizable_type_is_empty():
    assert enumerate_objects(Partition.of(4), Partition.of(1)) == []


def test_enumerate_per_beta_matches_per_type_up_to_weight_9():
    # one enumeration of an ambient type, grouped by quotient type, gives
    # each type's list in its own order, with the same kept type
    types = realizable = 0
    for beta in all_partitions(9):
        everything = enumerate_objects(beta)
        assert len(set(everything)) == len(everything)
        buckets = {}
        for obj in everything:
            assert obj._type[0] is beta
            buckets.setdefault(obj._type[1], []).append(obj)
        for gamma in subpartitions(beta):
            types += 1
            expected = enumerate_objects(beta, gamma)
            got = buckets.pop(gamma, [])
            assert got == expected
            assert [o._type for o in got] == [o._type for o in expected]
            realizable += bool(expected)
        # every object has a quotient type inside beta
        assert not buckets
    assert (types, realizable) == (1592, 1200)


def test_enumerate_per_beta_keeps_canonical_order():
    everything = enumerate_objects(Partition.of(5, 4, 3, 2, 1))
    assert everything == sorted(everything, key=object_key)
    assert len(everything) == 314
    assert everything[0] == S2Object.of(B2(5, 3), B2(4, 2), P1(1))
    assert enumerate_objects(Partition()) == [S2Object()]


def test_enumerate_against_direct_generation():
    # independent oracle: build all objects over a small summand pool and
    # group by type
    beta, gamma = Partition.of(3, 2, 1), Partition.of(2, 1)
    pool = indecomposables(max_m=3)
    found = set()

    def gen(idx, acc, remaining):
        obj = S2Object(tuple(acc))
        if object_type(obj) == (beta, gamma):
            found.add(obj)
        for i in range(idx, len(pool)):
            w = sum(pool[i].ambient_parts())
            if w <= remaining:
                acc.append(pool[i])
                gen(i, acc, remaining - w)
                acc.pop()

    gen(0, [], beta.weight())
    assert set(enumerate_objects(beta, gamma)) == found


@given(objects_strategy)
def test_diagram_round_trip(obj):
    beta, gamma = object_type(obj)
    assert object_of_diagram(diagram_of_object(obj), beta, gamma) == obj


@given(objects_strategy)
def test_type_weights_split(obj):
    beta, gamma = object_type(obj)
    assert beta.weight() == gamma.weight() + alpha_of(obj).weight()


@given(objects_strategy, st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=8))
def test_crossings_ignore_loops_and_invisible_summands(obj, m, w):
    # an extra P2 becomes a loop or a boundary arc (m, m-1), an extra P0
    # is invisible or completes a boundary arc; neither can ever cross
    base = crossings(diagram_of_object(obj))
    assert crossings(diagram_of_object(S2Object(obj + (P2(m),)))) == base
    assert crossings(diagram_of_object(S2Object(obj + (P0(w),)))) == base


def test_fixed_type_injectivity():
    beta, gamma = Partition.of(4, 3, 3, 2, 1), Partition.of(3, 2, 1, 1)
    objs = enumerate_objects(beta, gamma)
    diagrams = [diagram_of_object(o) for o in objs]
    assert len(set(diagrams)) == len(objs)


def test_text_round_trips():
    text = MIXED.to_text()
    assert S2Object.from_text(text) == MIXED
    assert S2Object.from_text("B2(5,3)") == S2Object.from_text("B(5,3)")
    assert S2Object.from_text("") == S2Object()
    # diagrams are printed, never parsed
    assert diagram_of_object(MIXED).to_text() == "arcs:5-3,4-2,3-2; poles:3,1; loops:5"
    assert ArcDiagram().to_text() == "arcs:; poles:; loops:"
    with pytest.raises(ValueError):
        S2Object.from_text("Q(3)")


def _fresh_type(obj):
    """object_type recomputed from the summands, without the kept field."""
    beta = [p for s in obj for p in s.ambient_parts()]
    gamma = [p for s in obj for p in s.quotient_parts()]
    return Partition(tuple(beta)), Partition(tuple(gamma))


def test_kept_object_type_matches_a_fresh_computation():
    beta, gamma = Partition.of(5, 4, 3, 2, 1), Partition.of(4, 2, 1)
    sources = [S2Object.from_text(MIXED.to_text()), S2Object.from_text("")]
    sources += enumerate_objects(beta, gamma)
    sources += [object_of_diagram(diagram_of_object(o), beta, gamma) for o in enumerate_objects(beta, gamma)]
    sources += [o for b, g in iter_types(6) for o in enumerate_objects(b, g)]
    # object_of_diagram keeps the type it was given, as enumerate_objects does
    sources += [
        object_of_diagram(diagram_of_object(o), b, g) for b, g in iter_types(8) for o in enumerate_objects(b, g)
    ]
    assert len(sources) > 2
    for obj in sources:
        first = object_type(obj)
        assert obj._type is first
        assert object_type(obj) is first
        assert first == _fresh_type(obj)


@given(objects_strategy)
def test_kept_object_type_leaves_equality_hash_and_text_alone(obj):
    twin = S2Object(obj)
    object_type(obj)
    assert obj._type is not None and twin._type is None
    assert obj == twin and hash(obj) == hash(twin)
    assert obj.to_text() == twin.to_text() and repr(obj) == repr(twin)
    assert object_type(twin) == object_type(obj) == _fresh_type(obj)


def test_every_construction_path_gives_the_canonical_tuple():
    # an object is the tuple of its summands in canonical order, whichever
    # constructor built it, the enumerator's bypass included
    objects = []
    for beta in all_partitions(8):
        everything = enumerate_objects(beta)
        objects += everything
        for gamma in subpartitions(beta):
            objects += [object_of_diagram(diagram_of_object(o), beta, gamma) for o in enumerate_objects(beta, gamma)]
        objects += [S2Object.from_text(o.to_text()) for o in everything]
    # extra summands given against the canonical order
    context = (P0(1), P1(3), B2(7, 2))
    for kind, k in MOVE_ARITY.items():
        for points in combinations(range(7, 0, -1), k):
            move = Move(kind, points)
            objects += [*ses_witness(move), *unit_pair(move), *unit_pair(move, context)]
    assert len(objects) > 3000
    zeros = 0
    for o in objects:
        assert type(o) is S2Object
        assert o == canonical_summands(o)
        assert o == tuple(o) and hash(o) == hash(tuple(o))
        counts = Counter(o)
        assert all(o.count(x) == counts[x] for x in (*counts, P0(9)))
        assert bool(o) == (len(o) > 0)
        zeros += not o
    assert zeros == 3


def test_object_constructor_orders_summands_as_the_sort_key_reference():
    # three seeded shuffles of every object up to weight 10, and of inputs
    # with only bipickets, with none and with no summand at all
    inputs = [[], [B2(5, 3), B2(7, 2), B2(5, 3), B2(7, 4)], [P0(1), P2(4), P1(4), P0(4), P2(2), P1(7)]]
    for beta in all_partitions(10)[1:]:
        inputs += [list(o) for o in enumerate_objects(beta)]
    assert len(inputs) == 3 + 3169
    rng = random.Random(34)
    for summands in inputs:
        for _ in range(3):
            rng.shuffle(summands)
            obj = S2Object(summands)
            assert type(obj) is S2Object and obj == canonical_summands(summands)


def test_diagram_of_object_is_the_canonical_diagram():
    # a boundary arc (5, 4) falls between the bipicket arcs (6, 2) and (5, 1)
    split = S2Object.of(B2(6, 2), P2(5), P0(4), B2(5, 1))
    assert diagram_of_object(split).arcs == ((6, 2), (5, 4), (5, 1))
    objects = [split]
    for beta in all_partitions(10)[1:]:
        objects += enumerate_objects(beta)
    for n in (6, 7, 8):
        objects += enumerate_objects(Partition(range(n, 0, -1)), Partition(range(n - 1, 0, -1)))
    for obj in objects:
        d = diagram_of_object(obj)
        assert type(d) is ArcDiagram and d == ArcDiagram(*d)
        assert all(type(group) is tuple for group in d)
