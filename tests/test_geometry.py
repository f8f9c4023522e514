import hashlib

from hypothesis import given
from hypothesis import strategies as st

from arcdeg import moves
from arcdeg.geometry import (
    _stratum_dim_less_crossings,
    aut_degree,
    hall_degree,
    stratum_dim,
    subspace_orbit_dim,
)
from arcdeg.homcalc import hom_obj
from arcdeg.objects import (
    B2,
    P0,
    P1,
    P2,
    S2Object,
    alpha_of,
    crossings,
    diagram_of_object,
    enumerate_objects,
    object_type,
)
from arcdeg.partitions import Partition
from arcdeg.verify import all_partitions, equivalence_sweep, subpartitions

from test_objects import objects_strategy


def test_stratum_dim_examples():
    top = S2Object.of(P1(4), P1(3), P1(2), P1(1), P2(3))
    assert stratum_dim(top) == 156
    nested = S2Object.of(B2(4, 1), P2(3), P2(3), P0(2))
    assert stratum_dim(nested) == 160
    assert stratum_dim(S2Object.of(P0(1))) == 0
    assert stratum_dim(S2Object.of(P0(2))) == 2


def test_hall_degree_examples():
    assert hall_degree(Partition.of(1), Partition.of(1), Partition()) == 0
    assert hall_degree(Partition.of(2), Partition.of(4, 2), Partition.of(3, 1)) == 1
    assert hall_degree(Partition.of(2, 1, 1, 1, 1), Partition.of(4, 3, 3, 2, 1), Partition.of(3, 2, 1, 1)) == 2


def test_aut_degree_examples():
    assert aut_degree(Partition.of(1)) == 1
    assert aut_degree(Partition.of(2, 2, 2)) == 18
    assert aut_degree(Partition.of(2, 1, 1, 1, 1)) == 26


def test_subspace_orbit_dim_examples():
    assert subspace_orbit_dim(S2Object.of(P1(1))) == 1
    top = S2Object.of(P1(4), P1(3), P1(2), P1(1), P2(3))
    assert subspace_orbit_dim(top) == 28
    assert subspace_orbit_dim(S2Object.of(P0(4), P0(2))) == 0


def stratum_dim_less_crossings_reference(alpha, beta, gamma):
    """The paper's sum of three orbit dimensions: subspace operator,
    ambient operator and embedding, before the crossings."""
    return (
        (alpha.weight() ** 2 - aut_degree(alpha))
        + (beta.weight() ** 2 - aut_degree(beta))
        + (hall_degree(alpha, beta, gamma) + aut_degree(alpha))
    )


def test_closed_forms_match_the_sum_of_orbit_dimensions_up_to_weight_10():
    triples = 0
    for beta in all_partitions(10):
        for gamma in subpartitions(beta):
            size = beta.weight() - gamma.weight()
            # every alpha with parts at most 2 and the right weight, realized or not
            for twos in range(size // 2 + 1):
                alpha = Partition((2,) * twos + (1,) * (size - 2 * twos))
                expected = stratum_dim_less_crossings_reference(alpha, beta, gamma)
                assert _stratum_dim_less_crossings(alpha, beta, gamma) == expected
                triples += 1
    assert triples == 7997


def test_object_dimensions_match_the_sum_of_orbit_dimensions_up_to_weight_8():
    for beta in all_partitions(8)[1:]:
        for obj in enumerate_objects(beta):
            gamma, alpha = object_type(obj)[1], alpha_of(obj)
            x = crossings(diagram_of_object(obj))
            assert stratum_dim(obj) == stratum_dim_less_crossings_reference(alpha, beta, gamma) - x
            assert subspace_orbit_dim(obj) == hall_degree(alpha, beta, gamma) + aut_degree(alpha) - x


def test_dimensions_of_every_object_up_to_weight_8_are_pinned():
    # digest recorded from the orbit dimension's own closed form
    rows = []
    for beta in all_partitions(8):
        for obj in enumerate_objects(beta):
            gamma, alpha = object_type(obj)[1], alpha_of(obj)
            rows.append((stratum_dim(obj), hall_degree(alpha, beta, gamma), aut_degree(alpha), subspace_orbit_dim(obj)))
    assert len(rows) == 911
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "28a804f495fb55892ebf795714b265d8bd8bd0af71521293279c5b7c17f893ba"
    )


@given(objects_strategy)
def test_orbit_stabilizer_identity(obj):
    # the stabilizer of the embedding is Aut(obj), an open subset of End(obj)
    beta = object_type(obj)[0]
    alpha = alpha_of(obj)
    assert subspace_orbit_dim(obj) == aut_degree(alpha) + aut_degree(beta) - hom_obj(obj, obj)


def test_sweep_dimension_identity_catches_crossing_fault(monkeypatch):
    def crossings_with_endpoint_poles(diagram):
        # faulty: a pole at an arc's upper endpoint counts as a crossing
        extra = sum(1 for m, _ in diagram.arcs for p in diagram.poles if p == m)
        return crossings(diagram) + extra

    # the type record takes its crossings from this binding
    monkeypatch.setattr(moves, "crossings", crossings_with_endpoint_poles)
    assert "dimension-identity" in equivalence_sweep(7).failures


@given(st.integers(min_value=0, max_value=60))
def test_unbounded_single_move_gap_family(n):
    arc_side = S2Object.of(B2(3, 1), *(P1(1) for _ in range(n)))
    pole_side = S2Object.of(P1(3), *(P1(1) for _ in range(n + 1)))
    assert object_type(arc_side) == object_type(pole_side)
    assert stratum_dim(arc_side) - stratum_dim(pole_side) == n + 1
