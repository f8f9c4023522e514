import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcdeg.homcalc import hom_obj
from arcdeg.objects import B2, P0, P1, P2, S2Object, enumerate_objects
from arcdeg.oracle import oracle_hom_dim, rank_mod_p, realize
from arcdeg.verify import iter_types


def dense_rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Slow reference: dense row reduction with first-nonzero pivoting."""
    a = (mat % p).astype(np.int64)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), -1, p)
        a[rank] = (a[rank] * inv) % p
        for r in range(rows):
            if r != rank and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def test_realize_small_picket():
    r = realize(S2Object.of(P1(2)), 5)
    assert r.amb_op.tolist() == [[0, 0], [1, 0]]
    assert r.sub_op.tolist() == [[0]]
    assert r.embedding.tolist() == [[0], [1]]


def test_realize_zero_subspace():
    r = realize(S2Object.of(P0(3)), 2)
    assert r.sub_dim == 0
    assert r.embedding.shape == (3, 0)


def test_realize_bipicket_embedding():
    r = realize(S2Object.of(B2(3, 1)), 7)
    # generator lands on (first block shifted once, second block generator)
    assert r.embedding[:, 0].tolist() == [0, 1, 0, 1]
    assert r.embedding[:, 1].tolist() == [0, 0, 1, 0]


def test_realizations_intertwine_and_embed():
    for obj in [
        S2Object.of(B2(5, 2), P1(3)),
        S2Object.of(P2(4), P0(3), P1(1)),
        S2Object.of(B2(6, 4), B2(3, 1), P2(2)),
    ]:
        for p in (2, 101):
            r = realize(obj, p)
            lhs = (r.amb_op @ r.embedding) % p
            rhs = (r.embedding @ r.sub_op) % p
            assert np.array_equal(lhs, rhs)
            assert rank_mod_p(r.embedding, p) == r.sub_dim


def test_rank_mod_p_cases():
    # determinant -5: singular mod 5, invertible mod 3
    assert rank_mod_p(np.array([[1, 2], [3, 1]]), 5) == 1
    assert rank_mod_p(np.array([[1, 2], [3, 1]]), 3) == 2
    assert rank_mod_p(np.zeros((3, 2), dtype=int), 7) == 0
    assert rank_mod_p(np.eye(4, dtype=int), 2) == 4


def test_oracle_pinned_values():
    assert oracle_hom_dim(S2Object.of(B2(5, 2)), S2Object.of(B2(4, 2)), 101) == 9
    for m in (1, 2, 5):
        for p in (2, 101):
            assert oracle_hom_dim(S2Object.of(P1(m)), S2Object.of(P1(m)), p) == m
    assert oracle_hom_dim(S2Object(), S2Object.of(P2(3)), 2) == 0


def test_oracle_matches_table_on_sample():
    sample = [P0(4), P1(3), P2(5), B2(4, 1), B2(5, 3), B2(6, 2)]
    for x in sample:
        for y in sample:
            ox, oy = S2Object.of(x), S2Object.of(y)
            expected = hom_obj(ox, oy)
            for p in (2, 101):
                assert oracle_hom_dim(ox, oy, p) == expected


def test_oracle_on_decomposable_objects():
    x = S2Object.of(B2(4, 2), P1(3))
    y = S2Object.of(P2(5), P0(1), P1(2))
    for p in (2, 101):
        assert oracle_hom_dim(x, y, p) == hom_obj(x, y)
        assert oracle_hom_dim(y, x, p) == hom_obj(y, x)


def test_realize_rejects_bad_prime():
    x = S2Object.of(P1(1))
    for p in (1, 4, 91):
        with pytest.raises(ValueError):
            realize(x, p)
    # (p - 1)**2 would overflow the int64 elimination
    with pytest.raises(ValueError):
        oracle_hom_dim(x, x, 4_000_000_007)
    with pytest.raises(ValueError):
        rank_mod_p(np.eye(2, dtype=int), 4)


def test_oracle_endomorphisms_match_table_up_to_weight_6():
    objects = [o for beta, gamma in iter_types(6) for o in enumerate_objects(beta, gamma)]
    assert len(objects) == 234
    for obj in objects:
        assert oracle_hom_dim(obj, obj, 101) == hom_obj(obj, obj), obj.to_text()


@st.composite
def matrices(draw):
    """Small integer matrices, wide or tall, with some zero rows and
    columns, and often rank-deficient: some rows are combinations of
    others."""
    rows = draw(st.integers(min_value=0, max_value=9))
    cols = draw(st.integers(min_value=0, max_value=9))
    entries = st.integers(min_value=-20_000, max_value=20_000)
    mat = np.array(
        [[draw(entries) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    ).reshape(rows, cols)
    for r in draw(st.lists(st.integers(0, 8), max_size=3)):
        if r < rows:
            mat[r] = 0
    for c in draw(st.lists(st.integers(0, 8), max_size=3)):
        if c < cols:
            mat[:, c] = 0
    if rows >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        mat[rows - 1] = a * mat[0] + b * mat[1]
    return mat


@settings(max_examples=200, deadline=None)
@given(matrices(), st.sampled_from((2, 3, 101, 10007)))
def test_sparse_rank_matches_dense_reference(mat, p):
    assert rank_mod_p(mat, p) == dense_rank_mod_p(mat, p)

