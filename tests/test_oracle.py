import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcdeg.homcalc import hom_obj
from arcdeg.objects import B2, P0, P1, P2, S2Object, enumerate_objects
from arcdeg.oracle import SparseMatrix, oracle_hom_dim, rank_mod_p, realize

from conftest import DESCENT_Y, DESCENT_Z, iter_types, run_python


def dense(matrix: SparseMatrix) -> list[list[int]]:
    """The dense form of a sparse matrix, as a list of rows."""
    return [[row.get(c, 0) for c in range(matrix.ncols)] for row in matrix.rows]


def dense_rank_mod_p(mat: list[list[int]], p: int) -> int:
    """Slow reference: dense row reduction with first-nonzero pivoting."""
    a = [[v % p for v in row] for row in mat]
    rows, cols = len(a), len(a[0]) if a else 0
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col]:
                factor = a[r][col]
                a[r] = [(v - factor * w) % p for v, w in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def matmul_mod(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def test_realize_small_picket():
    r = realize(S2Object.of(P1(2)))
    assert dense(r.amb_op) == [[0, 0], [1, 0]]
    assert dense(r.sub_op) == [[0]]
    assert dense(r.embedding) == [[0], [1]]


def test_realize_zero_subspace():
    r = realize(S2Object.of(P0(3)))
    assert r.sub_dim == 0
    assert r.embedding.shape == (3, 0)


def test_realize_bipicket_embedding():
    r = realize(S2Object.of(B2(3, 1)))
    columns = [list(col) for col in zip(*dense(r.embedding))]
    # generator lands on (first block shifted once, second block generator)
    assert columns[0] == [0, 1, 0, 1]
    assert columns[1] == [0, 0, 1, 0]


def test_realizations_intertwine_and_embed():
    for obj in [
        S2Object.of(B2(5, 2), P1(3)),
        S2Object.of(P2(4), P0(3), P1(1)),
        S2Object.of(B2(6, 4), B2(3, 1), P2(2)),
    ]:
        r = realize(obj)
        for p in (2, 101):
            emb = dense(r.embedding)
            lhs = matmul_mod(dense(r.amb_op), emb, p)
            rhs = matmul_mod(emb, dense(r.sub_op), p)
            assert lhs == rhs
            assert rank_mod_p(r.embedding, p) == r.sub_dim


def sparse(mat: list[list[int]], cols: int) -> SparseMatrix:
    """The sparse form of dense rows of ``cols`` entries each."""
    return SparseMatrix(tuple({c: v for c, v in enumerate(row) if v} for row in mat), cols)


def test_rank_mod_p_cases():
    # determinant -5: singular mod 5, invertible mod 3
    assert rank_mod_p(sparse([[1, 2], [3, 1]], 2), 5) == 1
    assert rank_mod_p(sparse([[1, 2], [3, 1]], 2), 3) == 2
    assert rank_mod_p(sparse([[0, 0], [0, 0], [0, 0]], 2), 7) == 0
    assert rank_mod_p(sparse([[int(i == j) for j in range(4)] for i in range(4)], 4), 2) == 4


def test_oracle_pinned_values():
    assert oracle_hom_dim(S2Object.of(B2(5, 2)), S2Object.of(B2(4, 2)), 101) == 9
    for m in (1, 2, 5):
        for p in (2, 101):
            assert oracle_hom_dim(S2Object.of(P1(m)), S2Object.of(P1(m)), p) == m
    assert oracle_hom_dim(S2Object(), S2Object.of(P2(3)), 2) == 0
    assert oracle_hom_dim(S2Object(), S2Object(), 2) == 0


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


def test_oracle_system_keeps_one_row_per_condition_entry(monkeypatch):
    """Three row blocks, zero rows included: the entries of the two
    intertwining conditions and of the compatibility square."""
    import arcdeg.oracle

    shapes = []

    def recording(mat, p):
        shapes.append(mat.shape)
        return rank_mod_p(mat, p)

    monkeypatch.setattr(arcdeg.oracle, "rank_mod_p", recording)
    pairs = [
        (DESCENT_Y, DESCENT_Z),
        (S2Object.of(P0(3)), S2Object.of(P1(2))),
        (S2Object.of(B2(5, 2)), S2Object.of(P2(4))),
    ]
    for x, y in pairs:
        rx, ry = realize(x), realize(y)
        n1, n2 = ry.sub_dim * rx.sub_dim, ry.amb_dim * rx.amb_dim
        oracle_hom_dim(x, y, 2)
        assert shapes.pop() == (n1 + n2 + ry.amb_dim * rx.sub_dim, n1 + n2)


def test_oracle_rejects_bad_prime():
    pairs = [(S2Object.of(P1(1)), S2Object.of(B2(3, 1))), (S2Object(), S2Object())]
    for p in (1, 4, 91):
        for x, y in pairs:
            with pytest.raises(ValueError, match="prime"):
                oracle_hom_dim(x, y, p)
        with pytest.raises(ValueError, match="prime"):
            rank_mod_p(sparse([[1, 0], [0, 1]], 2), p)
    # a prime past the int64 range of products: Python ints do not overflow
    assert oracle_hom_dim(DESCENT_Y, DESCENT_Z, 4_000_000_007) == hom_obj(DESCENT_Y, DESCENT_Z) == 131


def test_oracle_endomorphisms_match_table_up_to_weight_6():
    objects = [o for beta, gamma in iter_types(6) for o in enumerate_objects(beta, gamma)]
    assert len(objects) == 234
    for obj in objects:
        assert oracle_hom_dim(obj, obj, 101) == hom_obj(obj, obj), obj.to_text()


def test_library_runs_without_numpy():
    script = (
        "import sys\n"
        "import arcdeg\n"
        "from arcdeg.verify import equivalence_sweep\n"
        "x, y = arcdeg.S2Object.from_text('B(5,2)'), arcdeg.S2Object.from_text('B(4,2)')\n"
        "assert arcdeg.oracle_hom_dim(x, y, 101) == 9\n"
        "assert equivalence_sweep(4).ok\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@st.composite
def matrices(draw):
    """Small integer matrices, wide or tall, with some zero rows and
    columns, and often rank-deficient: some rows are combinations of
    others."""
    rows = draw(st.integers(min_value=0, max_value=9))
    cols = draw(st.integers(min_value=0, max_value=9))
    entries = st.integers(min_value=-20_000, max_value=20_000)
    mat = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for r in draw(st.lists(st.integers(0, 8), max_size=3)):
        if r < rows:
            mat[r] = [0] * cols
    for c in draw(st.lists(st.integers(0, 8), max_size=3)):
        if c < cols:
            for row in mat:
                row[c] = 0
    if rows >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        mat[rows - 1] = [a * u + b * v for u, v in zip(mat[0], mat[1])]
    return cols, mat


@settings(max_examples=200, deadline=None)
@given(matrices(), st.sampled_from((2, 3, 101, 10007)))
def test_sparse_rank_matches_dense_reference(shaped, p):
    cols, mat = shaped
    matrix = sparse(mat, cols)
    assert dense(matrix) == mat
    assert rank_mod_p(matrix, p) == dense_rank_mod_p(mat, p)
