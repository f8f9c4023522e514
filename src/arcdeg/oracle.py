"""Independent verification of the Hom-dimension table.

Objects are realized as explicit nilpotent block-Jordan matrices
together with the embedding of the invariant subspace.  Their entries
are 0 and 1, so the same matrices serve over every field.  The
dimension of a morphism space is the corank of the linear system
expressing the two intertwining conditions and the compatibility
square, and the prime field enters only there, at the rank.  All
arithmetic is exact: matrices are sparse rows of Python ints, and the
rank comes from row reduction mod p against one pivot row per leading
column.  No floating point is involved anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import isqrt

from .objects import S2Object


class SparseMatrix(namedtuple("SparseMatrix", "rows ncols")):
    """An integer matrix with ``ncols`` columns, stored as ``rows``, one
    dict per row that maps a column index to its nonzero entry."""

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.ncols


def _jordan_nilpotent(parts: Sequence[int]) -> SparseMatrix:
    """Block-diagonal nilpotent matrix with one lower-shift block per part."""
    rows: list[dict[int, int]] = []
    for m in parts:
        offset = len(rows)
        rows.append({})
        rows.extend({offset + i: 1} for i in range(m - 1))
    return SparseMatrix(tuple(rows), len(rows))


class RealizedObject(namedtuple("RealizedObject", "sub_op amb_op embedding")):
    """Concrete 0/1 matrices for one object.

    ``sub_op`` and ``amb_op`` are the nilpotent operators on the subspace
    and the ambient space; ``embedding`` is the injective intertwiner
    between them.
    """

    __slots__ = ()

    @property
    def sub_dim(self) -> int:
        return self.sub_op.shape[0]

    @property
    def amb_dim(self) -> int:
        return self.amb_op.shape[0]


def _summand_embedding(
    kind: str, m: int, r: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(subspace parts, ambient parts, (row, column) positions of the
    embedding block's ones) for one summand.

    A picket of height l embeds as the unique invariant l-dimensional
    subspace of a single Jordan block (the generator maps to the
    (m - l)-th power of the operator applied to the block generator); a
    bipicket embeds its 2-dimensional subspace diagonally into the two
    blocks, the generator landing on the pair of powers (m - 2, r - 1).
    """
    if kind == "P0":
        return (), (m,), ()
    if kind in ("P1", "P2"):
        ell = 1 if kind == "P1" else 2
        return (ell,), (m,), tuple((m - ell + j, j) for j in range(ell))
    # B2: basis of the subspace is (generator, its image); the generator
    # lands on the pair of powers (m - 2, r - 1) of the block generators,
    # its image on (m - 1, r) where the small-block component dies.
    return (2,), (m, r), ((m - 2, 0), (m + r - 1, 0), (m - 1, 1))


def _require_prime(p: int) -> None:
    # trial division takes sqrt(p) steps, about 10**6 below the bound
    if not 2 <= p < 2**40 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"the field size must be a prime below 2**40, got {p}")


def realize(obj: S2Object) -> RealizedObject:
    """Block-diagonal realization of an object."""
    sub_parts: list[int] = []
    amb_parts: list[int] = []
    ones: list[tuple[int, int]] = []
    for s in obj:
        sp, ap, block = _summand_embedding(*s)
        row, col = sum(amb_parts), sum(sub_parts)
        ones.extend((row + i, col + j) for i, j in block)
        sub_parts.extend(sp)
        amb_parts.extend(ap)
    embedding: list[dict[int, int]] = [{} for _ in range(sum(amb_parts))]
    for i, j in ones:
        embedding[i][j] = 1
    return RealizedObject(
        sub_op=_jordan_nilpotent(sub_parts),
        amb_op=_jordan_nilpotent(amb_parts),
        embedding=SparseMatrix(tuple(embedding), sum(sub_parts)),
    )


def rank_mod_p(mat: SparseMatrix, p: int) -> int:
    """Rank over F_p of a sparse matrix.

    Each row becomes a dict of its nonzero entries mod p and is reduced,
    left to right, against the pivot rows found so far, one pivot per
    leading column.  Raises ValueError unless p is a prime below 2**40."""
    _require_prime(p)
    pivots: dict[int, dict[int, int]] = {}
    for entries in mat.rows:
        row = {c: v % p for c, v in entries.items() if v % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivot.items():
                value = (row.get(c, 0) - factor * v) % p
                if value:
                    row[c] = value
                else:
                    del row[c]
    return len(pivots)


def _commuting_rows(a: SparseMatrix, b: SparseMatrix, u_offset: int, v_offset: int) -> list[dict[int, int]]:
    """One row per entry (i, j) of ``a @ U - V @ b``, in row-major order,
    over unknowns numbered row-major: U (``a.ncols`` by ``b.ncols``) from
    ``u_offset`` and V (rows of ``a`` by rows of ``b``) from ``v_offset``.
    A row with no entries stays.  The two terms never share an unknown:
    either U and V are disjoint, or they coincide and ``a`` and ``b`` are
    nilpotent Jordan matrices, whose diagonals are zero."""
    u_width, v_width = b.ncols, len(b.rows)
    b_cols: list[dict[int, int]] = [{} for _ in range(u_width)]
    for k, b_row in enumerate(b.rows):
        for j, v in b_row.items():
            b_cols[j][k] = v
    rows = []
    for i, a_row in enumerate(a.rows):
        v_row = v_offset + i * v_width
        for j, b_col in enumerate(b_cols):
            row = {u_offset + k * u_width + j: v for k, v in a_row.items()}
            row.update((v_row + k, -v) for k, v in b_col.items())
            rows.append(row)
    return rows


def oracle_hom_dim(x: S2Object, y: S2Object, p: int) -> int:
    """Dimension over F_p of the space of morphisms from x to y,
    computed from the realized matrices.

    A morphism is a pair (h1, h2) with h1 intertwining the subspace
    operators, h2 intertwining the ambient operators, and the square
    with the two embeddings commuting.
    """
    rx, ry = realize(x), realize(y)
    n1 = ry.sub_dim * rx.sub_dim
    unknowns = n1 + ry.amb_dim * rx.amb_dim
    system = SparseMatrix(
        tuple(
            # sub_op_y @ h1 - h1 @ sub_op_x = 0
            _commuting_rows(ry.sub_op, rx.sub_op, 0, 0)
            # amb_op_y @ h2 - h2 @ amb_op_x = 0
            + _commuting_rows(ry.amb_op, rx.amb_op, n1, n1)
            # embedding_y @ h1 - h2 @ embedding_x = 0
            + _commuting_rows(ry.embedding, rx.embedding, 0, n1)
        ),
        unknowns,
    )
    return unknowns - rank_mod_p(system, p)
