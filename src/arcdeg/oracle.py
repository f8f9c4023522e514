"""Independent verification of the Hom-dimension table.

Objects are realized as explicit nilpotent block-Jordan matrices over a
small prime field together with the embedding of the invariant
subspace; the dimension of a morphism space is then the corank of the
linear system expressing the two intertwining conditions and the
compatibility square.  All arithmetic is exact: the system's nonzero
entries become sparse rows of Python ints mod p, and the rank comes
from row reduction against one pivot row per leading column.  No
floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .objects import S2Object
from .partitions import Partition


def _jordan_nilpotent(parts: tuple[int, ...]) -> np.ndarray:
    """Block-diagonal nilpotent matrix with one lower-shift block per part."""
    n = sum(parts)
    mat = np.zeros((n, n), dtype=np.int64)
    offset = 0
    for m in parts:
        for i in range(m - 1):
            mat[offset + i + 1, offset + i] = 1
        offset += m
    return mat


@dataclass(frozen=True)
class RealizedObject:
    """Concrete matrices over F_p for one object.

    ``sub_op`` and ``amb_op`` are the nilpotent operators on the subspace
    and the ambient space; ``embedding`` is the injective intertwiner
    between them.
    """

    sub_op: np.ndarray
    amb_op: np.ndarray
    embedding: np.ndarray
    prime: int

    @property
    def sub_dim(self) -> int:
        return self.sub_op.shape[0]

    @property
    def amb_dim(self) -> int:
        return self.amb_op.shape[0]


def _summand_embedding(kind: str, m: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """(subspace parts, ambient parts, embedding block) for one summand.

    A picket of height l embeds as the unique invariant l-dimensional
    subspace of a single Jordan block (the generator maps to the
    (m - l)-th power of the operator applied to the block generator); a
    bipicket embeds its 2-dimensional subspace diagonally into the two
    blocks, the generator landing on the pair of powers (m - 2, r - 1).
    """
    if kind == "P0":
        emb = np.zeros((m, 0), dtype=np.int64)
        return (), (m,), emb
    if kind in ("P1", "P2"):
        ell = 1 if kind == "P1" else 2
        emb = np.zeros((m, ell), dtype=np.int64)
        for j in range(ell):
            emb[m - ell + j, j] = 1
        return (ell,), (m,), emb
    # B2: basis of the subspace is (generator, its image); the generator
    # lands on the pair of powers (m - 2, r - 1) of the block generators,
    # its image on (m - 1, r) where the small-block component dies.
    emb = np.zeros((m + r, 2), dtype=np.int64)
    emb[m - 2, 0] = 1
    emb[m + r - 1, 0] = 1
    emb[m - 1, 1] = 1
    return (2,), (m, r), emb


# largest modulus whose entry products (p - 1)**2 still fit in int64
_MAX_MODULUS = 3_037_000_499


def _require_prime(p: int) -> None:
    if not 2 <= p <= _MAX_MODULUS or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"the field size must be a prime between 2 and {_MAX_MODULUS}, got {p}")


def realize(obj: S2Object, p: int) -> RealizedObject:
    """Block-diagonal realization of an object over F_p."""
    _require_prime(p)
    sub_parts: list[int] = []
    amb_parts: list[int] = []
    blocks: list[np.ndarray] = []
    for s in obj.summands:
        sp, ap, emb = _summand_embedding(s.kind, s.m, s.r)
        sub_parts.extend(sp)
        amb_parts.extend(ap)
        blocks.append(emb)
    sub_dim = sum(sub_parts)
    amb_dim = sum(amb_parts)
    embedding = np.zeros((amb_dim, sub_dim), dtype=np.int64)
    row = col = 0
    for emb in blocks:
        h, w = emb.shape
        embedding[row:row + h, col:col + w] = emb
        row += h
        col += w
    return RealizedObject(
        sub_op=_jordan_nilpotent(tuple(sub_parts)) % p,
        amb_op=_jordan_nilpotent(tuple(amb_parts)) % p,
        embedding=embedding % p,
        prime=p,
    )


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank over F_p by sparse row reduction: each row is a dict of its
    nonzero entries (Python ints) and is reduced, left to right, against
    the pivot rows found so far, one pivot per leading column."""
    _require_prime(p)
    a = (mat % p).astype(np.int64)
    rows: list[dict[int, int]] = [{} for _ in range(a.shape[0])]
    nz_rows, nz_cols = np.nonzero(a)
    for r, c, v in zip(nz_rows.tolist(), nz_cols.tolist(), a[nz_rows, nz_cols].tolist()):
        rows[r][c] = v
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
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


def oracle_hom_dim(x: S2Object, y: S2Object, p: int) -> int:
    """Dimension over F_p of the space of morphisms from x to y,
    computed from the realized matrices.

    A morphism is a pair (h1, h2) with h1 intertwining the subspace
    operators, h2 intertwining the ambient operators, and the square
    with the two embeddings commuting.
    """
    rx, ry = realize(x, p), realize(y, p)
    a_x, b_x = rx.sub_dim, rx.amb_dim
    a_y, b_y = ry.sub_dim, ry.amb_dim
    n1, n2 = a_y * a_x, b_y * b_x

    def ident(k):
        return np.eye(k, dtype=np.int64)

    rows: list[np.ndarray] = []
    # sub_op_y @ h1 - h1 @ sub_op_x = 0
    if n1:
        block = np.kron(ry.sub_op, ident(a_x)) - np.kron(ident(a_y), rx.sub_op.T)
        rows.append(np.hstack([block, np.zeros((block.shape[0], n2), dtype=np.int64)]))
    # amb_op_y @ h2 - h2 @ amb_op_x = 0
    if n2:
        block = np.kron(ry.amb_op, ident(b_x)) - np.kron(ident(b_y), rx.amb_op.T)
        rows.append(np.hstack([np.zeros((block.shape[0], n1), dtype=np.int64), block]))
    # embedding_y @ h1 - h2 @ embedding_x = 0
    if b_y * a_x:
        left = np.kron(ry.embedding, ident(a_x)) if n1 else np.zeros((b_y * a_x, 0), dtype=np.int64)
        right = -np.kron(ident(b_y), rx.embedding.T) if n2 else np.zeros((b_y * a_x, 0), dtype=np.int64)
        rows.append(np.hstack([left, right]))
    unknowns = n1 + n2
    if unknowns == 0:
        return 0
    if not rows:
        return unknowns
    system = np.vstack(rows) % p
    return unknowns - rank_mod_p(system, p)
