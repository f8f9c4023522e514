"""Littlewood-Richardson coefficients, used to predict the number of
minimal elements of the arc order on a fixed type.

The coefficient c^beta_{alpha, gamma} counts semistandard fillings of
the skew shape beta/gamma with content alpha whose reading word (right
to left within rows, rows top to bottom) is a lattice word: every
prefix contains at least as many i as i+1, for all i.
"""

from __future__ import annotations

from .partitions import Partition, is_column_strip, require_contains


def alpha_for_type(beta: Partition, gamma: Partition) -> Partition:
    """The subspace type forced on minimal elements: all parts 2, plus a
    single 1 when the weight difference is odd."""
    require_contains(beta, gamma)
    return _minimal_alpha(beta, gamma)


def _minimal_alpha(beta: Partition, gamma: Partition) -> Partition:
    diff = beta.weight() - gamma.weight()
    return Partition((2,) * (diff // 2) + (1,) * (diff % 2))


def lr_coefficient(alpha: Partition, gamma: Partition, beta: Partition) -> int:
    """Number of lattice semistandard fillings of beta/gamma with content
    alpha; 0 when gamma does not fit in beta or the weights mismatch."""
    if not beta.contains(gamma):
        return 0
    if beta.weight() != gamma.weight() + alpha.weight():
        return 0
    # cells in reading order: rows top to bottom, right to left inside a
    # row, so both the semistandard checks and the lattice prefix check
    # look only at already filled cells.
    cells: list[tuple[int, int]] = []
    for i, b in enumerate(beta.parts):
        g = gamma.part_at(i)
        cells.extend((i, j) for j in range(b - 1, g - 1, -1))
    if not cells:
        return 1
    k = len(alpha.parts)
    fill: dict[tuple[int, int], int] = {}
    counts = [0] * (k + 1)

    def backtrack(pos: int) -> int:
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        total = 0
        for v in range(1, k + 1):
            if counts[v] + 1 > alpha.parts[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue  # reading word would stop being a lattice word
            right = fill.get((i, j + 1))
            if right is not None and v > right:
                continue  # rows increase weakly left to right
            if i > 0 and j >= gamma.part_at(i - 1):
                above = fill.get((i - 1, j))
                if above is not None and v <= above:
                    continue  # columns increase strictly downward
            fill[(i, j)] = v
            counts[v] += 1
            total += backtrack(pos + 1)
            counts[v] -= 1
            del fill[(i, j)]
        return total

    return backtrack(0)


def minimal_count_prediction(beta: Partition, gamma: Partition) -> int | None:
    """Predicted number of minimal elements of the arc order on the type
    (beta, gamma): the coefficient c^beta_{alpha, gamma} with alpha from
    :func:`alpha_for_type`, valid when beta/gamma has at most one box
    per column (equivalently, no diagram of the type carries a doubled
    pole).  Returns None when that hypothesis fails; raises
    :class:`TypeMismatch` when gamma does not fit in beta."""
    # is_column_strip raises TypeMismatch when gamma does not fit in beta
    if not is_column_strip(beta, gamma):
        return None
    return lr_coefficient(_minimal_alpha(beta, gamma), gamma, beta)
