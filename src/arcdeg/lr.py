"""Littlewood-Richardson coefficients, used to predict the number of
minimal elements of the arc order on a fixed type.

The coefficient c^beta_{alpha, gamma} counts semistandard fillings of
the skew shape beta/gamma with content alpha whose reading word (right
to left within rows, rows top to bottom) is a lattice word: every
prefix contains at least as many i as i+1, for all i.
"""

from __future__ import annotations

from .partitions import Partition, is_column_strip


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
    for i, b in enumerate(beta):
        g = gamma[i] if i < len(gamma) else 0
        cells.extend((i, j) for j in range(b - 1, g - 1, -1))
    k = len(alpha)
    fill: dict[tuple[int, int], int] = {}
    counts = [0] * (k + 1)
    # depth-first over the cells without recursion, so the depth is not
    # bounded by the interpreter's stack: fill holds the values of the
    # cells before pos, and v is the next value to try at cells[pos]
    total, pos, v = 0, 0, 1
    while True:
        if pos == len(cells):
            total += 1
        else:
            i, j = cells[pos]
            # columns increase strictly downward, rows weakly left to right;
            # a neighbour in gamma or outside beta is not in fill
            v = max(v, fill.get((i - 1, j), 0) + 1)
            high = fill.get((i, j + 1), k)
            # the content stays within alpha and the reading word a lattice word
            while v <= high and (counts[v] >= alpha[v - 1] or (v > 1 and counts[v] >= counts[v - 1])):
                v += 1
            if v <= high:
                fill[cells[pos]] = v
                counts[v] += 1
                pos, v = pos + 1, 1
                continue
        if pos == 0:
            return total
        pos -= 1
        v = fill.pop(cells[pos])
        counts[v] -= 1
        v += 1


def minimal_count_prediction(beta: Partition, gamma: Partition) -> int | None:
    """Predicted number of minimal elements of the arc order on the type
    (beta, gamma): the coefficient c^beta_{alpha, gamma}, where alpha is
    the subspace type forced on minimal elements (all parts 2, plus a
    single 1 when the weight difference is odd).  Valid when beta/gamma
    has at most one box per column (equivalently, no diagram of the type
    carries a doubled pole).  Returns None when that hypothesis fails;
    raises :class:`TypeMismatch` when gamma does not fit in beta."""
    # is_column_strip raises TypeMismatch when gamma does not fit in beta
    if not is_column_strip(beta, gamma):
        return None
    diff = beta.weight() - gamma.weight()
    return lr_coefficient(Partition((2,) * (diff // 2) + (1,) * (diff % 2)), gamma, beta)
