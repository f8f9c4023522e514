from itertools import product

import pytest

from arcdeg.errors import TypeMismatch
from arcdeg.lr import alpha_for_type, lr_coefficient, minimal_count_prediction
from arcdeg.partitions import Partition


def brute_lr(alpha: Partition, gamma: Partition, beta: Partition) -> int:
    """Independent oracle: enumerate every assignment of values to the
    skew cells and filter by the full definition."""
    if not beta.contains(gamma) or beta.weight() != gamma.weight() + alpha.weight():
        return 0
    cells = [
        (i, j)
        for i, b in enumerate(beta.parts)
        for j in range(gamma.part_at(i), b)
    ]
    if not cells:
        return 1
    k = len(alpha.parts)
    count = 0
    for values in product(range(1, k + 1), repeat=len(cells)):
        fill = dict(zip(cells, values))
        ok = True
        for (i, j), v in fill.items():
            if (i, j + 1) in fill and v > fill[(i, j + 1)]:
                ok = False
                break
            if (i - 1, j) in fill and v <= fill[(i - 1, j)]:
                ok = False
                break
        if not ok:
            continue
        content = [0] * (k + 1)
        for v in values:
            content[v] += 1
        if content[1:] != list(alpha.parts):
            continue
        word = []
        for i in range(len(beta.parts)):
            row = sorted((j for (r, j) in cells if r == i), reverse=True)
            word.extend(fill[(i, j)] for j in row)
        seen = [0] * (k + 2)
        lattice = True
        for v in word:
            seen[v] += 1
            if v > 1 and seen[v] > seen[v - 1]:
                lattice = False
                break
        if lattice:
            count += 1
    return count


def test_alpha_for_type_examples():
    assert alpha_for_type(Partition.of(3, 3, 2, 1), Partition.of(2, 2, 1)) == Partition.of(2, 2)
    assert alpha_for_type(Partition.of(2, 1), Partition.of(1)) == Partition.of(2)
    assert alpha_for_type(Partition.of(4, 3, 3, 2, 1), Partition.of(3, 2, 1, 1)) == Partition.of(2, 2, 2)
    assert alpha_for_type(Partition.of(3, 2), Partition.of(2)) == Partition.of(2, 1)
    with pytest.raises(TypeMismatch):
        alpha_for_type(Partition.of(2), Partition.of(3))


def test_lr_coefficient_examples():
    assert lr_coefficient(Partition.of(2, 2), Partition.of(2, 2, 1), Partition.of(3, 3, 2, 1)) == 1
    assert lr_coefficient(Partition.of(2), Partition.of(1), Partition.of(2, 1)) == 1
    assert lr_coefficient(Partition(), Partition.of(3, 1), Partition.of(3, 1)) == 1
    assert lr_coefficient(Partition.of(1), Partition.of(2), Partition.of(1, 1)) == 0  # no containment
    assert lr_coefficient(Partition.of(3), Partition.of(1), Partition.of(2, 1)) == 0  # weight mismatch


def test_lr_against_brute_force():
    shapes = [
        (Partition.of(2, 2), Partition.of(2, 2, 1), Partition.of(3, 3, 2, 1)),
        (Partition.of(2, 1), Partition.of(2, 1), Partition.of(3, 2, 1)),
        (Partition.of(2, 2, 2), Partition.of(3, 2, 1, 1), Partition.of(4, 3, 3, 2, 1)),
        (Partition.of(2, 1, 1), Partition.of(2, 1), Partition.of(3, 2, 1, 1)),
        (Partition.of(3, 2), Partition.of(2, 1), Partition.of(4, 3, 1)),
        (Partition.of(2, 2), Partition.of(2, 1, 1), Partition.of(4, 2, 1, 1)),
    ]
    for alpha, gamma, beta in shapes:
        assert lr_coefficient(alpha, gamma, beta) == brute_lr(alpha, gamma, beta)


def test_lr_symmetry_small():
    cases = [
        (Partition.of(2, 1), Partition.of(2, 1), Partition.of(3, 2, 1)),
        (Partition.of(2, 2), Partition.of(2, 1), Partition.of(4, 2, 1)),
        (Partition.of(3, 1), Partition.of(2, 2), Partition.of(4, 3, 1)),
        (Partition.of(2, 1, 1), Partition.of(3, 1), Partition.of(4, 2, 1, 1)),
    ]
    for alpha, gamma, beta in cases:
        assert lr_coefficient(alpha, gamma, beta) == lr_coefficient(gamma, alpha, beta)


def test_minimal_count_prediction_examples():
    assert minimal_count_prediction(Partition.of(2, 1), Partition.of(1)) == 1
    assert minimal_count_prediction(Partition.of(3, 3, 2, 1), Partition.of(2, 2, 1)) is None
    assert minimal_count_prediction(Partition.of(4, 2), Partition.of(4, 2)) == 1
    with pytest.raises(TypeMismatch):
        minimal_count_prediction(Partition.of(2), Partition.of(3))



def test_minimal_count_prediction_checks_containment_once(monkeypatch):
    import arcdeg.lr
    import arcdeg.partitions

    calls = []
    original = arcdeg.partitions.require_contains

    def counting(beta, gamma):
        calls.append((beta, gamma))
        original(beta, gamma)

    monkeypatch.setattr(arcdeg.partitions, "require_contains", counting)
    monkeypatch.setattr(arcdeg.lr, "require_contains", counting)
    assert minimal_count_prediction(Partition.of(3, 2), Partition.of(2)) == 1
    assert len(calls) == 1
    with pytest.raises(TypeMismatch, match=r"^3 is not contained in 2$"):
        minimal_count_prediction(Partition.of(2), Partition.of(3))

def test_prediction_matches_poset_minima_on_column_strips():
    from arcdeg.moves import extrema
    from arcdeg.verify import iter_types
    from arcdeg.partitions import is_column_strip
    from arcdeg.objects import enumerate_objects

    checked = 0
    for beta, gamma in iter_types(6):
        if not is_column_strip(beta, gamma):
            continue
        if not enumerate_objects(beta, gamma):
            continue
        _, minimal = extrema(beta, gamma)
        assert minimal_count_prediction(beta, gamma) == len(minimal), (beta, gamma)
        checked += 1
    assert checked > 50
