from collections import Counter
from itertools import product

import pytest

from arcdeg.cli import main
from arcdeg.errors import TypeMismatch
from arcdeg.lr import lr_coefficient, minimal_count_prediction
from arcdeg.objects import alpha_of, crossings, diagram_of_object, enumerate_objects
from arcdeg.partitions import Partition
from arcdeg.verify import all_partitions

from conftest import iter_types, part_at


def brute_lr(alpha: Partition, gamma: Partition, beta: Partition) -> int:
    """Independent oracle: enumerate every assignment of values to the
    skew cells and filter by the full definition."""
    if not beta.contains(gamma) or beta.weight() != gamma.weight() + alpha.weight():
        return 0
    cells = [
        (i, j)
        for i, b in enumerate(beta)
        for j in range(part_at(gamma, i), b)
    ]
    if not cells:
        return 1
    k = len(alpha)
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
        if content[1:] != list(alpha):
            continue
        word = []
        for i in range(len(beta)):
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
    import arcdeg.partitions

    calls = []
    original = arcdeg.partitions.require_contains

    def counting(beta, gamma):
        calls.append((beta, gamma))
        original(beta, gamma)

    monkeypatch.setattr(arcdeg.partitions, "require_contains", counting)
    assert minimal_count_prediction(Partition.of(3, 2), Partition.of(2)) == 1
    assert len(calls) == 1
    with pytest.raises(TypeMismatch, match=r"^3 is not contained in 2$"):
        minimal_count_prediction(Partition.of(2), Partition.of(3))

def test_prediction_matches_poset_minima_on_column_strips():
    from arcdeg.moves import extrema
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


def recursive_lr(alpha: Partition, gamma: Partition, beta: Partition) -> int:
    """Reference: the same fill order as lr_coefficient, with one
    recursive call per skew cell."""
    if not beta.contains(gamma) or beta.weight() != gamma.weight() + alpha.weight():
        return 0
    cells = [(i, j) for i, b in enumerate(beta) for j in range(b - 1, part_at(gamma, i) - 1, -1)]
    k = len(alpha)
    fill: dict[tuple[int, int], int] = {}
    counts = [0] * (k + 1)

    def backtrack(pos: int) -> int:
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        total = 0
        for v in range(1, k + 1):
            if counts[v] + 1 > alpha[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            right = fill.get((i, j + 1))
            if right is not None and v > right:
                continue
            if i > 0 and j >= part_at(gamma, i - 1):
                above = fill.get((i - 1, j))
                if above is not None and v <= above:
                    continue
            fill[(i, j)] = v
            counts[v] += 1
            total += backtrack(pos + 1)
            counts[v] -= 1
            del fill[(i, j)]
        return total

    return backtrack(0)


def test_lr_matches_recursive_reference_up_to_weight_8():
    checked = 0
    for beta, gamma in iter_types(8):
        for alpha in all_partitions(beta.weight() - gamma.weight()):
            if alpha.weight() == beta.weight() - gamma.weight():
                assert lr_coefficient(alpha, gamma, beta) == recursive_lr(alpha, gamma, beta), (alpha, gamma, beta)
                checked += 1
    assert checked > 1000


def test_cli_lr_on_a_long_row_needs_no_recursion(capsys):
    # one skew cell per unit of weight, beyond the interpreter's default recursion limit
    assert main(["lr", "--alpha", "1200", "--gamma", "", "--beta", "1200"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_crossing_free_objects_count_the_lr_coefficient_up_to_weight_8():
    # c^beta_{alpha,gamma} is the leading coefficient of the Hall
    # polynomial g^beta_{alpha,gamma}(q) (Macdonald, Symmetric Functions
    # and Hall Polynomials, II.4.3); the objects with no crossing are the
    # orbits of top dimension, hall_degree + aut_degree(alpha), and every
    # subspace type has parts <= 2
    triples = 0
    for beta, gamma in iter_types(8):
        diff = beta.weight() - gamma.weight()
        found = Counter(
            alpha_of(o) for o in enumerate_objects(beta, gamma) if crossings(diagram_of_object(o)) == 0
        )
        alphas = [Partition((2,) * twos + (1,) * (diff - 2 * twos)) for twos in range(diff // 2 + 1)]
        assert set(found) <= set(alphas)
        for alpha in alphas:
            assert found[alpha] == lr_coefficient(alpha, gamma, beta), (alpha, gamma, beta)
        triples += len(alphas)
    assert triples == 2049
