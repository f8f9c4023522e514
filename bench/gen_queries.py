"""Generator of the ``queries`` workload: turns a seed into an input file.

It runs in a process of its own, so the library caches it warms are
never those of a measured process.

* ``order``, ``hom`` and ``reduce`` pairs come from the types of ambient
  (8,7,...,1) with at least ``MIN_OBJECTS`` objects (107 types);
* ``oracle`` pairs come from all objects of ambient (5,4,3,2,1).

Half the ``order`` pairs and every ``reduce`` pair are comparable: y is
reached from z by a random walk of down-moves and checked with
``hom_leq``.

    python3 bench/gen_queries.py --seed 1 --out .bench_out/queries-1.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import arcdeg as A  # noqa: E402
from arcdeg.verify import subpartitions  # noqa: E402

AMBIENT = "8,7,6,5,4,3,2,1"
ORACLE_AMBIENT = "5,4,3,2,1"
MIN_OBJECTS = 40
# Queries per kind.  A chosen mix, not observed usage: the counts give
# each kind about a quarter of the measured query time (README.md).
COUNTS = {"order": 400, "hom": 400, "reduce": 150, "oracle": 30}


def walk_down(z, steps, rng):
    beta, gamma = A.object_type(z)
    diagram = A.diagram_of_object(z)
    for _ in range(steps):
        moves = A.down_moves(diagram)
        if not moves:
            break
        diagram = rng.choice(moves)[1]
    return A.object_of_diagram(diagram, beta, gamma)


def comparable_pair(objects, rng, max_steps):
    while True:
        z = rng.choice(objects)
        y = walk_down(z, rng.randint(1, max_steps), rng)
        if y != z:
            if not A.hom_leq(y, z):
                raise AssertionError(f"{y.to_text()} is arc-below {z.to_text()} but not hom-below")
            return y, z


def generate(seed: int) -> dict:
    rng = random.Random(seed)
    ambient = A.Partition.from_text(AMBIENT)
    types = [objs for g in subpartitions(ambient) if len(objs := A.enumerate_objects(ambient, g)) >= MIN_OBJECTS]
    small = A.Partition.from_text(ORACLE_AMBIENT)
    pool = [o for g in subpartitions(small) for o in A.enumerate_objects(small, g)]

    queries = []
    for _ in range(COUNTS["order"]):
        objects = rng.choice(types)
        if rng.random() < 0.5:
            y, z = comparable_pair(objects, rng, 6)
        else:
            y, z = rng.choice(objects), rng.choice(objects)
        queries.append(["order", y.to_text(), z.to_text()])
    for _ in range(COUNTS["hom"]):
        objects = rng.choice(types)
        queries.append(["hom", rng.choice(objects).to_text(), rng.choice(objects).to_text()])
    for _ in range(COUNTS["reduce"]):
        y, z = comparable_pair(rng.choice(types), rng, 8)
        queries.append(["reduce", y.to_text(), z.to_text()])
    for _ in range(COUNTS["oracle"]):
        queries.append(["oracle", rng.choice(pool).to_text(), rng.choice(pool).to_text()])
    rng.shuffle(queries)
    return {"seed": seed, "types": len(types), "oracle_pool": len(pool), "queries": queries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    data = generate(args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
