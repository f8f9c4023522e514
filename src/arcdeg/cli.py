"""Command-line surface.  Every subcommand prints deterministic output
(JSON is pretty-printed with sorted keys); exit code 2 flags argument
or parse errors, 1 flags verification failures."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ArcDegError
from .geometry import aut_degree, hall_degree, stratum_dim, subspace_orbit_dim
from .homcalc import delta_profile, hom_leq, hom_obj, test_set
from .lr import lr_coefficient
from .moves import arc_leq, hasse_dot
from .objects import (
    S2Object,
    alpha_of,
    crossings,
    diagram_of_object,
    enumerate_objects,
    object_type,
)
from .oracle import oracle_hom_dim
from .partitions import Partition
from .reduction import reduction_steps
from .verify import equivalence_sweep, mesh_check, region_check


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _cmd_enumerate(args) -> int:
    beta = Partition.from_text(args.beta)
    gamma = Partition.from_text(args.gamma)
    rows = []
    for obj in enumerate_objects(beta, gamma):
        d = diagram_of_object(obj)
        rows.append(
            {
                "object": obj.to_text(),
                "diagram": d.to_text(),
                "alpha": alpha_of(obj).to_text(),
                "crossings": crossings(d),
                "dimension": stratum_dim(obj),
            }
        )
    if args.json:
        print(_dump(rows))
    else:
        for row in rows:
            print(
                f"{row['object']}\talpha={row['alpha'] or '()'}"
                f"\tx={row['crossings']}\tdim={row['dimension']}"
            )
    return 0


def _cmd_hasse(args) -> int:
    beta = Partition.from_text(args.beta)
    gamma = Partition.from_text(args.gamma)
    dot = hasse_dot(beta, gamma)
    if args.dot == "-":
        sys.stdout.write(dot)
    else:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
        print(f"wrote {args.dot}")
    return 0


def _cmd_order(args) -> int:
    y = S2Object.from_text(args.y)
    z = S2Object.from_text(args.z)
    arc = arc_leq(y, z)
    hom = hom_leq(y, z)
    print(_dump({"arc_leq": arc, "hom_leq": hom, "agree": arc == hom, "y": y.to_text(), "z": z.to_text()}))
    return 0


def _cmd_reduce(args) -> int:
    y = S2Object.from_text(args.y)
    z = S2Object.from_text(args.z)
    steps = []
    before = z
    for move, after in reduction_steps(y, z):
        steps.append(
            {
                "kind": move.kind,
                "points": list(move.points),
                "before": before.to_text(),
                "after": after.to_text(),
            }
        )
        before = after
    print(_dump({"y": y.to_text(), "z": z.to_text(), "chain": steps}))
    return 0


def _cmd_dim(args) -> int:
    obj = S2Object.from_text(args.object)
    beta, gamma = object_type(obj)
    alpha = alpha_of(obj)
    print(
        _dump(
            {
                "object": obj.to_text(),
                "stratum_dim": stratum_dim(obj),
                "hall_degree": hall_degree(alpha, beta, gamma),
                "aut_degree": aut_degree(alpha),
                "subspace_orbit_dim": subspace_orbit_dim(obj),
            }
        )
    )
    return 0


def _cmd_hom(args) -> int:
    x = S2Object.from_text(args.x)
    y = S2Object.from_text(args.y)
    out = {"x": x.to_text(), "y": y.to_text(), "hom": hom_obj(x, y)}
    if object_type(x) == object_type(y):
        beta = object_type(x)[0]
        out["delta_hom"] = {t.to_text(): d for t, d in zip(test_set(beta), delta_profile(x, y))}
    print(_dump(out))
    return 0


def _cmd_oracle(args) -> int:
    x = S2Object.from_text(args.x)
    y = S2Object.from_text(args.y)
    oracle = oracle_hom_dim(x, y, args.prime)
    table = hom_obj(x, y)
    print(
        _dump(
            {
                "x": x.to_text(),
                "y": y.to_text(),
                "prime": args.prime,
                "oracle": oracle,
                "table": table,
                "agree": oracle == table,
            }
        )
    )
    return 0


def _cmd_lr(args) -> int:
    alpha = Partition.from_text(args.alpha)
    gamma = Partition.from_text(args.gamma)
    beta = Partition.from_text(args.beta)
    print(lr_coefficient(alpha, gamma, beta))
    return 0


def _cmd_verify(args) -> int:
    if args.beta_max < 1:
        raise ValueError(f"--beta-max must be at least 1, got {args.beta_max}")
    report = equivalence_sweep(args.beta_max)
    for line in report.summary_lines():
        print(line)
    mesh_failures = mesh_check(100, min(args.beta_max + 2, 10), seed=20_26)
    print(f"mesh identity on 100 random pairs: {'ok' if not mesh_failures else 'FAILED'}")
    region_failures = region_check(100, 10, seed=20_27)
    print(f"region indicator on 100 random unit pairs: {'ok' if not region_failures else 'FAILED'}")
    return 0 if report.ok and not mesh_failures and not region_failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcdeg",
        description="arc diagrams, degeneration orders and Hom calculus for invariant subspaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the strata of a type with alpha, crossings, dimension")
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("hasse", help="export the Hasse diagram of a type as DOT")
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--dot", required=True, help="output path, or - for stdout")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("order", help="compare two objects in the arc and hom orders")
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("reduce", help="move chain from z down to y")
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("dim", help="dimension data of one object")
    p.add_argument("--object", required=True)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("hom", help="hom dimension and, for same-type pairs, the delta vector")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("oracle", help="matrix oracle versus table value")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--prime", type=int, default=101)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient")
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser("verify", help="run the property suite up to a weight bound")
    p.add_argument("--beta-max", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArcDegError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
