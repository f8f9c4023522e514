"""One iteration of one workload, in a fresh process.

``run.py`` starts this script once per iteration, so every iteration
begins with the library's global caches empty.  It imports ``arcdeg``
from the checkout's ``src/``, loads the inputs, runs the workload's
operations, checks every output and prints one JSON line with the
timings, the operation counts, a digest of all outputs and, when traced,
the layer metrics.  Set-up and work run under a ``hostspeed.Meter``,
which rescales their times to the host's reference speed.

    python3 bench/worker.py --workload sweep --seed 1 --t0 <monotonic>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from statistics import median

from hostspeed import REFERENCE_KERNEL_S, Meter
from stats import OpLog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# sweep: the work of `arcdeg verify --beta-max 10`.
SWEEP_WEIGHT = 10
SWEEP_EXPECTED = {"types_seen": 2887, "objects_total": 3169, "pairs_checked": 6497}
SWEEP_MESH_PAIRS = 100
SWEEP_REGION_PAIRS = 100
SWEEP_MESH_WEIGHT = 10
SWEEP_REGION_POINT = 10

# staircase: the type (9,8,...,1; 8,...,1).
STAIRCASE_BETA = "9,8,7,6,5,4,3,2,1"
STAIRCASE_GAMMA = "8,7,6,5,4,3,2,1"
STAIRCASE_EDGES = 13018
STAIRCASE_MAXIMAL = 1
STAIRCASE_MINIMAL = 42

# queries: the matrix oracle works over F_101.
ORACLE_PRIME = 101


def monotonic() -> float:
    """A clock shared by all processes on the machine (run.py stamps the
    spawn time with it)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sub_seeds(seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    return rng.randrange(2**31), rng.randrange(2**31)


class Ops:
    """Runs operations and, later, their checks.

    ``run`` does the measured work of one operation, in a harness span
    when traced, and queues its check; ``check_all`` runs the queued
    checks after the measured part.  Every operation counts as
    attempted, and as failed when it raises or its check fails.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.log = OpLog()
        self.outputs: list = []
        self.pending: list = []

    def run(self, name, work, check):
        """``work()`` returns the output; ``check(output)`` returns
        ``(ok, message)``."""
        scope = self.tracer.root(name) if self.tracer else nullcontext()
        try:
            with scope:
                output = work()
        except Exception:
            self.outputs.append([name, None])
            self.log.record(False, f"{name}: {traceback.format_exc(limit=3)}")
            return
        self.outputs.append([name, output])
        self.pending.append((name, check, output))

    def check_all(self):
        for name, check, output in self.pending:
            try:
                ok, message = check(output)
            except Exception:
                ok, message = False, traceback.format_exc(limit=3)
            self.log.record(ok, f"{name}: {message}")
        self.pending.clear()

    def digest(self) -> str:
        text = json.dumps(self.outputs, sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(text.encode()).hexdigest()


# -- workloads ----------------------------------------------------------


def load_sweep(A, seed, _inputs):
    mesh_seed, region_seed = sub_seeds(seed)
    return {"mesh_seed": mesh_seed, "region_seed": region_seed}


def run_sweep(A, inputs, ops, latencies):
    V = A.verify

    def sweep():
        report = V.equivalence_sweep(SWEEP_WEIGHT)
        return {
            **{k: getattr(report, k) for k in SWEEP_EXPECTED},
            "ok": report.ok,
            "types_realizable": report.types_realizable,
            "move_edges": report.move_edges,
            "failures": report.failures,
        }

    def sweep_check(out):
        counts = {k: out[k] for k in SWEEP_EXPECTED}
        ok = out["ok"] and counts == SWEEP_EXPECTED
        return ok, f"ok={out['ok']} counts={counts} failures={sorted(out['failures'])}"

    def no_failures(failures):
        return not failures, "; ".join(failures[:3])

    ops.run("sweep", sweep, sweep_check)
    ops.run(
        "mesh",
        lambda: V.mesh_check(SWEEP_MESH_PAIRS, SWEEP_MESH_WEIGHT, seed=inputs["mesh_seed"]),
        no_failures,
    )
    ops.run(
        "region",
        lambda: V.region_check(SWEEP_REGION_PAIRS, SWEEP_REGION_POINT, seed=inputs["region_seed"]),
        no_failures,
    )


def load_staircase(A, _seed, _inputs):
    return {
        "beta": A.Partition.from_text(STAIRCASE_BETA),
        "gamma": A.Partition.from_text(STAIRCASE_GAMMA),
    }


def run_staircase(A, inputs, ops, latencies):
    beta, gamma = inputs["beta"], inputs["gamma"]
    found = {}

    def dot_check(text):
        edges = sum(1 for line in text.splitlines() if "->" in line)
        return edges == STAIRCASE_EDGES, f"{edges} edges, expected {STAIRCASE_EDGES}"

    def extrema():
        maximal, minimal = A.extrema(beta, gamma)
        return [[o.to_text() for o in maximal], [o.to_text() for o in minimal]]

    def extrema_check(out):
        maximal, minimal = map(len, out)
        found["minimal"] = minimal
        ok = (maximal, minimal) == (STAIRCASE_MAXIMAL, STAIRCASE_MINIMAL)
        return ok, f"{maximal} maximal, {minimal} minimal"

    def prediction_check(predicted):
        ok = predicted == STAIRCASE_MINIMAL == found.get("minimal")
        return ok, f"predicted {predicted}, found {found.get('minimal')}"

    ops.run("hasse_dot", lambda: A.hasse_dot(beta, gamma), dot_check)
    ops.run("extrema", extrema, extrema_check)
    ops.run("lr_prediction", lambda: A.minimal_count_prediction(beta, gamma), prediction_check)


def load_queries(A, _seed, path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["queries"]


def _parse(A, a, b):
    return A.S2Object.from_text(a), A.S2Object.from_text(b)


def _order(A, y, z):
    return [A.arc_leq(y, z), A.hom_leq(y, z)]


def _order_check(A, y, z, out):
    return out[0] == out[1], f"arc_leq={out[0]} hom_leq={out[1]}"


def _hom(A, x, y):
    beta = A.object_type(x)[0]
    return [A.hom_obj(x, y), [A.delta_hom(x, y, t) for t in A.test_set(beta)]]


def _hom_check(A, x, y, out):
    defects = A.mesh_defect_report(x, y, A.object_type(x)[0].max_part + 3)
    return not defects, f"{len(defects)} mesh defects"


def _reduce(A, y, z):
    return A.reduction_chain(y, z)


def _reduce_check(A, y, z, chain):
    """Replay the chain with apply_down and object_of_diagram only."""
    if not chain:
        return False, "empty chain for distinct objects"
    beta, gamma = A.object_type(y)
    current = z
    for step, move in enumerate(chain):
        current = A.object_of_diagram(A.apply_down(A.diagram_of_object(current), move), beta, gamma)
        if not A.hom_leq(y, current):
            return False, f"step {step} ({move}) leaves the hom cone of y"
    return current == y, f"replay ends at {current.to_text()}"


def _oracle(A, x, y):
    return A.oracle_hom_dim(x, y, ORACLE_PRIME)


def _oracle_check(A, x, y, out):
    table = A.hom_obj(x, y)
    return out == table, f"oracle {out} != table {table}"


QUERY_KINDS = {
    "order": (_order, _order_check),
    "hom": (_hom, _hom_check),
    "reduce": (_reduce, _reduce_check),
    "oracle": (_oracle, _oracle_check),
}


def run_queries(A, queries, ops, latencies):
    clock = time.perf_counter
    for kind, a, b in queries:
        query, check = QUERY_KINDS[kind]

        def work(query=query, kind=kind, a=a, b=b):
            t0 = clock()
            out = query(A, *_parse(A, a, b))
            latencies.setdefault(kind, []).append((clock() - t0) * 1e3)
            return out

        def checked(out, check=check, a=a, b=b):
            ok, message = check(A, *_parse(A, a, b), out)
            return ok, f"{a} vs {b}: {message}"

        ops.run(kind, work, checked)


WORKLOADS = {
    "sweep": (load_sweep, run_sweep),
    "staircase": (load_staircase, run_staircase),
    "queries": (load_queries, run_queries),
}


# -- main ---------------------------------------------------------------


def set_up(args):
    """Import the library from src/, install the tracer when asked,
    load the inputs."""
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import arcdeg as A
    import arcdeg.verify  # noqa: F401  (sweep entry points)

    import_s = time.perf_counter() - t
    if not os.path.abspath(A.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"arcdeg imported from {A.__file__}, not from {SRC}")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    load = WORKLOADS[args.workload][0]
    t = time.perf_counter()
    inputs = load(A, args.seed, args.inputs)
    return A, tracer, inputs, import_s, time.perf_counter() - t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="monotonic stamp of the spawn")
    parser.add_argument("--inputs", default=None, help="generated input file (queries)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    with Meter(sampling=not args.trace) as setup_meter:
        A, tracer, inputs, import_s, load_s = set_up(args)
    # spawn to now, samples left out; the part before the first sample
    # (interpreter start) is rescaled by that sample
    raw_setup_s = monotonic() - args.t0 - setup_meter.sample_s
    before_s = raw_setup_s - setup_meter.work_s
    setup_s = before_s * REFERENCE_KERNEL_S / setup_meter.kernel_s[0] + setup_meter.reference_s
    ops = Ops(tracer)
    latencies: dict[str, list[float]] = {}
    cpu = time.process_time()
    with Meter(sampling=tracer is None) as meter:
        WORKLOADS[args.workload][1](A, inputs, ops, latencies)
    result = {
        # set-up and work rescaled to the host's reference speed
        "setup_s": setup_s,
        "wall_s": meter.reference_s,
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": meter.work_s,
        "kernel_ms": median(meter.kernel_s) * 1e3,
        "samples": len(meter.kernel_s),
        "import_s": import_s,
        "load_s": load_s,
        "cpu_s": time.process_time() - cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_ms": latencies,
    }
    if tracer is not None:
        # before the checks, so that their calls are not counted
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    t = time.perf_counter()
    ops.check_all()
    result.update(
        check_s=time.perf_counter() - t,
        attempted=ops.log.attempted,
        failed=ops.log.failed,
        messages=ops.log.messages,
        digest=ops.digest(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
