"""arcdeg benchmark: one command for every workload.

    python3 bench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout.  Each iteration of the workload runs
in a fresh process (``worker.py``), because the library's caches are
global and unbounded; the ``queries`` inputs come from a separate
generator process (``gen_queries.py``).  Iterations repeat until
``--seconds`` of measuring are used; the figures are medians over them.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of traced iterations, interleaved with untraced ones to measure
the tracing overhead.  Every operation's output is checked; any failure
makes the command exit with 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from statistics import median

from hostspeed import REFERENCE_KERNEL_S
from stats import OpLog, parse_importtime, tail_percentile
from tracing import CACHES, COUNTERS, LAYERS
from worker import QUERY_KINDS, WORKLOADS, monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")

# Every child must end within this many seconds of the run's start.
RUN_BUDGET_S = 170.0

# setup_s and wall_s are rescaled to the host's reference speed
# (hostspeed.py); the raw figures are in the report and the result file.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units: dict[str, str] = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["bench.harness.self_s"] = "s"
    for key in COUNTERS:
        units[key] = "bytes" if key.endswith("_bytes") else "count"
    units["reduction.admissible_ratio"] = "ratio"
    for _, _, prefix in CACHES:
        units[f"{prefix}.entries"] = "count"
        units[f"{prefix}.lookups"] = "count"
        units[f"{prefix}.hit_ratio"] = "ratio"
    units.update(
        {
            "setup.import_arcdeg_s": "s",
            "setup.import_numpy_s": "s",
            "setup.load_inputs_s": "s",
            "host.raw_setup_s": "s",
            "host.raw_wall_s": "s",
            "host.kernel_ms": "ms",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
            "trace.spans": "count",
            "trace.self_total_s": "s",
            "trace.attributed_ratio": "ratio",
        }
    )
    return units


# -- header ---------------------------------------------------------------


def source_header() -> dict:
    """Git SHA (when the checkout is a git repository) and the line count
    of src/.  Informational only."""
    sha = "n/a (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            if proc.returncode == 0:
                sha = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = 0
    for dirpath, _, filenames in os.walk(SRC):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    return {"git_sha": sha, "src_lines": lines}


# -- children -------------------------------------------------------------


class ChildFailed(Exception):
    pass


def run_child(argv, deadline, env):
    """Run a child to completion; return (stdout JSON, stderr, seconds)."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise ChildFailed("no time left in the run's budget")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {timeout:.0f} s: {' '.join(argv[1:4])}") from None
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr, took
    except (IndexError, ValueError):
        raise ChildFailed(f"no result line: {proc.stdout[-500:]}") from None


def worker_argv(args, inputs, *, traced=False, spans=None):
    argv = [sys.executable]
    if traced:
        argv += ["-X", "importtime"]
    argv += [os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    if inputs:
        argv += ["--inputs", inputs]
    if traced:
        argv += ["--trace"]
        if spans:
            argv += ["--spans", spans]
    argv += ["--t0", repr(monotonic())]
    return argv


# -- digests --------------------------------------------------------------


def recorded_digest(workload: str, seed: int):
    """The digest recorded for this workload and seed ("*" matches every
    seed), or None."""
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh).get(workload, {})
    except FileNotFoundError:
        return None
    return table.get(str(seed), table.get("*"))


# -- the run --------------------------------------------------------------


def measure(args, inputs, deadline, env, log):
    """Iterations until --seconds are used.  Returns (untraced iteration
    results, traced iteration results)."""
    plain, traced = [], []
    spans = os.path.join(OUT, f"spans-{args.workload}.json")
    began = time.perf_counter()
    last = {False: 0.0, True: 0.0}
    while True:
        want_traced = bool(args.trace) and len(traced) < len(plain)
        result, stderr, took = run_child(
            worker_argv(args, inputs, traced=want_traced, spans=spans), deadline, env
        )
        last[want_traced] = took
        log.merge(result["attempted"], result["failed"], result["messages"])
        if want_traced:
            result["importtime"] = parse_importtime(stderr)
            traced.append(result)
        else:
            plain.append(result)
        used = time.perf_counter() - began
        nxt = bool(args.trace) and len(traced) < len(plain)
        enough = plain and (traced or not args.trace)
        if enough and (
            used + last[nxt] > args.seconds
            or time.perf_counter() + last[nxt] > deadline
        ):
            break
    return plain, traced


def check_digests(args, results, log):
    digests = [r["digest"] for r in results]
    reference = recorded_digest(args.workload, args.seed)
    note = "recorded for this seed" if reference else "not recorded; first iteration used"
    expect = reference or digests[0]
    for d in digests:
        log.record(d == expect, f"output digest {d[:16]} != {expect[:16]}")
    return note


def latency_summary(results):
    rows = {}
    for kind in QUERY_KINDS:
        samples = [x for r in results for x in r.get("latencies_ms", {}).get(kind, [])]
        if samples:
            rows[kind] = {"p50": median(samples), "tail": tail_percentile(samples), "n": len(samples)}
    return rows


def end_to_end(plain):
    return {key: median([r[key] for r in plain]) for key in END_TO_END}


def per_layer(plain, traced):
    out: dict[str, float] = {}
    first = traced[0]["layers"]
    for key, value in first.items():
        if key.endswith("_s"):
            out[key] = median([t["layers"][key] for t in traced])
        else:
            out[key] = value
    traced_wall = median([t["wall_s"] for t in traced])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - median([r["wall_s"] for r in plain])
    out["trace.attributed_ratio"] = median([t["layers"]["trace.self_total_s"] / t["raw_wall_s"] for t in traced])
    for key in ("raw_setup_s", "raw_wall_s", "kernel_ms"):
        out[f"host.{key}"] = median([r[key] for r in plain])
    out["setup.import_arcdeg_s"] = median([r["import_s"] for r in plain])
    out["setup.load_inputs_s"] = median([r["load_s"] for r in plain])
    # 0 when set-up no longer imports numpy at all
    out["setup.import_numpy_s"] = median([t["importtime"].get("numpy", 0.0) for t in traced])
    return out


def print_report(args, header, info, e2e, plain, traced, layers, rows, log, digest_note):
    w = args.workload
    print(f"arcdeg bench  workload={w} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  git {header['git_sha']}  src/ {header['src_lines']} lines")
    for line in info:
        print(f"  {line}")
    walls = sorted(r["wall_s"] for r in plain)
    raw = sorted(r["raw_wall_s"] for r in plain)
    print(
        f"  {len(plain)} untraced and {len(traced)} traced iterations, each in a fresh process;"
        f" wall_s range {walls[0]:.4f} .. {walls[-1]:.4f} s (raw {raw[0]:.4f} .. {raw[-1]:.4f} s),"
        f" median CPU time {median([r['cpu_s'] for r in plain]):.4f} s (speed samples included),"
        f" checks {median([r['check_s'] for r in plain]):.4f} s (not in wall_s)"
    )
    print(
        f"  host speed: reference kernel median {median([r['kernel_ms'] for r in plain]):.3f} ms"
        f" against {REFERENCE_KERNEL_S * 1e3:.3f} ms at the reference speed,"
        f" {median([r['samples'] for r in plain]):.0f} samples per iteration"
    )
    print("end-to-end (untraced; times at the reference speed, raw in brackets):")
    print(
        f"  {'setup_s':<16}{e2e['setup_s']:>12.4f} s   median of {len(plain)} set-ups"
        f" (raw {median([r['raw_setup_s'] for r in plain]):.4f} s)"
    )
    print(
        f"  {'wall_s':<16}{e2e['wall_s']:>12.4f} s   median of {len(plain)} iterations"
        f" (raw {median([r['raw_wall_s'] for r in plain]):.4f} s)"
    )
    print(f"  {'peak_rss_mb':<16}{e2e['peak_rss_mb']:>12.2f} MB")
    print(f"  {'fail_ratio':<16}{log.fail_ratio:>12.4g}     {log.failed} failed of {log.attempted} ops")
    for kind in QUERY_KINDS:
        row = rows.get(kind)
        if row is None:
            print(f"  {kind + '_p50_ms':<16}{'n/a':>12}     no {kind} queries in this workload")
            print(f"  {kind + '_tail_ms':<16}{'n/a':>12}")
            continue
        print(f"  {kind + '_p50_ms':<16}{row['p50']:>12.4f} ms  n={row['n']}")
        if row["tail"] is None:
            print(f"  {kind + '_tail_ms':<16}{'n/a':>12}     fewer than 20 samples")
        else:
            pct, value, above = row["tail"]
            print(f"  {kind + '_tail_ms':<16}{value:>12.4f} ms  p{pct:g}, n={row['n']}, {above} above")
    if layers:
        print("per layer (traced):")
        for key in sorted(layers):
            value = layers[key]
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            print(f"  {key:<46}{shown:>16}")
        print("  oracle.rank_mod_p.elim_ops and oracle.system_bytes are computed from shape and rank")
    print(f"output digest {plain[0]['digest'][:16]} ({digest_note})")
    for message in log.messages:
        print(f"FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "arcdeg", "__init__.py")):
        print(f"bench: no library source at {SRC}/arcdeg; run from the root of a checkout", file=sys.stderr)
        return 2
    # Turn SIGTERM into an exception, so that subprocess.run kills and
    # reaps the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + RUN_BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    header = source_header()
    info = []
    log = OpLog()
    try:
        inputs = None
        if args.workload == "queries":
            inputs = os.path.join(OUT, f"queries-seed{args.seed}.json")
            gen = [sys.executable, os.path.join(HERE, "gen_queries.py"), "--seed", str(args.seed), "--out", inputs]
            t = time.perf_counter()
            timeout = deadline - t
            proc = subprocess.run(gen, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
            if proc.returncode != 0:
                raise ChildFailed(f"generator exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            with open(inputs, encoding="utf-8") as fh:
                n = len(json.load(fh)["queries"])
            info.append(f"inputs: {n} queries from seed {args.seed} (generator {time.perf_counter() - t:.2f} s)")
        plain, traced = measure(args, inputs, deadline, env, log)
    except (ChildFailed, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    digest_note = check_digests(args, plain + traced, log)
    e2e = end_to_end(plain)
    layers = per_layer(plain, traced) if args.trace else {}
    rows = latency_summary(plain)
    print_report(args, header, info, e2e, plain, traced, layers, rows, log, digest_note)

    if args.trace:
        units = per_layer_units()
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units if k in layers}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    correct = log.failed == 0
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(
            {
                "header": header,
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "metrics": metrics,
                "fail_ratio": log.fail_ratio,
                "latency_ms": rows,
                "iterations": plain + traced,
            },
            fh,
            indent=1,
        )
    print(json.dumps({"correct": correct, "attempted": log.attempted, "failed": log.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
