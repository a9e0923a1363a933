"""Benchmark of `nsopt simplify`, end to end and layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository: nsopt is imported
from `src` there, nothing is installed.  Workloads: search_heavy,
sweep_long, iterated_batch (see perfbench/README.md).

A run repeats whole rounds of the workload's operations, each round in a
fresh worker process, until the next round would end after S seconds (at
least one round).  Every output is checked against perfbench/oracle.py,
and the reports of all rounds must be byte-identical.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, from untraced rounds.  The
wall time of every operation in every round and the set-up times are
written to .perfbench/walls-W-N.json.
--trace 1 alternates untraced and traced rounds, at least two of each,
and reports the per-layer metrics of spans.py plus trace.overhead_share:
the traced rounds' wall time over the untraced rounds', minus 1.  The
counts must repeat exactly between traced rounds.  The spans are written
to .perfbench/trace-W-N.json at the end.
"""

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_RUN_S = 170  # the whole run, rounds and checks, ends within this
SETUP_SAMPLES = 5  # set-ups per run, from rounds plus set-up-only workers


def _env():
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload, seed, mode, timeout):
    """(set-up seconds, worker result) of one fresh worker process."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode]
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["t_ready"] - t_spawn, result


def _failed(op_result):
    return op_result["code"] != 0


def check_round(ops, result, checked, problems):
    """Check each completed operation's report once; `checked` maps a
    report's text to the problems found in it."""
    for op, got in zip(ops, result["ops"]):
        label, expr, argv, _deadline, closed = op
        if got["label"] != label:
            problems.append(f"{label}: worker ran {got['label']} instead")
            continue
        if _failed(got):
            continue
        text = got["stdout"]
        if text not in checked:
            try:
                report = json.loads(text)
            except ValueError:
                checked[text] = ["report is not JSON"]
            else:
                verify_range = int(argv[argv.index("--verify-range") + 1])
                checked[text] = oracle.check_report(expr, verify_range, report, closed)
        problems.extend(f"{label}: {p}" for p in checked[text])


def end_to_end(ops, rounds, setups):
    per_op = {op[0]: [] for op in ops}
    for result in rounds:
        for op, got in zip(ops, result["ops"]):
            # a failed operation counts until its deadline
            wall = max(got["wall"], op[3] or 0.0) if _failed(got) else got["wall"]
            per_op[op[0]].append((wall, _failed(got)))
    wall_s = sum(statistics.median(w for w, _ in v) for v in per_op.values())
    completed = [
        statistics.median(w for w, f in v if not f)
        for v in per_op.values()
        if any(not f for _, f in v)
    ]
    gmean = math.exp(sum(map(math.log, completed)) / len(completed)) if completed else 0.0
    depth_saved = certified = 0
    for op, got in zip(ops, rounds[0]["ops"]):
        if not _failed(got):
            report = json.loads(got["stdout"])
            depth_saved += report["input_depth"] - report["output_depth"]
            certified += bool(report["optimality_certified"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "latency_gmean_s": (gmean, "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in rounds) / 1024, "MB"),
        "depth_saved": (depth_saved, "count"),
        "certified": (certified, "count"),
    }


def _op_medians_total(rounds):
    """Sum over operations of each one's median wall time."""
    return sum(
        statistics.median(r["ops"][i]["wall"] for r in rounds)
        for i in range(len(rounds[0]["ops"]))
    )


def per_layer(traced_rounds, untraced_rounds, problems):
    tables = [
        spans.layer_metrics([tuple(s) for got in r["ops"] for s in got.get("spans", ())])
        for r in traced_rounds
    ]
    for name in spans.COUNT_METRICS:
        if len({t[name] for t in tables}) != 1:
            problems.append(f"{name} differs between traced rounds: {[t[name] for t in tables]}")
    out = {}
    for name, unit in spans.LAYER_METRICS:
        exact = name in spans.COUNT_METRICS
        out[name] = (tables[0][name] if exact else statistics.median(t[name] for t in tables), unit)
    overhead = _op_medians_total(traced_rounds) / _op_medians_total(untraced_rounds) - 1
    out["trace.overhead_share"] = (overhead, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "nsopt", "cli.py")):
        print("perfbench: run from a checkout root with src/nsopt in it", file=sys.stderr)
        return 2

    # The checkout holds sources only.  Compile them once, as installing
    # a package would, so that every process imports bytecode whether or
    # not the environment lets Python write it.
    for folder in ("src", HERE):
        if not compileall.compile_dir(folder, quiet=1):
            print(f"perfbench: {folder} does not compile", file=sys.stderr)
            return 1

    t_start = time.perf_counter()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    setups, problems = [], []
    rounds = {"timed": [], "traced": []}
    # a traced run alternates untraced and traced rounds, so that both see
    # the machine in the same state; their difference is the overhead
    modes = ("timed", "traced") if args.trace else ("timed",)
    min_rounds = 4 if args.trace else 1
    try:
        durations = []
        while True:
            mode = modes[len(durations) % len(modes)]
            t0 = time.perf_counter()
            remaining = MAX_RUN_S - (t0 - t_start)
            setup, result = run_worker(args.workload, args.seed, mode, remaining)
            setups.append(setup)
            rounds[mode].append(result)
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_start
            next_end = elapsed + len(modes) * statistics.median(durations)
            whole = len(durations) % len(modes) == 0
            if whole and len(durations) >= min_rounds and next_end > args.seconds:
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(args.workload, args.seed, "setup", 60)[0])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checked = {}
    every_round = rounds["timed"] + rounds["traced"]
    for result in every_round:
        check_round(ops, result, checked, problems)
    for i, op in enumerate(ops):
        if len({r["ops"][i]["stdout"] for r in every_round}) != 1:
            problems.append(f"{op[0]}: reports differ between rounds")

    os.makedirs(".perfbench", exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    with open(f".perfbench/walls-{tag}.json", "w") as fh:
        json.dump({"setup_s": setups, "rounds": [
            {o["label"]: o["wall"] for o in r["ops"]} for r in every_round
        ]}, fh)
    if args.trace:
        metrics = per_layer(rounds["traced"], rounds["timed"], problems)
        with open(f".perfbench/trace-{tag}.json", "w") as fh:
            json.dump([[o.get("spans", []) for o in r["ops"]] for r in rounds["traced"]], fh)
    else:
        metrics = end_to_end(ops, rounds["timed"], setups)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    attempted = len(ops) * len(every_round)
    failed = sum(_failed(o) for r in every_round for o in r["ops"])
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
