"""One round of a workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is `timed` (no tracing), `traced` (spans around nsopt's public
functions) or `setup` (stop once ready).  The worker imports nsopt, builds
the inputs from the seed and notes the time (`t_ready`, on the monotonic
clock that `time.perf_counter` reads, so the parent can subtract its own
spawn time).  Then it runs every operation once, in order, one at a time:
as its own `nsopt simplify --json` process for search_heavy and
sweep_long, through `nsopt.cli.main` in this process for iterated_batch.
It prints one JSON line with the timings, the reports and, when traced,
the spans.  It runs from the root of a checkout with `src` on PYTHONPATH.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import nsopt.cli

import spans
import workloads

STATE_DIR = ".perfbench"
HERE = os.path.dirname(os.path.abspath(__file__))


def _write_inputs(workload, ops):
    """Each subprocess operation reads its expression through --file, so
    expressions that start with '-' need no special handling."""
    folder = os.path.join(STATE_DIR, "inputs", workload)
    os.makedirs(folder, exist_ok=True)
    paths = []
    for label, expr, *_ in ops:
        path = os.path.join(folder, f"{label}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(expr)
        paths.append(path)
    return paths


def _run_subprocess(op, path, traced):
    label, _expr, argv, deadline, _closed = op
    if traced:
        span_file = os.path.join(STATE_DIR, "spans", f"{label}.json")
        os.makedirs(os.path.dirname(span_file), exist_ok=True)
        if os.path.exists(span_file):
            os.remove(span_file)
        cmd = [sys.executable, os.path.join(HERE, "traced_nsopt.py"), span_file]
    else:
        cmd = [sys.executable, "-m", "nsopt.cli"]
    cmd += ["simplify", "--json", *argv, "--file", path]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=deadline)
    except subprocess.TimeoutExpired:
        # run() has killed the process and waited for it
        return {"label": label, "wall": deadline, "code": None, "stdout": ""}
    out = {
        "label": label,
        "wall": time.perf_counter() - t0,
        "code": proc.returncode,
        "stdout": proc.stdout,
    }
    if traced and proc.returncode == 0:
        with open(span_file, encoding="utf-8") as fh:
            out["spans"] = json.load(fh)
    return out


def _run_in_process(op, recorder):
    label, expr, argv, _deadline, _closed = op
    first = len(recorder.spans) if recorder else 0
    buf, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            code = nsopt.cli.main(["simplify", "--json", *argv, expr])
        except SystemExit as exc:
            code = exc.code
    out = {
        "label": label,
        "wall": time.perf_counter() - t0,
        "code": code,
        "stdout": buf.getvalue(),
    }
    if recorder:
        out["spans"] = [list(s) for s in recorder.spans[first:]]
    return out


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    ops = workloads.WORKLOADS[workload](seed)
    subprocess_ops = workload in workloads.SUBPROCESS_WORKLOADS
    paths = _write_inputs(workload, ops) if subprocess_ops else None
    t_ready = time.perf_counter()
    result = {"t_ready": t_ready, "ops": []}
    if mode != "setup":
        traced = mode == "traced"
        recorder = None
        if traced and not subprocess_ops:
            recorder = spans.Recorder()
            spans.install(recorder)
        for i, op in enumerate(ops):
            if subprocess_ops:
                result["ops"].append(_run_subprocess(op, paths[i], traced))
            else:
                result["ops"].append(_run_in_process(op, recorder))
        who = resource.RUSAGE_CHILDREN if subprocess_ops else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
