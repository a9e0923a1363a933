"""cProfile or timing of one benchmark workload's operations, in one process or fresh ones.

    python3 tools/profile_ops.py WORKLOAD [--sort tottime|cumulative] [--limit N]
                                          [--root CHECKOUT] [--time N | --fresh N]

Builds the operations of WORKLOAD (search_heavy, sweep_long or
iterated_batch) for seed 1 from CHECKOUT/perfbench/workloads.py, which is
read and never changed, and runs each as
`nsopt.cli.main(["simplify", "--json", ...])` under one profiler, with
CHECKOUT/src first on the import path (default: the checkout holding this
file).  Per-operation deadlines are not applied.  Prints each operation's
exit code and wall time on standard error, then the profile's top LIMIT
functions by the chosen sort.

With --time N there is no profiler: each operation runs N times in a row,
and the median of its wall times is printed, then the total of the
medians.  nsopt is imported once, before the first run, so the figures
are compute time, without the interpreter start-up and imports that each
operation of the benchmark pays in its own process.  Each median is
followed by the medians of its parts: parse, compile, reinterpret plus
to_src, the sweep (the evaluate calls of cmd_simplify) and the rest.  The
parts are timed by wrapping the names `nsopt.cli` looks up, as
perfbench/spans.py does, so no file of the program changes.

With --fresh N each operation runs once in each of N fresh interpreters,
as the benchmark runs it: CHECKOUT/src is first compiled to bytecode, as
perfbench/run.py does, so the imports read it.  Each child imports
nsopt.cli and runs the operation through `nsopt.cli.run`, the process
entry that `python -m nsopt.cli` uses, and stamps the monotonic clock,
which parent and child share, at its start, after the import and when
the entry returns.  With the parent's stamps at spawn and at exit, that
splits the whole process into start (interpreter start-up up to the
child's first line), import, main (the entry: main() and what run() adds
around it) and exit (interpreter shutdown).  The medians of the five are
printed per operation, then their totals.  The operation's first-run
costs show in main, which --time's warm repeats leave out.
"""

import argparse
import compileall
import contextlib
import cProfile
import importlib.util
import io
import json
import os
import pstats
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _workloads(root):
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("profile_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run(main, op):
    """(exit code, wall seconds) of one operation."""
    _label, expr, argv, _deadline, _closed = op
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["simplify", "--json", *argv, expr])
        except SystemExit as exc:
            code = exc.code
    return code, time.perf_counter() - t0


# the parts of an operation's wall time, each the names nsopt.cli looks up
PARTS = (
    ("parse", ("parse",)),
    ("compile", ("compile",)),
    ("reinterpret", ("reinterpret", "to_src")),
    ("sweep", ("evaluate",)),
)


def _wrap_parts(cli):
    """Wrap the names of PARTS in the module cli; returns the dict of
    seconds per part that the wrappers add to."""
    spent = dict.fromkeys([part for part, _ in PARTS], 0.0)

    def timed(fn, part):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[part] += time.perf_counter() - t0
        return run

    for part, names in PARTS:
        for name in names:
            setattr(cli, name, timed(getattr(cli, name), part))
    return spent


def _time(cli, ops, repeats):
    spent = _wrap_parts(cli)
    names = [part for part, _ in PARTS] + ["rest"]
    total, part_totals = 0.0, dict.fromkeys(names, 0.0)
    for op in ops:
        runs = []
        for _ in range(repeats):
            spent.update(dict.fromkeys(spent, 0.0))
            code, wall = _run(cli.main, op)
            runs.append((code, wall, {**spent, "rest": wall - sum(spent.values())}))
        median = statistics.median(t for _, t, _ in runs)
        total += median
        split = []
        for name in names:
            m = statistics.median(parts[name] for _, _, parts in runs)
            part_totals[name] += m
            split.append(f"{name} {m:.3f}")
        codes = sorted({code for code, _, _ in runs})
        print(f"{op[0]:<16} exit {','.join(map(str, codes))}  median {median:.3f} s"
              f"  ({repeats} runs)  {'  '.join(split)}")
    split = "  ".join(f"{name} {part_totals[name]:.3f}" for name in names)
    print(f"{'total':<16} {total:.3f} s  {split}")


# one operation in a fresh interpreter: argv[1] is the src directory,
# argv[2] the JSON command line; prints [exit code, monotonic stamps at
# the start, after the import and when the process entry returned]
_FRESH = """
import contextlib, io, json, sys, time
t0 = time.monotonic()
sys.path.insert(0, sys.argv[1])
from nsopt import cli
t1 = time.monotonic()
sys.argv = ["nsopt", *json.loads(sys.argv[2])]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.run()
    except SystemExit as exc:
        code = exc.code
t2 = time.monotonic()
print(json.dumps([code, t0, t1, t2]))
"""


def _fresh(src, ops, repeats):
    if not compileall.compile_dir(src, quiet=1):
        sys.exit(f"{src} does not compile")
    names = ("start", "import", "main", "exit", "process")
    totals = dict.fromkeys(names, 0.0)
    for label, expr, argv, _deadline, _closed in ops:
        cmd = json.dumps(["simplify", "--json", *argv, expr])
        codes, runs = set(), []
        for _ in range(repeats):
            spawn = time.monotonic()
            proc = subprocess.run([sys.executable, "-c", _FRESH, src, cmd],
                                  capture_output=True, text=True, check=True)
            end = time.monotonic()
            code, *stamps = json.loads(proc.stdout)
            codes.add(code)
            bounds = [spawn, *stamps, end]
            parts = [b - a for a, b in zip(bounds, bounds[1:])]
            runs.append(dict(zip(names, (*parts, end - spawn))))
        split = []
        for name in names:
            m = statistics.median(run[name] for run in runs)
            totals[name] += m
            split.append(f"{name} {m:.3f}")
        print(f"{label:<16} code {','.join(map(str, sorted(codes)))}  "
              f"{'  '.join(split)} s  ({repeats} processes)")
    split = "  ".join(f"{name} {totals[name]:.3f}" for name in names)
    print(f"{'total':<16} {split} s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime")
    ap.add_argument("--limit", type=int, default=30)
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout whose src and perfbench/workloads.py are used")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--time", type=int, metavar="N",
                      help="time each operation N times without the profiler")
    mode.add_argument("--fresh", type=int, metavar="N",
                      help="time each operation in N fresh interpreters")
    args = ap.parse_args(argv)
    if args.limit < 1:
        ap.error("--limit must be positive")
    for flag in ("time", "fresh"):
        if getattr(args, flag) is not None and getattr(args, flag) < 1:
            ap.error(f"--{flag} must be positive")
    root = os.path.abspath(args.root)
    wl = _workloads(root)
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}")
    ops = wl.WORKLOADS[args.workload](1)
    if args.fresh is not None:
        _fresh(os.path.join(root, "src"), ops, args.fresh)
        return 0
    sys.path.insert(0, os.path.join(root, "src"))
    from nsopt import cli

    if args.time is not None:
        _time(cli, ops, args.time)
        return 0
    profiler = cProfile.Profile()
    profiler.enable()
    for op in ops:
        code, seconds = _run(cli.main, op)
        print(f"{op[0]}: exit {code}, {seconds:.2f} s", file=sys.stderr)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
