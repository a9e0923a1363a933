"""cProfile of one benchmark workload's operations, all in one process.

    python3 tools/profile_ops.py WORKLOAD [--sort tottime|cumulative] [--limit N]
                                          [--root CHECKOUT]

Builds the operations of WORKLOAD (search_heavy, sweep_long or
iterated_batch) for seed 1 from CHECKOUT/perfbench/workloads.py, which is
read and never changed, and runs each as
`nsopt.cli.main(["simplify", "--json", ...])` under one profiler, with
CHECKOUT/src first on the import path (default: the checkout holding this
file).  Per-operation deadlines are not applied.  Prints each operation's
exit code and wall time on standard error, then the profile's top LIMIT
functions by the chosen sort.
"""

import argparse
import contextlib
import cProfile
import importlib.util
import io
import os
import pstats
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
    label, expr, argv, _deadline, _closed = op
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["simplify", "--json", *argv, expr])
        except SystemExit as exc:
            code = exc.code
    print(f"{label}: exit {code}, {time.perf_counter() - t0:.2f} s", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime")
    ap.add_argument("--limit", type=int, default=30)
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout whose src and perfbench/workloads.py are used")
    args = ap.parse_args(argv)
    if args.limit < 1:
        ap.error("--limit must be positive")
    root = os.path.abspath(args.root)
    wl = _workloads(root)
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}")
    sys.path.insert(0, os.path.join(root, "src"))
    from nsopt.cli import main as nsopt_main

    ops = wl.WORKLOADS[args.workload](1)
    profiler = cProfile.Profile()
    profiler.enable()
    for op in ops:
        _run(nsopt_main, op)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
