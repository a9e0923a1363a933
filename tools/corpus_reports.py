"""Byte-identity corpus: every report of `nsopt simplify`, one process each.

    python3 tools/corpus_reports.py run OUT.json [--root CHECKOUT]
    python3 tools/corpus_reports.py diff A.json B.json

`run` runs each corpus input as its own `python -m nsopt.cli simplify
--json` process, with CHECKOUT/src on PYTHONPATH (default: the checkout
holding this file), and writes the exit code, stdout and stderr of each
to OUT.json.  `diff` compares two such files and exits 1 when any
invocation differs in a byte.

The corpus comes from CHECKOUT/perfbench/workloads.py, which is read and
never changed: the seven acceptance fixtures at --verify-range 60, the
search_heavy inputs at range 5 with no deadline, the sweep_long inputs at
range 150 and the iterated_batch inputs of seed 1 at range 20.  An extra/
group, listed here in EXTRA, adds four slow inputs from outside the
benchmark at range 5: their searches adjoin the most generators.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = ("FLAGSHIP", "A4", "A5", "B_DEPTH7", "BINOM_A1", "BINOM_A2", "BINOM_B")
EXTRA = (
    "sum(i,1,n,sum(j,2,i,sum(k,1,j,1/k^2)/j)/(i+1))",
    "sum(i,0,n,sum(j,1,i,5*((3*j+4)/(j+3)^2)^2)*1/(i+3))",
    "sum(i,0,n,H(i)*1/(2*i+3))",
    "sum(i,0,n,sum(j,3,i,sum(k,2,j,5/2*H(k)*(1/(3*k+3))))*1/(3*i+2))",
)


def _workloads(root):
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("corpus_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def corpus(root):
    """(label, argv after `simplify`) for every invocation, in a fixed order."""
    wl = _workloads(root)
    out = []
    for name in FIXTURES:
        argv = ["--verify-range", "60"]
        if name.startswith("BINOM"):
            argv += list(wl.BINOM_PRODUCT)
        out.append((f"fixture/{name}", argv + [getattr(wl, name)]))
    for workload in ("search_heavy", "sweep_long", "iterated_batch"):
        ops = wl.WORKLOADS[workload](1)
        for label, expr, argv, _deadline, _closed in sorted(ops):
            out.append((f"{workload}/{label}", list(argv) + [expr]))
    for i, expr in enumerate(EXTRA):
        out.append((f"extra/{i}", ["--verify-range", "5", expr]))
    return out


def run(root, out_path):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    results = []
    for label, argv in corpus(root):
        cmd = [sys.executable, "-m", "nsopt.cli", "simplify", "--json", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        results.append({
            "label": label,
            "argv": argv,
            "code": proc.returncode,
            "stdout": proc.stdout,
            "stderr": proc.stderr,
        })
        print(f"{label}: exit {proc.returncode}", file=sys.stderr)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0


def diff(a_path, b_path):
    with open(a_path, encoding="utf-8") as fh:
        a = {r["label"]: r for r in json.load(fh)}
    with open(b_path, encoding="utf-8") as fh:
        b = {r["label"]: r for r in json.load(fh)}
    same = 0
    for label in sorted(a.keys() | b.keys()):
        ra, rb = a.get(label), b.get(label)
        if ra is None or rb is None:
            print(f"{label}: only in {a_path if rb is None else b_path}")
            continue
        fields = [k for k in ("argv", "code", "stdout", "stderr") if ra[k] != rb[k]]
        if fields:
            print(f"{label}: differs in {', '.join(fields)}")
        else:
            same += 1
    total = len(a.keys() | b.keys())
    print(f"{same} of {total} invocations byte-identical")
    return 0 if same == total else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run the corpus and record every report")
    r.add_argument("out")
    r.add_argument("--root", default=os.path.dirname(HERE),
                   help="checkout whose src and perfbench/workloads.py are used")
    d = sub.add_parser("diff", help="compare two recorded runs")
    d.add_argument("a")
    d.add_argument("b")
    args = ap.parse_args(argv)
    if args.command == "run":
        return run(os.path.abspath(args.root), args.out)
    return diff(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
