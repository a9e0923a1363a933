"""Byte-identity corpus: every report of `nsopt simplify`, `nsopt
telescope` and `nsopt verify` on a fixed set of inputs, 116 invocations,
one process each.

    python3 tools/corpus_reports.py run OUT.json [--root CHECKOUT]
    python3 tools/corpus_reports.py diff A.json B.json
    python3 tools/corpus_reports.py audit RUN.json [--root CHECKOUT]

`run` runs each corpus invocation as its own `python -m nsopt.cli ...`
process, with CHECKOUT/src on PYTHONPATH (default: the checkout holding
this file), and writes the exit code, stdout and stderr of each to
OUT.json, with the wall seconds each process took, and prints the five
slowest.  A process still running after DEADLINE_S seconds is killed and
recorded with the code "timeout", so a checkout that hangs on an input
still yields a file to diff.  `diff` compares two such files on argv, exit
code, stdout and stderr, never on the seconds, and exits 1 when any
invocation differs in a byte.  For each differing invocation it prints a
changed exit code, and for a `simplify --json` report on either side
(input_depth, output_depth, optimality_certified, len(output_text))
before -> after.  Then it prints three corpus totals, before -> after,
over the `simplify --json` reports that exited 0: the generators of their
tower_summary, the `sum(` printed in their output_text, and the
characters of their output_text.  It ends with the count of
byte-identical invocations and a tally of the differing ones: depth
lower, certification gained, refusal answered (a nonzero exit, a timeout
included, that became exit 0), text only (same depth and certification),
worse (depth higher, certification lost, or a new nonzero exit), and the
rest, which are not a simplify report on both sides.

`audit` checks idempotence: for every `simplify --json` report of RUN.json
that exited 0, it runs `simplify --json` again, with the same flags, on
the report's output_text, through CHECKOUT/src as `run` does.  It exits 1
when a re-run lowers the output depth, when a certified report comes back
uncertified, or when a re-run does not exit 0, and prints each such
report.  A certified output that re-simplifies lower refutes its
certificate.

The simplify inputs come from CHECKOUT/perfbench/workloads.py, which is
read and never changed: the seven acceptance fixtures at --verify-range
60, the search_heavy inputs at range 5 with no deadline, the sweep_long
inputs at range 150 and the iterated_batch inputs of seed 1 at range 20,
all with --json.  An extra/ group, listed here in EXTRA, adds four slow
simplify inputs from outside the benchmark at range 5: their searches
adjoin the most generators.  A products/ group, listed in PRODUCTS, runs
simplify at range 5 under declared products: two declarations where one
product is the 7th power of the other, and sum(i,1,n,1/i) under four
constant products and under three rational ones, so the reports cover
the product check, and a sum whose product-weighted summand needs a sum
over the quadratic atom j^2 + 1 with numerator j.  A telescope/ group, listed in TELESCOPE,
runs `nsopt telescope` on four summands: one solved over an adjoined
generator, one with no solution (its certificate text), one that adjoins
a generator over another, and one over the BINOM_PRODUCT product.  A
lambda/ group, listed in LAMBDA, runs simplify at range 8 on three inputs
whose printed outputs have poles at small k, so the reports cover where
lambda is read off the printed output.  A budget/ group, listed in
BUDGET, runs simplify at range 5 on two summands of degree past the
degree limit, so the reports cover the refusal (exit 3), and on one of
degree 100 whose generator search gives up at its budget.  A large/
group, listed in LARGE, runs simplify at range 5 on five summands with
coefficients or degrees past what the engine once refused or hung on, and
`nsopt telescope` on one of them.  A planted/
group runs simplify on the 30 planted-answer draws of tests/test_fuzz.py
(`planted_draws`, read from the checkout holding this file), at range 8
for a planted depth of 2 and 6 for a depth of 3, so a change to the
search shows as listed report changes.  A verify/ group, listed in VERIFY,
runs `nsopt verify` on three pairs: the README's equal pair, a pair that
differs from k = 1 on (exit 1), and a pair whose inner sum's body reads
the outer index, so the evaluator loops that sum in full.  An h_sugar/
group runs the README's `simplify --h-sugar` on FLAGSHIP and `telescope
--h-sugar` on H(n+1)/(n+1), so the reports cover the H(o,n) printing.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = ("FLAGSHIP", "A4", "A5", "B_DEPTH7", "BINOM_A1", "BINOM_A2", "BINOM_B")
EXTRA = (
    "sum(i,1,n,sum(j,2,i,sum(k,1,j,1/k^2)/j)/(i+1))",
    "sum(i,0,n,sum(j,1,i,5*((3*j+4)/(j+3)^2)^2)*1/(i+3))",
    "sum(i,0,n,H(i)*1/(2*i+3))",
    "sum(i,0,n,sum(j,3,i,sum(k,2,j,5/2*H(k)*(1/(3*k+3))))*1/(3*i+2))",
)
# (declared products, expression)
PRODUCTS = (
    (("p:2:1", "q:128:1"), "sum(i,1,n,prod(t,1,i,128)-prod(t,1,i,2)^7)"),
    (("p:128:1", "q:2:1"), "sum(i,1,n,prod(t,1,i,2)^7-prod(t,1,i,128))"),
    (("a:2:1", "b:3:1", "c:5:1", "d:7:1"), "sum(i,1,n,1/i)"),
    (("a:n+1:1", "b:(n+1)/(2*(2*n+1)):1", "c:(2*n+1)/(n+3):1"), "sum(i,1,n,1/i)"),
    (("p:2:1",), "sum(i,1,n,(1/(i+1)-1/(2*i))*prod(t,1,i,2)*sum(j,1,i,1/(j^2+1)))"),
)
LAMBDA = (
    "sum(i,1,n,1/i) - 3/2 + sum(i,4,n,1/((i-3)*(i-2)))",
    "H(n) + sum(i,4,n,3/((i-4)*(i-4+3))) - 11/6",
    "sum(i,3,n,sum(j,1,i,1/((j-3)*(j-3+1)))) - 1",
)
# past algebra._DEGREE_LIMIT: i^800 took 93 s without the limit, and
# i^100000 was still running after 300 s; 1/(i^100+1) is admitted, and its
# depth-1 search gives up after one relation solve over its first block,
# the 99 candidates sigma(x^j/(x^100+1)) with 0 < j < 100, past
# _ADJOIN_BUDGET, for the certified fallback (it once exited 3 on a
# first-pass candidate of degree 600 that the search built and discarded)
BUDGET = ("sum(i,1,n,i^800)", "sum(i,1,n,i^100000)", "sum(i,1,n,1/(i^100+1))")
# summands whose constant terms, roots or powers are large: the first two
# once exited 3 (integer-root search, shift window), the third still does
# (shift window), (i+1)^100000 once hung in the parser's power, and
# 1/(i^40+1) took 2.7 s in integer gcds of coprime shifts, then 0.3 s in
# their gcds mod a prime, and 0.1 s since the shift window is centred on
# the root centroids
LARGE = (
    "1/(i^2+1000000000000037)",
    "1/(i^3+10^30*i+1)",
    "1/(i^4+10^30*i+1)",
    "(i+1)^100000",
    "1/(i^40+1)",
)
LARGE_TELESCOPE = "1/(n^2+1000000000000037)"
# per-invocation wall-clock deadline, far above the slowest invocation as
# `run` times it (planted/11 and budget/2, each at 0.17-0.33 s over two
# runs, on a shared 2-core machine)
DEADLINE_S = 30
# (lhs, rhs, --range) of `nsopt verify`
VERIFY = (
    ("H(n)^2", "sum(i,1,n,(2*H(i)-1/i)/i)", "30"),
    ("H(n)", "sum(i,1,n,1/(i+1))", "10"),
    ("sum(i,1,n,sum(j,1,i,i/j))", "sum(i,1,n,i*H(i))", "20"),
)
H_SUGAR_TELESCOPE = "H(n+1)/(n+1)"
# (summand, declares BINOM_PRODUCT)
TELESCOPE = (
    ("H(n+1)/(n+1)", False),
    ("1/(n+1)", False),
    ("sum(j,1,n,1/j^2)/(n+1)", False),
    ("prod(t,1,n,t/(2*(2*t-1)))/(2*n+1)", True),
)


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def corpus(root):
    """(label, argv after `nsopt`) for every invocation, in a fixed order."""
    wl = _load(os.path.join(root, "perfbench", "workloads.py"), "corpus_workloads")
    fuzz = _load(os.path.join(os.path.dirname(HERE), "tests", "test_fuzz.py"), "corpus_fuzz")
    simplify = ["simplify", "--json"]
    out = []
    for name in FIXTURES:
        argv = simplify + ["--verify-range", "60"]
        if name.startswith("BINOM"):
            argv += list(wl.BINOM_PRODUCT)
        out.append((f"fixture/{name}", argv + [getattr(wl, name)]))
    for workload in ("search_heavy", "sweep_long", "iterated_batch"):
        ops = wl.WORKLOADS[workload](1)
        for label, expr, argv, _deadline, _closed in sorted(ops):
            out.append((f"{workload}/{label}", simplify + list(argv) + [expr]))
    for i, expr in enumerate(EXTRA):
        out.append((f"extra/{i}", simplify + ["--verify-range", "5", expr]))
    for i, (specs, expr) in enumerate(PRODUCTS):
        products = [arg for spec in specs for arg in ("--with-product", spec)]
        out.append((f"products/{i}", simplify + ["--verify-range", "5", *products, expr]))
    for i, (expr, binom) in enumerate(TELESCOPE):
        products = list(wl.BINOM_PRODUCT) if binom else []
        out.append((f"telescope/{i}", ["telescope", *products, expr]))
    for i, expr in enumerate(LAMBDA):
        out.append((f"lambda/{i}", simplify + ["--verify-range", "8", expr]))
    for i, expr in enumerate(BUDGET):
        out.append((f"budget/{i}", simplify + ["--verify-range", "5", expr]))
    for i, summand in enumerate(LARGE):
        out.append((f"large/{i}", simplify + ["--verify-range", "5", f"sum(i,1,n,{summand})"]))
    out.append((f"large/{len(LARGE)}", ["telescope", LARGE_TELESCOPE]))
    for i, (expr, planted) in enumerate(fuzz.planted_draws()):
        vrange = str(fuzz.PLANTED_RANGE[planted])
        out.append((f"planted/{i}", simplify + ["--verify-range", vrange, expr]))
    for i, (lhs, rhs, vrange) in enumerate(VERIFY):
        out.append((f"verify/{i}", ["verify", lhs, rhs, "--range", vrange]))
    out.append(("h_sugar/0", ["simplify", wl.FLAGSHIP, "--h-sugar"]))
    out.append(("h_sugar/1", ["telescope", H_SUGAR_TELESCOPE, "--h-sugar"]))
    return out


def _env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _invoke(argv, env):
    """(exit code, stdout, stderr) of `python -m nsopt.cli ARGV`; the code
    is "timeout" for a process killed at DEADLINE_S."""
    cmd = [sys.executable, "-m", "nsopt.cli", *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        return "timeout", "", ""
    return proc.returncode, proc.stdout, proc.stderr


def run(root, out_path):
    env = _env(root)
    results = []
    for label, argv in corpus(root):
        start = time.perf_counter()
        code, stdout, stderr = _invoke(argv, env)
        results.append({
            "label": label,
            "argv": argv,
            "code": code,
            "stdout": stdout,
            "stderr": stderr,
            "seconds": round(time.perf_counter() - start, 3),
        })
        print(f"{label}: exit {code}", file=sys.stderr)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    slowest = sorted(results, key=lambda r: r["seconds"], reverse=True)[:5]
    print("slowest: " + ", ".join(f"{r['label']} {r['seconds']:.2f} s" for r in slowest))
    return 0


def _summary(rec):
    """(input_depth, output_depth, optimality_certified, len(output_text))
    of a `simplify --json` report, or None when rec holds no such report."""
    if rec["argv"][:2] != ["simplify", "--json"]:
        return None
    try:
        rep = json.loads(rec["stdout"])
        return (rep["input_depth"], rep["output_depth"],
                rep["optimality_certified"], len(rep["output_text"]))
    except (ValueError, KeyError):
        return None


def _totals(records):
    """(generators, printed sums, output characters) summed over the
    `simplify --json` reports of records that exited 0."""
    gens = sums = chars = 0
    for rec in records:
        if rec["argv"][:2] != ["simplify", "--json"] or rec["code"] != 0:
            continue
        rep = json.loads(rec["stdout"])
        gens += len(rep["tower_summary"]["generators"])
        sums += rep["output_text"].count("sum(")
        chars += len(rep["output_text"])
    return gens, sums, chars


def _kind(code_a, code_b, before, after):
    """Which way an invocation changed, judged on its exit codes and then
    on its simplify summaries."""
    if code_a != 0 and code_b == 0:
        return "refusal answered"
    if code_a == 0 and code_b != 0:
        return "worse"
    if before is None or after is None:
        return "not two simplify reports"
    if after[1] > before[1] or (before[2] and not after[2]):
        return "worse"
    if after[1] < before[1]:
        return "depth lower"
    if after[2] and not before[2]:
        return "certification gained"
    return "text only"


def diff(a_path, b_path):
    with open(a_path, encoding="utf-8") as fh:
        a = {r["label"]: r for r in json.load(fh)}
    with open(b_path, encoding="utf-8") as fh:
        b = {r["label"]: r for r in json.load(fh)}
    same = 0
    tally = dict.fromkeys(("depth lower", "certification gained", "refusal answered",
                           "text only", "worse", "not two simplify reports"), 0)
    for label in sorted(a.keys() | b.keys()):
        ra, rb = a.get(label), b.get(label)
        if ra is None or rb is None:
            print(f"{label}: only in {a_path if rb is None else b_path}")
            tally["not two simplify reports"] += 1
            continue
        fields = [k for k in ("argv", "code", "stdout", "stderr") if ra[k] != rb[k]]
        if not fields:
            same += 1
            continue
        before, after = _summary(ra), _summary(rb)
        tally[_kind(ra["code"], rb["code"], before, after)] += 1
        change = f"; exit {ra['code']} -> {rb['code']}" if "code" in fields else ""
        if before is not None or after is not None:
            change += f"; {before} -> {after}"
        print(f"{label}: differs in {', '.join(fields)}{change}")
    names = ("generators", "printed sums", "output characters")
    pairs = zip(names, _totals(a.values()), _totals(b.values()))
    print("totals: " + ", ".join(f"{n} {x} -> {y}" for n, x, y in pairs))
    total = len(a.keys() | b.keys())
    print(f"{same} of {total} invocations byte-identical")
    if same < total:
        print("differing: " + ", ".join(f"{n} {k}" for k, n in tally.items()))
    return 0 if same == total else 1


def idempotence_failure(report, again):
    """Why re-simplifying report's output breaks idempotence, or None.
    Both are parsed `simplify --json` reports; again is None when the
    re-run did not exit 0."""
    if again is None:
        return "re-run did not exit 0"
    if again["output_depth"] < report["output_depth"]:
        return f"depth {report['output_depth']} -> {again['output_depth']}"
    if report["optimality_certified"] and not again["optimality_certified"]:
        return "certified -> uncertified"
    return None


def audit(run_path, root):
    with open(run_path, encoding="utf-8") as fh:
        records = json.load(fh)
    env = _env(root)
    checked = failed = 0
    for rec in records:
        if rec["argv"][:2] != ["simplify", "--json"] or rec["code"] != 0:
            continue
        report = json.loads(rec["stdout"])
        # every corpus simplify invocation ends with its expression
        code, stdout, _ = _invoke(rec["argv"][:-1] + [report["output_text"]], env)
        why = idempotence_failure(report, json.loads(stdout) if code == 0 else None)
        checked += 1
        if why is not None:
            failed += 1
            print(f"{rec['label']}: {why}")
    print(f"{checked - failed} of {checked} simplify reports re-simplify"
          " no lower and keep their certification")
    return 0 if failed == 0 else 1


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
    u = sub.add_parser("audit", help="re-simplify every simplify output of a run")
    u.add_argument("run")
    u.add_argument("--root", default=os.path.dirname(HERE),
                   help="checkout whose src re-simplifies the outputs")
    args = ap.parse_args(argv)
    if args.command == "run":
        return run(os.path.abspath(args.root), args.out)
    if args.command == "audit":
        return audit(args.run, os.path.abspath(args.root))
    return diff(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
