"""Seeded fuzz of `nsopt simplify` over nested sums with poles at small
indices, over quadratic and squared-linear atoms under rational outer
weights, and over sums with a planted shallower form, each exit-0 report
checked by the independent oracle in perfbench/oracle.py.

The planted draws (`planted_draws`) are also a group of
tools/corpus_reports.py, which loads this file without nsopt on the path,
so nsopt is imported where the reports are made."""

import importlib.util
import json
import os
import random

_ORACLE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "oracle.py")
_spec = importlib.util.spec_from_file_location("fuzz_oracle", _ORACLE)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

SEED = 2
COUNT = 100
ATOM_SEED = 3
ATOM_COUNT = 40
VERIFY_RANGE = 8
# 0 is success, 3 an unsupported shape; 4 (the sweep found a mismatch)
# must never happen
ALLOWED = (0, 3)


def _summand(rng, v):
    a, b = rng.randint(0, 4), rng.randint(1, 3)
    return rng.choice((
        f"1/(({v}-{a})*({v}-{a}+1))",
        f"{b}/(({v}-{a})*({v}-{a}+{b}))",
        f"1/({v}+{a})",
    ))


def _term(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(("H(n)", "H(2,n)", "sum(i,1,n,H(i)/i)"))
    if kind == 1:
        return f"sum(i,{rng.randint(0, 6)},n,{_summand(rng, 'i')})"
    inner = f"sum(j,{rng.randint(0, 6)},i,{_summand(rng, 'j')})"
    return f"sum(i,{rng.randint(0, 6)},n,{inner})"


def _expression(rng):
    text = " + ".join(_term(rng) for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.5:
        c = f"{rng.randint(1, 12)}/{rng.randint(1, 6)}"
        text += rng.choice((" + ", " - ")) + c
    return text


def _atom(rng, v):
    a, c = rng.randint(0, 3), rng.randint(1, 3)
    return rng.choice((
        f"1/({v}^2+{c})",
        # telescopes: the difference of 1/(v^2+c) and its shift
        f"(2*{v}+1)/(({v}^2+{c})*(({v}+1)^2+{c}))",
        f"1/({v}+{a})^2",
        f"({c}*{v}+1)/({v}+{a})^2",
    ))


def _weighted_expression(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return f"sum(i,{rng.randint(0, 3)},n,{_atom(rng, 'i')})"
    inner = f"sum(j,{rng.randint(0, 3)},i,{_atom(rng, 'j')})"
    if kind == 1:
        return f"sum(i,{rng.randint(0, 3)},n,{inner})"
    weight = f"{rng.randint(1, 5)}/({rng.randint(1, 2)}*i+{rng.randint(1, 3)})"
    return f"sum(i,{rng.randint(0, 3)},n,{inner}*{weight})"


# Planted by summation by parts: for w with a rational antidifference W,
# W(i) - W(i-1) = w(i), and A(i) = sum(j,1,i,a(j)),
#   sum(i,1,n,w(i)*A(i)) = W(n)*A(n) - sum(j,1,n,W(j-1)*a(j)),
# one nesting level below the input.  Family A takes a rational a(j): its
# planted form has depth 2.  Family B nests once more, a(j) =
# b(j)*sum(k,1,j,c(k)): its planted form has depth 3.  A certified report
# is optimal, so it is never deeper than the planted form.
PLANTED_SEED = 5
PLANTED_COUNT = 30
PLANTED_RANGE = {2: 8, 3: 6}  # verify range by planted depth
_WEIGHTS = ("1", "(2*i+1)", "(3*i^2+3*i+1)", "1/(i*(i+1))",
            "1/((i+1)*(i+2))", "1/((2*i+1)*(2*i+3))")


def _planted_atom(rng, v):
    c = rng.randint(1, 3)
    return rng.choice((
        f"1/({v}+{c})",
        f"1/({v}^2+{c})",
        f"1/({v}^2+{v}+{c})",
        f"1/({v}+{c})^2",
        f"({c}*{v}+1)/({v}+{c})^2",
    ))


def planted_draws(seed=PLANTED_SEED, count=PLANTED_COUNT):
    """(expression, planted depth) pairs: two of family A to one of B."""
    rng = random.Random(seed)
    out = []
    for draw in range(count):
        w = rng.choice(_WEIGHTS)
        if draw % 3 == 2:
            inner = f"sum(k,1,j,{_planted_atom(rng, 'k')})"
            inner = f"sum(j,1,i,{_planted_atom(rng, 'j')}*{inner})"
            out.append((f"sum(i,1,n,{inner}*{w})", 3))
        else:
            inner = f"sum(j,1,i,{_planted_atom(rng, 'j')})"
            out.append((f"sum(i,1,n,{inner}*{w})", 2))
    return out


def _check_all(expressions, capsys, verify_range=VERIFY_RANGE):
    """Run and check every expression; the exit-0 reports, in order."""
    from nsopt.cli import main

    reports = []
    for expression in expressions:
        try:
            code = main(["simplify", "--json", "--verify-range",
                         str(verify_range), expression])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code in ALLOWED, (expression, code, err)
        if code == 0:
            report = json.loads(out)
            assert oracle.check_report(expression, verify_range, report) == [], \
                expression
            reports.append((expression, report))
    return reports


def test_fuzz_pole_sums_verify(capsys):
    rng = random.Random(SEED)
    _check_all([_expression(rng) for _ in range(COUNT)], capsys)


def test_fuzz_atoms_and_weights_verify(capsys):
    rng = random.Random(ATOM_SEED)
    _check_all([_weighted_expression(rng) for _ in range(ATOM_COUNT)], capsys)


def test_fuzz_planted_forms_bound_every_certificate(capsys):
    for expression, planted in planted_draws():
        reports = _check_all([expression], capsys, PLANTED_RANGE[planted])
        for _, report in reports:
            if report["optimality_certified"]:
                assert report["output_depth"] <= planted, expression
