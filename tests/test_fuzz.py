"""Seeded fuzz of `nsopt simplify` over nested sums with poles at small
indices, and over quadratic and squared-linear atoms under rational outer
weights, each exit-0 report checked by the independent oracle in
perfbench/oracle.py."""

import importlib.util
import json
import os
import random

from nsopt.cli import main

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


def _check_all(expressions, capsys):
    for expression in expressions:
        try:
            code = main(["simplify", "--json", "--verify-range",
                         str(VERIFY_RANGE), expression])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code in ALLOWED, (expression, code, err)
        if code == 0:
            report = json.loads(out)
            assert oracle.check_report(expression, VERIFY_RANGE, report) == [], \
                expression


def test_fuzz_pole_sums_verify(capsys):
    rng = random.Random(SEED)
    _check_all([_expression(rng) for _ in range(COUNT)], capsys)


def test_fuzz_atoms_and_weights_verify(capsys):
    rng = random.Random(ATOM_SEED)
    _check_all([_weighted_expression(rng) for _ in range(ATOM_COUNT)], capsys)
