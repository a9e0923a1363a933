"""Shared builders for the towers used across the test suite, and a
time-bounded child interpreter.

The builders construct the generators directly (no certification round
trip) so that low-level modules can be tested without the solver; the
solver tests check the same adjunctions by solving their telescoping
equations.
"""

from fractions import Fraction
import os
import random
import subprocess
import sys

import nsopt
from nsopt.dfield import Tower, TowerElem, _adjoin_sigma_star_unchecked, sigma

X = TowerElem.base_x()
ONE = TowerElem.const(1)

_TRUSTED = "test fixture"


def harmonic_tower():
    """Q(x)(h) with sigma(h) = h + 1/(x+1)."""
    t = _adjoin_sigma_star_unchecked(Tower(), ONE / (X + 1), "h", _TRUSTED)
    return t, TowerElem.gen(0)


def nested_tower():
    """Q(x)(h)(s) with sigma(s) = s + sigma(h)/(x+1)."""
    t, h = harmonic_tower()
    beta = sigma(t, h) / (X + 1)
    t2 = _adjoin_sigma_star_unchecked(t, beta, "s", _TRUSTED)
    return t2, h, TowerElem.gen(1)


def run_python(args, timeout):
    """(exit code, stdout, stderr) of `python args` in a child process with
    nsopt on its path, killed after timeout seconds, so a refusal that
    stops refusing fails its test instead of hanging the suite."""
    src = os.path.dirname(os.path.dirname(nsopt.__file__))
    proc = subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def rand_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_elem(rng: random.Random, tower, maxdeg: int = 2) -> TowerElem:
    """Random nonzero-denominator element built from x and the generators."""
    vars_ = [X] + [TowerElem.gen(i) for i in range(len(tower))]

    def rand_poly_elem():
        acc = TowerElem.const(rand_fraction(rng))
        for _ in range(rng.randint(1, 3)):
            term = TowerElem.const(rand_fraction(rng))
            for _ in range(rng.randint(0, maxdeg)):
                term = term * rng.choice(vars_)
            acc = acc + term
        return acc

    num = rand_poly_elem()
    den = rand_poly_elem()
    while den.is_zero():
        den = rand_poly_elem()
    return num / den
