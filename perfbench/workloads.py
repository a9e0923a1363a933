"""Inputs of the three workloads, made from the seed alone.

Nothing here imports nsopt: the inputs are plain expression strings in
nsopt's grammar, so the benchmark and its worker processes build the same
operations from the same seed.

An operation is one `nsopt simplify --json` call:
  (label, expression, extra argv, per-operation deadline in s or None,
   closed-form name or None)
"""

import math
import random

# ---------------------------------------------------------------------------
# Fixed inputs: the acceptance fixtures and the search-heavy extras
# ---------------------------------------------------------------------------

FLAGSHIP = "sum(r,1,n,(sum(l,1,r,(H(l)^2+H(2,l))/l)+sum(l,1,r,H(l)/l))/r)"
A4 = "sum(i,2,n,sum(j,2,i,(2*j-1)*sum(k,1,j,1/((2*k-3)*(2*k-1)))/((j-1)*j))/i)"
A5 = (
    "sum(i,3,n,sum(j,3,i,(2*j-1)*sum(k,3,j,(2*(k-2)*(k-1)*k*H(k)"
    "-(2*k-1)*(3*k^2-6*k+2))/((k-2)*(k-1)*k*(2*k-3)*(2*k-1)))/((j-1)*j))/i)"
)
B_DEPTH7 = (
    "sum(i,4,n,sum(j,4,i,(2*j-1)*sum(k,4,j,sum(l,4,k,(2*l-3)*(l^2-3*l+6)*"
    "sum(r,3,l,-2*(2*r^6-27*r^5+117*r^4-254*r^3+398*r^2"
    "+2*(r-3)*(r-2)*(r-1)*(r+2)*H(r)*r-446*r+204)"
    "/((r-2)*(r-1)*r*(r^2-5*r+10)*(r^2-3*r+6)))"
    "/((l-3)*(l-2)*(l-1)*l))/((2*k-3)*(2*k-1)))/((j-1)*j))/i)"
)
BINOM_A1 = "sum(i,1,n,(4*i-3)/(i*(2*i-1)))"
BINOM_A2 = (
    "sum(i,2,n,(4*i-3)*sum(j,2,i,(64*j^4-288*j^3+468*j^2-323*j+84)"
    "/((j-1)*j*(2*j-3)*(4*j-7)*(4*j-3)))/(i*(2*i-1)))"
)
BINOM_B = (
    "-sum(i,2,n,(4*i-3)*sum(j,2,i,(64*j^4-288*j^3+468*j^2-323*j+84)*"
    "sum(k,1,j,-3*(2*k-3)*(2*k-1)*(4*k-7)*(576*k^6-5472*k^5+20980*k^4"
    "-41559*k^3+44882*k^2-25113*k+5760)*prod(t,1,k,t/(2*(2*t-1)))"
    "/(k*(64*k^4-544*k^3+1716*k^2-2379*k+1227)"
    "*(64*k^4-288*k^3+468*k^2-323*k+84)))"
    "/((j-1)*j*(2*j-3)*(4*j-7)*(4*j-3)))/(i*(2*i-1)))"
)

# the inverse central binomial 1/binom(2n,n), declared by its shift ratio
BINOM_PRODUCT = ("--with-product", "b:(n+1)/(2*(2*n+1)):1")

# Weighted outer levels: a rational factor outside the inner sum makes the
# generator search adjoin candidates before it solves.  The first two end
# uncertified, the last three certified.
WEIGHTED = (
    "sum(i,0,n,sum(j,1,i,2/(3*j+1))*1/(i+2))",
    "sum(i,0,n,sum(j,0,i,(2*j+1)/(j+2)^2)*3/(i+1))",
    "sum(i,1,n,sum(j,1,i,H(j)/(j+1))/(i+2))",
    "sum(i,1,n,sum(j,1,i,1/(j+2))*1/(i+1))",
    "sum(i,0,n,sum(j,0,i,1/(2*j+1))*1/(2*i+3))",
)

# A depth-2 form exists, (n+1)*sum(3/(j^2+1)) - sum(3j/(j^2+1)), but every
# candidate generator the search tries has numerator 1, so the search never
# finds it and runs for about a minute.  It runs every round under a
# deadline and counts as failed.
QUADRATIC_ATOM = "sum(i,0,n,sum(j,1,i,3/(j^2+1)))"
QUADRATIC_DEADLINE_S = 3.0

# per-operation deadline of every other subprocess operation; none comes
# near it on a working build, so hitting it is a failure to report
DEFAULT_DEADLINE_S = 60.0

SEARCH_RANGE = 5  # short sweep: the search dominates
SWEEP_RANGE = 150  # long sweep: the quadratic per-point evaluation dominates
BATCH_RANGE = 20


def _shuffled(seed, ops):
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def search_heavy(seed):
    """Fixed corpus, seed-ordered; one process per operation."""
    r = ("--verify-range", str(SEARCH_RANGE))
    ops = [
        ("B_DEPTH7", B_DEPTH7, r, DEFAULT_DEADLINE_S, "B_DEPTH7"),
        ("BINOM_B", BINOM_B, r + BINOM_PRODUCT, DEFAULT_DEADLINE_S, "BINOM_B"),
        ("QUADRATIC_ATOM", QUADRATIC_ATOM, r, QUADRATIC_DEADLINE_S, None),
    ]
    for i, src in enumerate(WEIGHTED):
        ops.append((f"WEIGHTED_{i}", src, r, DEFAULT_DEADLINE_S, None))
    return _shuffled(seed, ops)


def sweep_long(seed):
    """Cheap-to-compile fixtures under a long verification sweep."""
    r = ("--verify-range", str(SWEEP_RANGE))
    ops = [
        ("FLAGSHIP", FLAGSHIP, r, DEFAULT_DEADLINE_S, "FLAGSHIP"),
        ("A4", A4, r, DEFAULT_DEADLINE_S, "A4"),
        ("A5", A5, r, DEFAULT_DEADLINE_S, "A5"),
        ("BINOM_A1", BINOM_A1, r + BINOM_PRODUCT, DEFAULT_DEADLINE_S, "BINOM_A1"),
        ("BINOM_A2", BINOM_A2, r + BINOM_PRODUCT, DEFAULT_DEADLINE_S, "BINOM_A2"),
    ]
    return _shuffled(seed, ops)


# ---------------------------------------------------------------------------
# iterated_batch: seeded iterated sums with no factor on the outer levels
# ---------------------------------------------------------------------------

_BINDERS = ("i", "j", "k")


def _template_list():
    """Every structural class once: nesting depth, summand shape, squared
    or not, with or without H(v) at the innermost level.

    The atom of each class is fixed here, not drawn: its shift sets the
    cost of an input (an atom v+3 costs up to five times v+1), and drawing
    it made the wall time of a round differ by about 30 % between seeds.
    H(v) is combined only with atoms in the class of v: with v+1/2 or
    v+1/3 every such input turns into a generator search of 2 to 11 s,
    which is what search_heavy measures."""
    out = []
    for depth in (1, 2, 3):
        for squared in (False, True):
            for harmonic in (False, True):
                for b in (1, 2, 3):  # atom b*v+b+1 in class v, v+1/2, v+1/3
                    if harmonic and b != 1:
                        continue
                    out.append((depth, squared, harmonic, f"1/({b}*@+{b + 1})"))
                a, shift = depth + 1, 2 if depth == 2 else 1
                out.append((depth, squared, harmonic, f"({a}*@+1)/(@+{shift})^2"))
    # weight denominators 1 to 4, in turn
    return [t + (1 + i % 4,) for i, t in enumerate(out)]


TEMPLATES = _template_list()


def _summand(rng, squared, harmonic, core, den, v):
    """The seed draws the sign and numerator of the rational weight; its
    denominator is the template's, since it sets the size of every
    coefficient the solver handles."""
    core = core.replace("@", v)
    if squared:
        core = f"({core})^2"
    num = rng.choice([p for p in range(1, 6) if math.gcd(p, den) == 1])
    body = f"{rng.choice(('', '-'))}{num}/{den}*{core}"
    if harmonic:
        body = f"H({v})*{body}"
    return body


def iterated_expr(rng, template):
    depth, squared, harmonic, core, den = template
    binders = _BINDERS[:depth]
    expr = _summand(rng, squared, harmonic, core, den, binders[-1])
    for level in range(depth - 1, -1, -1):
        upper = "n" if level == 0 else binders[level - 1]
        expr = f"sum({binders[level]},{rng.randint(0, 3)},{upper},{expr})"
    return expr


def iterated_batch(seed):
    """One input per template, drawn from the seed; all in one process."""
    rng = random.Random(seed)
    r = ("--verify-range", str(BATCH_RANGE))
    ops = []
    for t, template in enumerate(TEMPLATES):
        ops.append((f"T{t:02d}", iterated_expr(rng, template), r, None, None))
    return ops


WORKLOADS = {
    "search_heavy": search_heavy,
    "sweep_long": sweep_long,
    "iterated_batch": iterated_batch,
}

# the workloads that run each operation as its own `nsopt simplify` process
SUBPROCESS_WORKLOADS = ("search_heavy", "sweep_long")
