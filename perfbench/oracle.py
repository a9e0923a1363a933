"""An exact evaluator for nsopt's expression grammar, written apart from it.

It reads `sum(idx,lower,upper,body)`, `prod(...)`, `H(v)`, `H(o,v)`,
`H(v+j)`, integers, `+ - * / ^` and names, and evaluates with plain
Fraction loops.  Like nsopt, a rational function of one index evaluates to
0 at its poles; a maximal group of rational factors (or terms) counts as
one rational function, so removable singularities take their limit.  The
limit is found by evaluating the group at k + eps as a quotient of
polynomials in eps.

`check_report` compares an `nsopt simplify --json` report with this
evaluator and, for the acceptance fixtures, with closed forms derived by
hand.  Nothing here imports nsopt or reads stored program output.
"""

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# Parsing into interned tuples
# ---------------------------------------------------------------------------
#
# ("c", value) | ("v", name) | ("add", terms) | ("mul", factors)
# ("inv", node) | ("pow", node, e) | ("sum"|"prod", idx, lower, upper, body)
# ("H", order, name)


class OracleParseError(ValueError):
    pass


def _lex(text):
    toks, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j])))
            i = j
        elif c.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        elif c in "+-*/^(),":
            toks.append((c, c))
            i += 1
        else:
            raise OracleParseError(f"unexpected {c!r} at {i}")
    toks.append(("end", None))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _lex(text)
        self.pos = 0
        self.nodes = {}  # interning: equal subtrees share one object

    def node(self, *parts):
        return self.nodes.setdefault(parts, parts)

    def peek(self):
        return self.toks[self.pos][0]

    def take(self, kind):
        tok = self.toks[self.pos]
        if tok[0] != kind:
            raise OracleParseError(f"expected {kind}, found {tok[1]!r}")
        self.pos += 1
        return tok[1]

    def add(self, terms):
        flat = []
        for t in terms:
            flat.extend(t[1] if t[0] == "add" else (t,))
        return flat[0] if len(flat) == 1 else self.node("add", tuple(flat))

    def mul(self, factors):
        flat = []
        for f in factors:
            flat.extend(f[1] if f[0] == "mul" else (f,))
        return flat[0] if len(flat) == 1 else self.node("mul", tuple(flat))

    def neg(self, e):
        return self.mul([self.node("c", Fraction(-1)), e])

    def expr(self):
        terms = [self.term()]
        while self.peek() in "+-":
            op = self.take(self.peek())
            t = self.term()
            terms.append(t if op == "+" else self.neg(t))
        return self.add(terms)

    def term(self):
        factors = [self.factor()]
        while self.peek() in "*/":
            op = self.take(self.peek())
            f = self.factor()
            if op == "/" and not is_rational(f):
                raise OracleParseError("divisor must be a rational function")
            factors.append(f if op == "*" else self.node("inv", f))
        return self.mul(factors)

    def factor(self):
        if self.peek() == "-":
            self.take("-")
            return self.neg(self.factor())
        base = self.primary()
        if self.peek() == "^":
            self.take("^")
            base = self.node("pow", base, self.take("num"))
        return base

    def primary(self):
        kind = self.peek()
        if kind == "num":
            return self.node("c", Fraction(self.take("num")))
        if kind == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        name = self.take("name")
        if name in ("sum", "prod") and self.peek() == "(":
            self.take("(")
            idx = self.take("name")
            self.take(",")
            lower = self.take("num")
            self.take(",")
            upper = self.take("name")
            self.take(",")
            body = self.expr()
            self.take(")")
            return self.node(name, idx, lower, upper, body)
        if name == "H" and self.peek() == "(":
            return self.harmonic()
        return self.node("v", name)

    def harmonic(self):
        """H(o,v+j) = H(o,v) + sum_{t=1..j} 1/(v+t)^o, and for v-j the
        terms 1/(v-t)^o, t = 0..j-1, are subtracted."""
        self.take("(")
        order = 1
        if self.peek() == "num":
            order = self.take("num")
            self.take(",")
        v = self.node("v", self.take("name"))
        offset = 0
        if self.peek() in "+-":
            sign = 1 if self.take(self.peek()) == "+" else -1
            offset = sign * self.take("num")
        self.take(")")
        core = self.node("H", order, v[1])
        tail = []
        shifts = range(1, offset + 1) if offset > 0 else range(0, -offset)
        for t in shifts:
            atom = self.add([v, self.node("c", Fraction(t if offset > 0 else -t))])
            term = self.node("inv", self.node("pow", atom, order))
            tail.append(term if offset > 0 else self.neg(term))
        return self.add([core] + tail)


def parse(text):
    p = _Parser(text)
    e = p.expr()
    if p.peek() != "end":
        raise OracleParseError("trailing input")
    return e


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


def is_rational(e):
    kind = e[0]
    if kind in ("c", "v"):
        return True
    if kind in ("add", "mul"):
        return all(is_rational(t) for t in e[1])
    if kind in ("inv", "pow"):
        return is_rational(e[1])
    return False


def free_vars(e):
    kind = e[0]
    if kind == "c":
        return frozenset()
    if kind == "v":
        return frozenset((e[1],))
    if kind in ("add", "mul"):
        return frozenset().union(*(free_vars(t) for t in e[1]))
    if kind in ("inv", "pow"):
        return free_vars(e[1])
    if kind == "H":
        return frozenset((e[2],))
    return (free_vars(e[4]) - {e[1]}) | {e[3]}


def depth(e):
    """Nesting depth as nsopt documents it: constants 0, a rational
    function of an index 1, each sum or product one more than its body."""
    if is_rational(e):
        return 1 if free_vars(e) else 0
    kind = e[0]
    if kind in ("add", "mul"):
        return max(depth(t) for t in e[1])
    if kind == "pow":
        return depth(e[1])
    if kind == "H":
        return 2
    return depth(e[4]) + 1


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _rat_plain(e, env):
    kind = e[0]
    if kind == "c":
        return e[1]
    if kind == "v":
        return Fraction(env[e[1]])
    if kind == "add":
        return sum((_rat_plain(t, env) for t in e[1]), Fraction(0))
    if kind == "mul":
        out = Fraction(1)
        for f in e[1]:
            out *= _rat_plain(f, env)
        return out
    if kind == "inv":
        return 1 / _rat_plain(e[1], env)
    return _rat_plain(e[1], env) ** e[2]


# polynomials in eps as coefficient lists, lowest degree first


def _padd(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return out


def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _order(p):
    return next((i for i, c in enumerate(p) if c), None)


def _rat_eps(e, env):
    """e at index + eps, as (numerator, denominator) polynomials in eps."""
    kind = e[0]
    if kind == "c":
        return [e[1]], [Fraction(1)]
    if kind == "v":
        return [Fraction(env[e[1]]), Fraction(1)], [Fraction(1)]
    if kind == "add":
        num, den = [Fraction(0)], [Fraction(1)]
        for t in e[1]:
            n2, d2 = _rat_eps(t, env)
            num, den = _padd(_pmul(num, d2), _pmul(n2, den)), _pmul(den, d2)
        return num, den
    if kind == "mul":
        num, den = [Fraction(1)], [Fraction(1)]
        for f in e[1]:
            n2, d2 = _rat_eps(f, env)
            num, den = _pmul(num, n2), _pmul(den, d2)
        return num, den
    if kind == "inv":
        num, den = _rat_eps(e[1], env)
        if _order(num) is None:
            raise ZeroDivisionError("division by a rational function that is 0")
        return den, num
    num, den = _rat_eps(e[1], env)
    out_n, out_d = [Fraction(1)], [Fraction(1)]
    for _ in range(e[2]):
        out_n, out_d = _pmul(out_n, num), _pmul(out_d, den)
    return out_n, out_d


def rational_value(e, env):
    """Value of a rational group; 0 at a pole, the limit at a removable
    singularity."""
    try:
        return _rat_plain(e, env)
    except ZeroDivisionError:
        num, den = _rat_eps(e, env)
        on, od = _order(num), _order(den)
        if on is None or on != od:
            return Fraction(0)
        return num[on] / den[od]


class Evaluator:
    """Exact values of one or more expressions; quantifiers whose body
    depends only on their own index keep their running prefix, so a sweep
    over k costs a linear number of body evaluations.  Per-node facts are
    kept by id, with the node itself, so they stay valid while it lives."""

    def __init__(self):
        self._facts = {}  # id(node) -> (node, facts)
        self._prefix = {}  # id(node) or ("H", order) -> partial values

    def value(self, e, k):
        return self.eval(e, {"n": k})

    def _node_facts(self, e):
        got = self._facts.get(id(e))
        if got is None:
            kind = e[0]
            if is_rational(e):
                facts = ("rational",)
            elif kind in ("add", "mul"):
                rats = tuple(t for t in e[1] if is_rational(t))
                group = (kind, rats) if rats else None
                facts = (kind, group, tuple(t for t in e[1] if not is_rational(t)))
            elif kind in ("sum", "prod"):
                facts = (kind, free_vars(e[4]) <= {e[1]})
            else:
                facts = (kind,)
            got = self._facts[id(e)] = (e, facts)
        return got[1]

    def eval(self, e, env):
        facts = self._node_facts(e)
        kind = facts[0]
        if kind == "rational":
            return rational_value(e, env)
        if kind == "add":
            acc = rational_value(facts[1], env) if facts[1] else Fraction(0)
            for t in facts[2]:
                acc += self.eval(t, env)
            return acc
        if kind == "mul":
            acc = rational_value(facts[1], env) if facts[1] else Fraction(1)
            for t in facts[2]:
                acc *= self.eval(t, env)
            return acc
        if kind == "pow":
            return self.eval(e[1], env) ** e[2]
        if kind == "H":
            order, ub = e[1], int(env[e[2]])
            vals = self._prefix.setdefault(("H", order), [Fraction(0)])
            while len(vals) <= ub:
                vals.append(vals[-1] + Fraction(1, len(vals) ** order))
            return vals[max(ub, 0)]
        return self._quantifier(e, facts[1], env)

    def _quantifier(self, e, closed, env):
        kind, idx, lower, upper, body = e
        ub = int(env[upper])
        empty = Fraction(0) if kind == "sum" else Fraction(1)
        if ub < lower:
            return empty
        if closed:
            vals = self._prefix.setdefault(id(e), [])
            while len(vals) <= ub - lower:
                i = lower + len(vals)
                prev = vals[-1] if vals else empty
                step = self.eval(body, {idx: i})
                vals.append(prev + step if kind == "sum" else prev * step)
            return vals[ub - lower]
        acc = empty
        for i in range(lower, ub + 1):
            step = self.eval(body, {**env, idx: i})
            acc = acc + step if kind == "sum" else acc * step
        return acc


# ---------------------------------------------------------------------------
# Closed forms of the acceptance fixtures, derived by hand
# ---------------------------------------------------------------------------


def _harmonic(n, order=1):
    return sum((Fraction(1, k**order) for k in range(1, n + 1)), Fraction(0))


def _weighted_harmonic(n):
    """sum_{k=1}^n H_k / k^2"""
    acc = h = Fraction(0)
    for k in range(1, n + 1):
        h += Fraction(1, k)
        acc += h / (k * k)
    return acc


def _inverse_binomial_sum(n):
    """sum_{i=1}^n 1 / (i^2 binom(2i,i))"""
    return sum(
        (Fraction(1, i * i * math.comb(2 * i, i)) for i in range(1, n + 1)),
        Fraction(0),
    )


def _flagship(n):
    h, h2, h3, h4 = (_harmonic(n, o) for o in (1, 2, 3, 4))
    return (
        h**4 + 2 * h**3 + 6 * (h + 1) * h2 * h + 3 * h2**2 + (8 * h + 4) * h3 + 6 * h4
    ) / 12


def _a4(n):
    return (_harmonic(n, 2) - _harmonic(n) ** 2) / 2


def _a5(n):
    h = _harmonic(n)
    return (-(h**2) + 2 * _harmonic(n, 2) * h - h) / 2


def _b_depth7(n):
    h, h2, h4 = _harmonic(n), _harmonic(n, 2), _harmonic(n, 4)
    return (
        Fraction(1, 24) * h**2
        - 2 * h * _weighted_harmonic(n)
        + Fraction(16, 3) * h
        - Fraction(1, 2) * h2**2
        + (h / 2 - Fraction(69, 24)) * h2
        - Fraction(1, 2) * h4
    )


def _binom_a1(n):
    return 2 * (2 * _harmonic(n) - _harmonic(2 * n))


def _binom_a2(n):
    h, g = _harmonic(n), _harmonic(2 * n)
    return 2 * (4 * h**2 + 4 * h + g**2 + (-4 * h - 2) * g - _harmonic(2 * n, 2))


def _binom_b(n):
    h, g = _harmonic(n), _harmonic(2 * n)
    return Fraction(3, 14) * (
        44 * h**2
        + 16 * h
        + 11 * g**2
        - (44 * h + 8) * g
        - 11 * _harmonic(2 * n, 2)
        + 14 * _inverse_binomial_sum(n)
    )


# name -> (value at n, depth of the closed form in nsopt's grammar)
CLOSED_FORMS = {
    "FLAGSHIP": (_flagship, 2),
    "A4": (_a4, 2),
    "A5": (_a5, 2),
    "B_DEPTH7": (_b_depth7, 3),  # runs through sum H_k/k^2
    "BINOM_A1": (_binom_a1, 2),  # H(2n) is a sum over 1/(k-1/2) and 1/k
    "BINOM_A2": (_binom_a2, 2),
    "BINOM_B": (_binom_b, 3),  # runs through sum b(k)/k^2, b a product
}

# the sweep checks this many points past the program's own range
EXTRA_POINTS = 3


def check_report(expression, verify_range, report, closed_form=None):
    """Problems found in one exit-0 report of `nsopt simplify --json`;
    an empty list means the output is right."""
    problems = []
    if report.get("input_text") != expression:
        problems.append("input_text is not the expression given")
    try:
        src = parse(expression)
        out = parse(report["output_text"])
    except (OracleParseError, KeyError) as exc:
        return problems + [f"unreadable report: {exc}"]
    d_in, d_out = report.get("input_depth"), report.get("output_depth")
    if d_in != depth(src):
        problems.append(f"input_depth {d_in}, counted {depth(src)}")
    if d_out != depth(out):
        problems.append(f"output_depth {d_out}, counted {depth(out)}")
    if not isinstance(d_out, int) or not isinstance(d_in, int) or d_out > d_in:
        problems.append(f"output_depth {d_out} exceeds input_depth {d_in}")
    lam = report.get("lambda")
    if not isinstance(lam, int) or lam < 0:
        return problems + [f"bad lambda {lam!r}"]
    ev = Evaluator()
    sweep = report.get("verification", [])
    if [row[0] for row in sweep] != list(range(lam, lam + verify_range + 1)):
        problems.append("verification rows do not cover lambda..lambda+range")
    reported = {row[0]: row for row in sweep}
    closed, closed_depth = CLOSED_FORMS[closed_form] if closed_form else (None, None)
    for k in range(lam, lam + verify_range + EXTRA_POINTS + 1):
        lhs, rhs = ev.value(src, k), ev.value(out, k)
        if lhs != rhs:
            problems.append(f"output differs from input at k = {k}")
            break
        row = reported.get(k)
        if row is not None and (
            Fraction(row[1]) != lhs or Fraction(row[2]) != rhs or row[3] is not True
        ):
            problems.append(f"reported verification row wrong at k = {k}")
            break
        if closed is not None and rhs != closed(k):
            problems.append(f"output differs from the closed form at k = {k}")
            break
    if closed is not None and report.get("optimality_certified") and d_out > closed_depth:
        problems.append(
            f"certified at depth {d_out}, but a closed form of depth "
            f"{closed_depth} exists"
        )
    return problems
