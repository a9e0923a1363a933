"""Surface language for nested sums and the bridges to tower elements.

The grammar is a small arithmetic language with sum/prod quantifiers and a
harmonic-number shorthand.  Parsed trees are normalized aggressively: every
maximal subtree that is a rational function of a single index collapses into
one Base leaf, so the remaining structure consists of genuine sums, products
and their combinations.

compile() walks a tree innermost-first.  Each sum body becomes a tower
element in the body's own index, the shifted body is telescoped
depth-optimally (growing the tower with certified generators as needed),
and the sum collapses to telescoper-plus-constant, the constant fixed by an
exact prefix evaluation.  reinterpret() walks the other way: an element
splits into its monomials (dfield.monomials) and every generator unfolds
into the sum (or product) of its shift part.  That printed form is what
an element evaluates to.  An EvalSpec owns both halves: it unfolds each
generator once, and its one Evaluator gives eval_field's values and
compile's exact comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .algebra import (_DEGREE_LIMIT, Poly, RatFunc, _check_degree,
                      nonneg_integer_roots)
from .dfield import (Generator, Tower, TowerElem, UnsupportedShape, monomials,
                     occurring_generators, sigma)
from .telescope import adjoin_pi, telescope_depth_optimal

__all__ = [
    "ParseError",
    "ScopeError",
    "ZeroElement",
    "Const",
    "Base",
    "Plus",
    "Times",
    "Power",
    "Sum",
    "Prod",
    "parse",
    "to_src",
    "expr_depth",
    "Evaluator",
    "evaluate",
    "o_function",
    "z_function_base",
    "EvalSpec",
    "eval_field",
    "ProductSpec",
    "CompileResult",
    "compile",
    "reinterpret",
]


class ParseError(SyntaxError):
    """Bad input text; carries the character position."""

    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class ScopeError(ParseError):
    """An index is used outside the sum or product that binds it."""


class ZeroElement(ValueError):
    """The zero function has no nonzero-from bound."""


# ---------------------------------------------------------------------------
# Syntax trees
# ---------------------------------------------------------------------------


class _Node:
    """An immutable syntax node over the fields its subclass names in
    __slots__.  Nodes compare by exact type and fields, so Plus((a,)) !=
    Times((a,)), and hash once, at construction: the Evaluator's memo
    lookups then never walk a subtree."""

    __slots__ = ("_hash",)

    def __init__(self, *values):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields")
        for name, v in zip(fields, values):
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_hash", hash((type(self).__name__, *values)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__
        )

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, never through setattr
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class Const(_Node):
    __slots__ = ("value",)


class Base(_Node):
    """A rational function of a single index."""

    __slots__ = ("rf", "var")


class Plus(_Node):
    __slots__ = ("terms",)


class Times(_Node):
    __slots__ = ("factors",)


class Power(_Node):
    __slots__ = ("base", "exp")


class Sum(_Node):
    __slots__ = ("idx", "lower", "upper", "body")


class Prod(_Node):
    __slots__ = ("idx", "lower", "upper", "body")


# ---------------------------------------------------------------------------
# Normalizing constructors
# ---------------------------------------------------------------------------


def _ratval(e):
    """(index-or-None, RatFunc) when e is a rational leaf, else None."""
    if isinstance(e, Const):
        return (None, RatFunc.from_const(e.value))
    if isinstance(e, Base):
        return (e.var, e.rf)
    return None


def _leaf(var, rf: RatFunc):
    if rf.is_constant():
        return Const(rf.constant_value())
    return Base(rf, var)


def _plus(terms) -> object:
    """Flatten, merge rational leaves per index, order deterministically:
    structural terms first, then one leaf per index, then the constant."""
    flat = []
    for t in terms:
        if isinstance(t, Plus):
            flat.extend(t.terms)
        else:
            flat.append(t)
    rats, out = {}, []
    for t in flat:
        rv = _ratval(t)
        if rv is None:
            out.append(t)
        else:
            v, rf = rv
            rats[v] = rats[v] + rf if v in rats else rf
    idxs = sorted(v for v in rats if v is not None)
    if None in rats and len(idxs) == 1:
        rats[idxs[0]] = rats[idxs[0]] + rats.pop(None)
    elif len(idxs) > 1:
        # with several per-index leaves a constant summand cannot hide
        # inside a polynomial one, or printing would not round-trip
        spill = Fraction(0)
        for v in idxs:
            rv = rats[v]
            if rv.den.is_one():
                c0 = rv.num.coeff(0)
                if c0:
                    rats[v] = rv - c0
                    spill += c0
        if spill:
            base = rats.get(None, RatFunc.from_const(Fraction(0)))
            rats[None] = base + spill
    for v in idxs:
        if rats[v]:
            out.append(_leaf(v, rats[v]))
    if None in rats and rats[None]:
        out.append(Const(rats[None].constant_value()))
    if not out:
        return Const(Fraction(0))
    if len(out) == 1:
        return out[0]
    return Plus(tuple(out))


def _times(factors) -> object:
    flat = []
    for t in factors:
        if isinstance(t, Times):
            flat.extend(t.factors)
        else:
            flat.append(t)
    rats, out = {}, []
    for t in flat:
        rv = _ratval(t)
        if rv is None:
            out.append(t)
        else:
            v, rf = rv
            if not rf:
                return Const(Fraction(0))
            rats[v] = rats[v] * rf if v in rats else rf
    idxs = sorted(v for v in rats if v is not None)
    for v in list(idxs):
        if rats[v].is_constant():
            c = rats.pop(v)
            rats[None] = rats[None] * c if None in rats else c
            idxs.remove(v)
    if None in rats and idxs:
        rats[idxs[0]] = rats[idxs[0]] * rats.pop(None)
    if len(idxs) > 1:
        # the product's scalar lives in the first leaf; re-parsing the
        # printed form would shuffle it there anyway
        acc = Fraction(1)
        for v in idxs[1:]:
            c = rats[v].num.lc()
            if c != 1:
                rats[v] = rats[v] / c
                acc *= c
        if acc != 1:
            rats[idxs[0]] = rats[idxs[0]] * acc
    lead = []
    for v in idxs:
        if not rats[v].is_one():
            lead.append(_leaf(v, rats[v]))
    if None in rats and not rats[None].is_one():
        lead.insert(0, Const(rats[None].constant_value()))
    out = lead + out
    if not out:
        return Const(Fraction(1))
    if len(out) == 1:
        return out[0]
    return Times(tuple(out))


def _degree(rf) -> int:
    return max(rf.num.degree, rf.den.degree)


def _power(b, e: int) -> object:
    """b^e.  A rational leaf is folded into one leaf only while its degree
    times e stays within _DEGREE_LIMIT; a larger power stays a Power node,
    which the Evaluator raises by integer pow and compile refuses, so the
    polynomial is never expanded."""
    rv = _ratval(b)
    if rv is not None and _degree(rv[1]) * e <= _DEGREE_LIMIT:
        return _leaf(rv[0], rv[1] ** e)
    if isinstance(b, Power):
        return Power(b.base, b.exp * e)
    if e == 1:
        return b
    return Power(b, e)


def _negate(e) -> object:
    return _times([Const(Fraction(-1)), e])


def _divide(a, b, pos: int) -> object:
    power = isinstance(b, Power)
    rv = _ratval(b.base if power else b)
    if rv is None:
        raise ParseError("divisor must be a rational function of one index", pos)
    v, rf = rv
    if not rf:
        raise ParseError("division by zero", pos)
    inv = _leaf(v, rf.inverse())
    # a leaf's power past the degree limit divides as a power of its inverse
    return _times([a, Power(inv, b.exp) if power else inv])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_OPS = set("+-*/^(),")


def _lex(text: str) -> list:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if c in _OPS:
            toks.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        self.scope = ["n"]
        self._used = {t[1] for t in self.toks if t[0] == "name"}
        self._fresh_ctr = 0
        self._h_cache = {}

    def _fresh(self) -> str:
        while True:
            self._fresh_ctr += 1
            name = f"i{self._fresh_ctr}"
            if name not in self._used:
                self._used.add(name)
                return name

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            what = "end of input" if tok[0] == "end" else repr(
                tok[1] if tok[0] in ("num", "name") else tok[0]
            )
            raise ParseError(f"expected {kind}, found {what}", tok[2])
        self.pos += 1
        return tok

    def expr(self):
        terms = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            terms.append(t if op == "+" else _negate(t))
        return _plus(terms)

    def term(self):
        acc = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, opos = self.take()
            f = self.factor()
            acc = _times([acc, f]) if op == "*" else _divide(acc, f, opos)
        return acc

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return _negate(self.factor())
        node = self.primary()
        if self.peek()[0] == "^":
            self.take()
            _, val, vpos = self.take("num")
            if val < 1:
                raise ParseError("exponent must be a positive integer", vpos)
            node = _power(node, val)
        return node

    def primary(self):
        kind, val, pos = self.take()
        if kind == "num":
            return Const(Fraction(val))
        if kind == "(":
            e = self.expr()
            self.take(")")
            return e
        if kind == "name":
            if val in ("sum", "prod"):
                return self.quantifier(val)
            if val == "H" and self.peek()[0] == "(":
                return self.h_sugar()
            if val not in self.scope:
                raise ScopeError(f"unbound index {val!r}", pos)
            return Base(RatFunc.X, val)
        raise ParseError("expected a term", pos)

    def quantifier(self, which: str):
        self.take("(")
        _, idx, ipos = self.take("name")
        if idx in ("sum", "prod", "H"):
            raise ParseError(f"{idx!r} cannot be used as an index", ipos)
        if idx in self.scope:
            raise ScopeError(f"index {idx!r} shadows an enclosing binder", ipos)
        self.take(",")
        _, lo, _ = self.take("num")
        self.take(",")
        _, up, upos = self.take("name")
        if up not in self.scope:
            raise ScopeError(f"unbound summation limit {up!r}", upos)
        self.take(",")
        self.scope.append(idx)
        body = self.expr()
        self.scope.pop()
        self.take(")")
        node = Sum if which == "sum" else Prod
        return node(idx, lo, up, body)

    def h_sugar(self):
        """H(v), H(o,v) and shifted forms H(v+j)/H(o,v-j), expanded into
        the plain grammar (a sum from 1 plus a rational tail)."""
        self.take("(")
        order = 1
        if self.peek()[0] == "num":
            _, order, opos = self.take()
            if order < 1:
                raise ParseError("harmonic order must be positive", opos)
            self.take(",")
        _, v, vpos = self.take("name")
        if v not in self.scope:
            raise ScopeError(f"unbound index {v!r}", vpos)
        offset = 0
        if self.peek()[0] in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
            offset = sign * self.take("num")[1]
        self.take(")")
        key = (order, v)
        core = self._h_cache.get(key)
        if core is None:
            idx = self._fresh()
            body = Base(RatFunc(Poly.from_ints(1), Poly.from_ints(0, 1) ** order), idx)
            core = Sum(idx, 1, v, body)
            self._h_cache[key] = core
        if offset == 0:
            return core
        tail = RatFunc.from_const(Fraction(0))
        if offset > 0:
            for t in range(1, offset + 1):
                tail = tail + RatFunc(
                    Poly.from_ints(1), Poly((Fraction(t), Fraction(1))) ** order
                )
        else:
            for t in range(0, -offset):
                tail = tail - RatFunc(
                    Poly.from_ints(1), Poly((Fraction(-t), Fraction(1))) ** order
                )
        return _plus([core, _leaf(v, tail)])


def parse(text: str):
    """Parse source text into a normalized tree; the free index is n."""
    p = _Parser(text)
    e = p.expr()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError("trailing input", tok[2])
    return e


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_P_PLUS, _P_TIMES, _P_POW, _P_ATOM = 1, 2, 3, 4


def to_src(e, h_sugar: bool = False) -> str:
    """Render back into the input grammar.  With h_sugar, harmonic sums
    print as H(...); that form re-parses to an equal value but with fresh
    inner binders."""
    return _render(e, h_sugar)[0]


def _wrap(pair, need: int) -> str:
    text, lvl = pair
    return f"({text})" if lvl < need else text


def _join_signed(parts) -> str:
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _render(e, hs: bool):
    if isinstance(e, Const):
        text = str(e.value)
        lvl = _P_ATOM if "/" not in text and not text.startswith("-") else _P_TIMES
        return text, lvl
    if isinstance(e, Base):
        return _rf_src(e.rf, e.var)
    if isinstance(e, Plus):
        parts = [_wrap(_render(t, hs), _P_PLUS) for t in e.terms]
        return _join_signed(parts), _P_PLUS
    if isinstance(e, Times):
        fs = e.factors
        neg = ""
        if isinstance(fs[0], Const) and fs[0].value == -1 and len(fs) > 1:
            neg, fs = "-", fs[1:]
        parts = [_wrap(_render(f, hs), _P_TIMES) for f in fs]
        # a bare minus cannot follow '*'
        parts[1:] = [f"({p})" if p.startswith("-") else p for p in parts[1:]]
        return neg + "*".join(parts), _P_TIMES
    if isinstance(e, Power):
        return f"{_wrap(_render(e.base, hs), _P_ATOM)}^{e.exp}", _P_POW
    if isinstance(e, (Sum, Prod)):
        if hs and isinstance(e, Sum):
            sugar = _h_sugar_form(e)
            if sugar is not None:
                return sugar, _P_ATOM
        kw = "sum" if isinstance(e, Sum) else "prod"
        body = _render(e.body, hs)[0]
        return f"{kw}({e.idx},{e.lower},{e.upper},{body})", _P_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def _h_sugar_form(e: Sum):
    if e.lower != 1 or not isinstance(e.body, Base) or e.body.var != e.idx:
        return None
    rf = e.body.rf
    if not rf.num.is_one():
        return None
    o = rf.den.degree
    if o < 1 or rf.den.lc() != 1 or any(rf.den.coeff(i) for i in range(o)):
        return None
    return f"H({e.upper})" if o == 1 else f"H({o},{e.upper})"


def _poly_src(p: Poly, var: str):
    text = p.to_str(var)
    if sum(1 for c in p.coeffs if c) > 1:
        return text, _P_PLUS
    if text.startswith("-") or "*" in text or "/" in text:
        return text, _P_TIMES
    return text, _P_POW if "^" in text else _P_ATOM


def _rf_src(rf: RatFunc, var: str):
    num = _poly_src(rf.num, var)
    if rf.den.is_one():
        return num
    ns = _wrap(num, _P_TIMES)
    ds = _wrap(_poly_src(rf.den, var), _P_POW)
    return f"{ns}/{ds}", _P_TIMES


# ---------------------------------------------------------------------------
# Depth and free indices
# ---------------------------------------------------------------------------


def expr_depth(e) -> int:
    """Nesting measure: constants 0, a nonconstant rational function 1,
    each quantifier adds 1 on top of its body."""
    if isinstance(e, Const):
        return 0
    if isinstance(e, Base):
        return 0 if e.rf.is_constant() else 1
    if isinstance(e, Plus):
        return max(expr_depth(t) for t in e.terms)
    if isinstance(e, Times):
        return max(expr_depth(t) for t in e.factors)
    if isinstance(e, Power):
        return expr_depth(e.base)
    if isinstance(e, (Sum, Prod)):
        return expr_depth(e.body) + 1
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------


def _add(n1: int, d1: int, n2: int, d2: int) -> tuple:
    """n1/d1 + n2/d2 as a canonical pair, from canonical pairs, by the
    steps of fractions.Fraction._add: divide by the gcd of the
    denominators before multiplying."""
    g = gcd(d1, d2)
    if g == 1:
        return n1 * d2 + d1 * n2, d1 * d2
    s = d1 // g
    t = n1 * (d2 // g) + n2 * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * d2
    return t // g2, s * (d2 // g2)


def _mul(n1: int, d1: int, n2: int, d2: int) -> tuple:
    """n1/d1 * n2/d2 as a canonical pair, from canonical pairs, by the
    cross-cancelling steps of fractions.Fraction._mul."""
    g1 = gcd(n1, d2)
    if g1 > 1:
        n1 //= g1
        d2 //= g1
    g2 = gcd(n2, d1)
    if g2 > 1:
        n2 //= g2
        d1 //= g2
    return n1 * n2, d1 * d2


def _base_value(num: tuple, nscale: int, den: tuple, dscale: int, k: int) -> tuple:
    """The canonical pair of num(k) * nscale / (den(k) * dscale), or
    (0, 1) at a pole.  num and den are integer coefficients, highest
    degree first, each evaluated by one Horner sum."""
    dv = 0
    for c in den:
        dv = dv * k + c
    if not dv:
        return 0, 1
    nv = 0
    for c in num:
        nv = nv * k + c
    nv *= nscale
    dv *= dscale
    g = gcd(nv, dv)
    if dv < 0:
        g = -g
    return nv // g, dv // g


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction of a pair already in canonical form, without the gcd
    that Fraction(n, d) runs again.  This is the body of Python 3.12's
    private Fraction._from_coprime_ints, spelled out so that it also runs
    on 3.10 and 3.11, whose Fraction has the same two slots."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _index_int(v) -> int:
    """An index value, an int or a Fraction, as an int."""
    if v.denominator != 1:
        raise ValueError(f"index value {v} is not an integer")
    return v.numerator


class Evaluator:
    """Exact evaluation of syntax trees at integer index values.

    Each node is compiled once per Evaluator, and memoised by node, into a
    closure over Python ints.  A closure maps the index values to a
    (numerator, denominator) pair in Fraction's canonical form
    (denominator > 0, gcd 1); sums and products combine pairs by
    Fraction's own gcd-saving steps, and a Base leaf is one integer Horner
    sum each on its numerator and denominator.  eval wraps the pair in a
    single Fraction, without a second gcd.

    The closure of a quantifier node whose body depends only on its own
    index keeps a growing prefix of partial sums/products, so sweeping k
    over a range is linear instead of quadratic; bodies that read an outer
    binder are looped in full.  Poles evaluate to zero, an empty sum to
    zero, an empty product to one."""

    def __init__(self):
        self._code = {}  # node -> (closure, free indices)

    def eval(self, e, env: dict) -> Fraction:
        """The value of e with the indices bound as in env; an index value
        that is not an integer raises ValueError."""
        ints = {name: _index_int(v) for name, v in env.items()}
        return _fraction(*self._compiled(e)[0](ints))

    def _compiled(self, e) -> tuple:
        got = self._code.get(e)
        if got is None:
            got = self._code[e] = self._compile(e)
        return got

    def _compile(self, e) -> tuple:
        if isinstance(e, Const):
            value = (e.value.numerator, e.value.denominator)
            return (lambda env: value), frozenset()
        if isinstance(e, Base):
            var, num, den = e.var, e.rf.num, e.rf.den
            ni, ns, di, ds = num._ints[::-1], den._den, den._ints[::-1], num._den

            # _base_value is looked up each time a leaf runs, so a test can
            # count the leaf work
            def leaf(env):
                return _base_value(ni, ns, di, ds, env[var])

            return leaf, frozenset((var,))
        if isinstance(e, (Plus, Times)):
            plus = isinstance(e, Plus)
            op = _add if plus else _mul
            parts = [self._compiled(t) for t in (e.terms if plus else e.factors)]
            first, rest = parts[0][0], [fn for fn, _ in parts[1:]]

            def fold(env):
                n, d = first(env)
                for fn in rest:
                    n, d = op(n, d, *fn(env))
                return n, d

            return fold, frozenset().union(*(free for _, free in parts))
        if isinstance(e, Power):
            base, free = self._compiled(e.base)
            exp = e.exp

            def power(env):
                n, d = base(env)
                return n ** exp, d ** exp

            return power, free
        if isinstance(e, (Sum, Prod)):
            return self._compile_quantifier(e)
        raise TypeError(f"not an expression node: {e!r}")

    def _compile_quantifier(self, e) -> tuple:
        body, body_free = self._compiled(e.body)
        idx, lower, upper = e.idx, e.lower, e.upper
        op, empty = (_add, (0, 1)) if isinstance(e, Sum) else (_mul, (1, 1))
        free = (body_free - {idx}) | {upper}
        if body_free <= {idx}:
            vals = []  # the running prefix: value pairs from lower on

            def prefix(env):
                i = env[upper] - lower
                if i < 0:
                    return empty
                while len(vals) <= i:
                    prev = vals[-1] if vals else empty
                    vals.append(op(*prev, *body({idx: lower + len(vals)})))
                return vals[i]

            return prefix, free

        def loop(env):
            n, d = empty
            for k in range(lower, env[upper] + 1):
                n, d = op(n, d, *body({**env, idx: k}))
            return n, d

        return loop, free


def evaluate(e, k: int, ev: Evaluator | None = None) -> Fraction:
    """Exact value at n = k.  Pass one Evaluator for every k of a sweep:
    its prefix memo then makes the whole sweep linear in the range."""
    if ev is None:
        ev = Evaluator()
    return ev.eval(e, {"n": Fraction(k)})


# ---------------------------------------------------------------------------
# o- and z-functions
# ---------------------------------------------------------------------------


def _L_base(rf: RatFunc) -> int:
    roots = nonneg_integer_roots(rf.den)
    return 1 + max(roots) if roots else 0


def z_function_base(f: RatFunc) -> int:
    """Index from which f evaluates to nonzero values: one past the largest
    nonnegative integer root of numerator times denominator."""
    if f.is_zero():
        raise ZeroElement("zero has no nonzero tail")
    roots = nonneg_integer_roots(f.num * f.den)
    return 1 + max(roots) if roots else 0


def o_function(tower: Tower, spec: "EvalSpec", f: TowerElem) -> int:
    """Index from which evaluation respects ring and shift operations:
    the largest pole bound of f's Q(x) coefficients, joined with the start
    index of every generator its monomials hold.  An f outside the
    monomial class raises NotPolynomialPart."""
    out = 0
    for vec, rf in monomials(tower, f).items():
        out = max(out, _L_base(rf))
        for i, e in enumerate(vec):
            if e:
                out = max(out, spec.params(tower, i)[0] - 1)
    return out


# ---------------------------------------------------------------------------
# Canonical evaluation of tower elements
# ---------------------------------------------------------------------------


class EvalSpec:
    """How tower elements evaluate: each generator's start index r and
    initial value c, its unfolded expression, and the one Evaluator that
    evaluates those expressions.

    Sum-like generators get r = o(shift part) + 1 with c = 0; product-like
    ones r = z(ratio) + 1 with c = 1 (z also clears the ratio's poles),
    unless overridden (registered products carry their declared lower
    bound).  Both caches key on generator objects, which hash by
    identity, so no entry is reused over a different tower prefix."""

    def __init__(self, overrides=None):
        self.overrides = dict(overrides or {})
        self._params = {}
        self._units = {}
        self.ev = Evaluator()

    def params(self, tower: Tower, index: int):
        gen = tower.gens[index]
        got = self._params.get(gen)
        if got is not None:
            return got
        if gen.name in self.overrides:
            rc = self.overrides[gen.name]
        elif gen.kind == "sigma":
            rc = (o_function(tower, self, gen.shift_part) + 1, Fraction(0))
        else:
            rf = gen.shift_part.rf
            rc = (z_function_base(rf) + 1, Fraction(1))
        self._params[gen] = rc
        return rc

    def unit(self, tower: Tower, index: int, var: str, direction: int):
        """Generator `index` (direction +1) or its inverse (-1) as an
        expression in var: the sum or product of its shift part."""
        key = (tower.gens[:index + 1], var, direction)
        got = self._units.get(key)
        if got is not None:
            return got
        gen = tower.gens[index]
        r, c = self.params(tower, index)
        binder = f"i{index + 1}"
        inner = sigma(tower, gen.shift_part, -1)
        if gen.kind == "sigma":
            node = Sum(binder, r, var, _elem_expr(tower, self, inner, binder))
            out = _plus([node, Const(c)]) if c else node
        else:
            rf = inner.rf if direction > 0 else inner.rf.inverse()
            node = Prod(binder, r, var, _leaf(binder, rf))
            cval = c if direction > 0 else 1 / c
            out = _times([Const(cval), node]) if cval != 1 else node
        self._units[key] = out
        return out


def eval_field(tower: Tower, spec: EvalSpec, f: TowerElem, k: int) -> Fraction:
    """Value at index k of f's printed form, reinterpret(tower, spec, f),
    through spec's Evaluator, so repeated calls share its node memo and
    prefixes.

    f must lie in the monomial class of dfield.monomials, as for
    reinterpret.  A pole zeroes only the term of the printed form that
    has it; poles occur only at k < o(f)."""
    return evaluate(reinterpret(tower, spec, f), k, spec.ev)


# ---------------------------------------------------------------------------
# Compilation into the tower
# ---------------------------------------------------------------------------


class ProductSpec:
    """A hypergeometric product atom declared up front: the generator
    `name` has shift ratio alpha and its product starts at `lower`."""

    __slots__ = ("name", "alpha", "lower")

    def __init__(self, name: str, alpha: RatFunc, lower: int = 1):
        self.name, self.alpha, self.lower = name, alpha, lower


class CompileResult:
    __slots__ = ("tower", "spec", "elem", "lam", "optimality_certified")

    def __init__(self, tower: Tower, spec: EvalSpec, elem: TowerElem, lam: int,
                 optimality_certified: bool):
        self.tower, self.spec, self.elem = tower, spec, elem
        self.lam, self.optimality_certified = lam, optimality_certified


class _Session:
    __slots__ = ("tower", "spec", "certified")

    def __init__(self, tower, spec):
        self.tower = tower
        self.spec = spec
        self.certified = True


def compile(e, products=()) -> CompileResult:
    """Compile an expression in n into a tower element a with a validity
    bound lam: the input and a evaluate identically for every k >= lam.

    Sums telescope innermost-first.  Product leaves must match a declared
    ProductSpec ratio.  The result tower is pruned to the generators a
    actually uses, and lam is tightened downward by exact comparison of
    the input with a's printed form, both through the spec's Evaluator."""
    tower = Tower()
    spec = EvalSpec()
    for p in products:
        start = z_function_base(p.alpha) + 1
        if p.lower < start:
            raise UnsupportedShape(
                f"product {p.name!r} starts at {p.lower}, "
                f"but its ratio only supports {start} on"
            )
        tower = adjoin_pi(tower, TowerElem.base(p.alpha), name=p.name)
        spec.overrides[p.name] = (p.lower, Fraction(1))
    st = _Session(tower, spec)
    elem, lam = _compile_node(st, e, "n")
    lam = max(lam, o_function(st.tower, spec, elem))
    pruned, elem, _ = _prune_tower(st.tower, elem, 0)
    out, ev = reinterpret(pruned, spec, elem), spec.ev
    while lam > 0 and evaluate(e, lam - 1, ev) == evaluate(out, lam - 1, ev):
        lam -= 1
    return CompileResult(pruned, spec, elem, lam, st.certified)


def _prune_tower(grown: Tower, g: TowerElem, base_len: int):
    """Drop the generators from base_len on that g uses neither directly
    nor through the shift part of a kept one; remap g and the kept
    generators into the smaller tower."""
    keep, todo = set(), list(occurring_generators(grown, g))
    while todo:
        i = todo.pop()
        if i >= base_len and i not in keep:
            keep.add(i)
            todo.extend(occurring_generators(grown, grown.gens[i].shift_part))
    kept_sorted = sorted(keep)
    old_to_new = {i: i for i in range(base_len)}
    for new_i, old_i in enumerate(kept_sorted, start=base_len):
        old_to_new[old_i] = new_i

    gens = list(grown.gens[:base_len])
    for old_i in kept_sorted:
        gen = grown.gens[old_i]
        gens.append(
            Generator(
                gen.name,
                gen.kind,
                _remap_elem(gen.shift_part, old_to_new),
                gen.depth,
                gen.certificate,
            )
        )
    # the generators below base_len are the same objects, so their solves
    # stay in the shared memo
    pruned = Tower(gens, grown._solve_cache)
    return pruned, _remap_elem(g, old_to_new), tuple(grown.gens[i].name for i in kept_sorted)


def _remap_elem(f: TowerElem, old_to_new: dict) -> TowerElem:
    """f with the exponent at each generator position i moved to
    old_to_new[i].  The map keeps the order of the positions f uses, so
    the last one of a trimmed vector stays its last."""
    terms = {}
    for vec, c in f.terms.items():
        new = [0] * (old_to_new[len(vec) - 1] + 1 if vec else 0)
        for i, e in enumerate(vec):
            if e:
                new[old_to_new[i]] = e
        terms[tuple(new)] = c
    return TowerElem(terms)


def _compile_node(st: _Session, e, var: str):
    if isinstance(e, Const):
        return TowerElem.const(e.value), 0
    if isinstance(e, Base):
        if e.var != var:
            raise UnsupportedShape(
                f"summand depends on the outer index {e.var!r}"
            )
        return TowerElem.base(e.rf), 0
    if isinstance(e, Plus):
        out, lam = TowerElem.const(0), 0
        for t in e.terms:
            el, l2 = _compile_node(st, t, var)
            out, lam = out + el, max(lam, l2)
        return out, lam
    if isinstance(e, Times):
        out, lam = TowerElem.const(1), 0
        for f in e.factors:
            el, l2 = _compile_node(st, f, var)
            out, lam = out * el, max(lam, l2)
        return out, lam
    if isinstance(e, Power):
        el, lam = _compile_node(st, e.base, var)
        _check_degree(el.degree() * e.exp)
        return el ** e.exp, lam
    if isinstance(e, Sum):
        return _compile_sum(st, e, var)
    if isinstance(e, Prod):
        return _compile_prod(st, e, var)
    raise TypeError(f"not an expression node: {e!r}")


def _compile_sum(st: _Session, e: Sum, var: str):
    if e.upper != var:
        raise UnsupportedShape(
            f"sum over {e.idx!r} runs to {e.upper!r}, not the active index"
        )
    body_elem, lam_body = _compile_node(st, e.body, e.idx)
    res = telescope_depth_optimal(st.tower, sigma(st.tower, body_elem, 1))
    st.tower, g = res.tower, res.g
    st.certified = st.certified and res.optimality_certified
    lf = o_function(st.tower, st.spec, body_elem)
    lg = o_function(st.tower, st.spec, g)
    r1 = max(e.lower, lam_body, lf + 1, lg + 1)
    # the body reads no outer index, so e evaluates by its prefix memo;
    # below e.lower it is the empty sum 0
    c = st.spec.ev.eval(e, {var: r1 - 1}) - eval_field(st.tower, st.spec, g, r1 - 1)
    return g + TowerElem.const(c), r1


def _compile_prod(st: _Session, e: Prod, var: str):
    if e.upper != var:
        raise UnsupportedShape(
            f"product over {e.idx!r} runs to {e.upper!r}, not the active index"
        )
    if isinstance(e.body, Power) and isinstance(e.body.base, Base):
        # a rational power that _power left unexpanded
        _check_degree(_degree(e.body.base.rf) * e.body.exp)
    rv = _ratval(e.body)
    if rv is None or (rv[0] is not None and rv[0] != e.idx):
        raise UnsupportedShape(
            "product body must be a rational function of its own index"
        )
    ratio = rv[1].shift(1)
    for i, gen in enumerate(st.tower.gens):
        if (
            gen.kind == "pi"
            and gen.shift_part.level == 0
            and gen.shift_part.rf == ratio
        ):
            break
    else:
        raise UnsupportedShape(
            "product does not match any registered hypergeometric atom"
        )
    r, _ = st.spec.params(st.tower, i)
    if e.lower < r:
        raise UnsupportedShape(
            f"product lower bound {e.lower} is below the registered start {r}"
        )
    scale = eval_field(st.tower, st.spec, TowerElem.gen(i), e.lower - 1)
    return TowerElem.gen(i) * TowerElem.const(1 / scale), max(e.lower - 1, 0)


# ---------------------------------------------------------------------------
# Reinterpretation back into expressions
# ---------------------------------------------------------------------------


def reinterpret(tower: Tower, spec: EvalSpec, a: TowerElem):
    """Unfold an element of the monomial class (dfield.monomials) into an
    expression in n: the printed form, whose value eval_field gives.
    Monomials are emitted by exponent vector, descending; each generator's
    unfolding comes from spec, which builds it once."""
    return _elem_expr(tower, spec, a, "n")


def _elem_expr(tower, spec, elem: TowerElem, var: str):
    monos = monomials(tower, elem)
    terms = []
    for degs in sorted(monos, reverse=True):
        rf = monos[degs]
        factors = []
        if not rf.is_one() or not any(degs):
            factors.append(_leaf(var, rf))
        for i, d in enumerate(degs):
            if d:
                unit = spec.unit(tower, i, var, 1 if d > 0 else -1)
                factors.append(_power(unit, abs(d)))
        terms.append(_times(factors))
    return _plus(terms)
