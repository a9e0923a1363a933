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
exact prefix evaluation.  reinterpret() walks the other way: a
polynomial-part element splits into monomials and every generator unfolds
into the sum (or product) of its shift part, so the printed result
evaluates exactly like the element.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .algebra import Poly, RatFunc, nonneg_integer_roots
from .dfield import Tower, TowerElem, eval_at_point, is_polynomial_part, sigma
from .telescope import (
    UnsupportedShape,
    _prune_tower,
    adjoin_pi,
    telescope_depth_optimal,
)

__all__ = [
    "ParseError",
    "ScopeError",
    "ZeroElement",
    "NotPolynomialPart",
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


class NotPolynomialPart(ValueError):
    """Reinterpretation needs sum-like generators kept out of denominators."""


# ---------------------------------------------------------------------------
# Syntax trees
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Const:
    value: Fraction


@dataclasses.dataclass(frozen=True)
class Base:
    """A rational function of a single index."""

    rf: RatFunc
    var: str


@dataclasses.dataclass(frozen=True)
class Plus:
    terms: tuple


@dataclasses.dataclass(frozen=True)
class Times:
    factors: tuple


@dataclasses.dataclass(frozen=True)
class Power:
    base: object
    exp: int


@dataclasses.dataclass(frozen=True)
class Sum:
    idx: str
    lower: int
    upper: str
    body: object


@dataclasses.dataclass(frozen=True)
class Prod:
    idx: str
    lower: int
    upper: str
    body: object


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


def _power(b, e: int) -> object:
    rv = _ratval(b)
    if rv is not None:
        return _leaf(rv[0], rv[1] ** e)
    if isinstance(b, Power):
        return Power(b.base, b.exp * e)
    if e == 1:
        return b
    return Power(b, e)


def _negate(e) -> object:
    return _times([Const(Fraction(-1)), e])


def _divide(a, b, pos: int) -> object:
    rv = _ratval(b)
    if rv is None:
        raise ParseError("divisor must be a rational function of one index", pos)
    v, rf = rv
    if not rf:
        raise ParseError("division by zero", pos)
    return _times([a, _leaf(v, rf.inverse())])


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


def _mono_src(c: Fraction, k: int, var: str) -> str:
    if k == 0:
        return str(c)
    xpow = var if k == 1 else f"{var}^{k}"
    if c == 1:
        return xpow
    if c == -1:
        return f"-{xpow}"
    return f"{c}*{xpow}"


def _poly_src(p: Poly, var: str):
    if p.is_zero():
        return "0", _P_ATOM
    parts = [
        _mono_src(p.coeff(k), k, var)
        for k in range(p.degree, -1, -1)
        if p.coeff(k)
    ]
    text = _join_signed(parts)
    if len(parts) > 1:
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


def _rename_var(e, old: str, new: str):
    """Substitute a free index name; binders never collide with `old`
    because the parser forbids shadowing."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Base):
        return Base(e.rf, new) if e.var == old else e
    if isinstance(e, Plus):
        return Plus(tuple(_rename_var(t, old, new) for t in e.terms))
    if isinstance(e, Times):
        return Times(tuple(_rename_var(t, old, new) for t in e.factors))
    if isinstance(e, Power):
        return Power(_rename_var(e.base, old, new), e.exp)
    up = new if e.upper == old else e.upper
    return type(e)(e.idx, e.lower, up, _rename_var(e.body, old, new))


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------


class Evaluator:
    """Exact evaluation with running-prefix memoization.

    Quantifier nodes whose body depends only on their own index keep a
    growing prefix of partial sums/products, so sweeping k over a range is
    linear instead of quadratic.  Poles evaluate to zero, an empty sum to
    zero, an empty product to one."""

    def __init__(self):
        self._prefix = {}
        self._free = {}

    def eval(self, e, env: dict) -> Fraction:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Base):
            v = e.rf.eval_at(env[e.var])
            return v if v is not None else Fraction(0)
        if isinstance(e, Plus):
            return sum(self.eval(t, env) for t in e.terms)
        if isinstance(e, Times):
            out = Fraction(1)
            for f in e.factors:
                out *= self.eval(f, env)
            return out
        if isinstance(e, Power):
            return self.eval(e.base, env) ** e.exp
        if isinstance(e, (Sum, Prod)):
            ub = int(env[e.upper])
            empty = Fraction(0) if isinstance(e, Sum) else Fraction(1)
            if ub < e.lower:
                return empty
            if self._free_vars(e.body) <= {e.idx}:
                return self._prefix_eval(e, ub, empty)
            out = empty
            for k in range(e.lower, ub + 1):
                val = self.eval(e.body, {**env, e.idx: Fraction(k)})
                out = out + val if isinstance(e, Sum) else out * val
            return out
        raise TypeError(f"not an expression node: {e!r}")

    def _free_vars(self, e) -> frozenset:
        got = self._free.get(e)
        if got is not None:
            return got
        if isinstance(e, Const):
            out = frozenset()
        elif isinstance(e, Base):
            out = frozenset((e.var,))
        elif isinstance(e, Plus):
            out = frozenset().union(*(self._free_vars(t) for t in e.terms))
        elif isinstance(e, Times):
            out = frozenset().union(*(self._free_vars(t) for t in e.factors))
        elif isinstance(e, Power):
            out = self._free_vars(e.base)
        else:
            out = (self._free_vars(e.body) - {e.idx}) | {e.upper}
        self._free[e] = out
        return out

    def _prefix_eval(self, e, ub: int, empty: Fraction) -> Fraction:
        vals = self._prefix.setdefault(e, [])
        while len(vals) <= ub - e.lower:
            k = e.lower + len(vals)
            prev = vals[-1] if vals else empty
            step = self.eval(e.body, {e.idx: Fraction(k)})
            vals.append(prev + step if isinstance(e, Sum) else prev * step)
        return vals[ub - e.lower]


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
    the largest base-coefficient pole bound, joined with the start index
    of every occurring generator.

    The bound is only a guarantee for elements whose denominators sit at
    the base (or are monomials in product-like generators) -- the class
    the solver and compiler produce.  A denominator that is a genuine
    polynomial in a sum-like generator can vanish at indices no
    structural bound sees, e.g. h^2 - 1 at the index where h reaches 1."""
    if f.level == 0:
        return _L_base(f.rf)
    out = 0
    if f.rf.num.degree >= 1 or f.rf.den.degree >= 1:
        out = spec.params(tower, f.level - 1)[0] - 1
    for p in (f.rf.num, f.rf.den):
        for c in p.coeffs:
            if isinstance(c, TowerElem):
                out = max(out, o_function(tower, spec, c))
    return out


# ---------------------------------------------------------------------------
# Canonical evaluation of tower elements
# ---------------------------------------------------------------------------


class EvalSpec:
    """Per-generator evaluation data: start index r and initial value c.

    Sum-like generators get r = o(shift part) + 1 with c = 0; product-like
    ones r = z(ratio) + 1 with c = 1 (z also clears the ratio's poles),
    unless overridden (registered products carry their declared lower
    bound).  Value prefixes are cached per generator object, so pruned and
    regrown towers never collide."""

    def __init__(self, overrides=None):
        self.overrides = dict(overrides or {})
        self._params = {}
        self._vals = {}

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

    def gen_value(self, tower: Tower, index: int, k: int) -> Fraction:
        gen = tower.gens[index]
        r, c = self.params(tower, index)
        if k < r:
            return c
        vals = self._vals.setdefault(gen, [])
        while len(vals) <= k - r:
            i = r + len(vals)
            prev = vals[-1] if vals else c
            step = eval_field(tower, self, gen.shift_part, i - 1)
            vals.append(prev + step if gen.kind == "sigma" else prev * step)
        return vals[k - r]


def eval_field(tower: Tower, spec: EvalSpec, f: TowerElem, k: int) -> Fraction:
    """Canonical value of a tower element at index k.

    A pole anywhere in f, in its denominator or in a coefficient at any
    level, gives 0 for the whole element.  Poles occur only at k < o(f)."""
    vals = [Fraction(k)] + [spec.gen_value(tower, i, k) for i in range(f.level)]
    v = eval_at_point(f, vals)
    return v if v is not None else Fraction(0)


# ---------------------------------------------------------------------------
# Compilation into the tower
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ProductSpec:
    """A hypergeometric product atom declared up front: the generator
    `name` has shift ratio alpha and its product starts at `lower`."""

    name: str
    alpha: RatFunc
    lower: int = 1


@dataclasses.dataclass(frozen=True)
class CompileResult:
    tower: Tower
    spec: EvalSpec
    elem: TowerElem
    lam: int
    optimality_certified: bool


class _Session:
    __slots__ = ("tower", "spec", "ev", "atom_power", "mono_degree",
                 "certified", "cache")

    def __init__(self, tower, spec, atom_power, mono_degree):
        self.tower = tower
        self.spec = spec
        self.ev = Evaluator()
        self.atom_power = atom_power
        self.mono_degree = mono_degree
        self.certified = True
        self.cache = {}


def compile(e, products=(), max_atom_power: int = 6,
            max_monomial_degree: int = 3) -> CompileResult:
    """Compile an expression in n into a tower element a with a validity
    bound lam: the input and a evaluate identically for every k >= lam.

    Sums telescope innermost-first; identical bodies (up to the binder
    name) share one telescoping.  Product leaves must match a declared
    ProductSpec ratio.  The result tower is pruned to the generators a
    actually uses, and lam is tightened downward by exact comparison."""
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
    st = _Session(tower, spec, max_atom_power, max_monomial_degree)
    elem, lam = _compile_node(st, e, "n")
    lam = max(lam, o_function(st.tower, spec, elem))
    pruned, elem, _ = _prune_tower(st.tower, elem, 0)
    while lam > 0:
        k = lam - 1
        if st.ev.eval(e, {"n": Fraction(k)}) != eval_field(pruned, spec, elem, k):
            break
        lam -= 1
    return CompileResult(pruned, spec, elem, lam, st.certified)


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
    key = _rename_var(e.body, e.idx, "@")
    hit = st.cache.get(key)
    if hit is None:
        body_elem, lam_body = _compile_node(st, e.body, e.idx)
        f = sigma(st.tower, body_elem, 1)
        res = telescope_depth_optimal(
            st.tower,
            f,
            max_atom_power=st.atom_power,
            max_monomial_degree=st.mono_degree,
        )
        st.tower = res.tower
        st.certified = st.certified and res.optimality_certified
        hit = (body_elem, lam_body, res.g)
        st.cache[key] = hit
    body_elem, lam_body, g = hit
    lf = o_function(st.tower, st.spec, body_elem)
    lg = o_function(st.tower, st.spec, g)
    r1 = max(e.lower, lam_body, lf + 1, lg + 1)
    c = Fraction(0)
    for k in range(e.lower, r1):
        c += st.ev.eval(e.body, {e.idx: Fraction(k)})
    c -= eval_field(st.tower, st.spec, g, r1 - 1)
    return g + TowerElem.const(c), r1


def _compile_prod(st: _Session, e: Prod, var: str):
    if e.upper != var:
        raise UnsupportedShape(
            f"product over {e.idx!r} runs to {e.upper!r}, not the active index"
        )
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
    """Unfold a polynomial-part element into an expression in n that
    evaluates exactly like eval_field(a) at every k.  Monomials are
    emitted by generator index then degree, descending."""
    if not is_polynomial_part(tower, a):
        raise NotPolynomialPart("a sum-like generator occurs in a denominator")
    return _elem_expr(tower, spec, a, "n", _GenExprs(tower, spec))


class _GenExprs:
    """Per-generator expression forms, shared across monomials."""

    def __init__(self, tower, spec):
        self.tower = tower
        self.spec = spec
        self._cache = {}

    def power(self, i: int, d: int, var: str):
        if d < 0:
            return _power(self._unit(i, var, -1), -d)
        return _power(self._unit(i, var, +1), d)

    def _unit(self, i: int, var: str, direction: int):
        key = (i, var, direction)
        got = self._cache.get(key)
        if got is not None:
            return got
        gen = self.tower.gens[i]
        r, c = self.spec.params(self.tower, i)
        binder = f"i{i + 1}"
        inner = sigma(self.tower, gen.shift_part, -1)
        if gen.kind == "sigma":
            body = _elem_expr(self.tower, self.spec, inner, binder, self)
            node = Sum(binder, r, var, body)
            out = _plus([node, Const(c)]) if c else node
        else:
            rf = inner.rf if direction > 0 else inner.rf.inverse()
            node = Prod(binder, r, var, _leaf(binder, rf))
            cval = c if direction > 0 else 1 / c
            out = _times([Const(cval), node]) if cval != 1 else node
        self._cache[key] = out
        return out


def _elem_expr(tower, spec, elem: TowerElem, var: str, genx: _GenExprs):
    monos = {}
    _collect_monomials(
        tower, elem, (0,) * len(tower.gens), RatFunc.from_const(Fraction(1)), monos
    )
    terms = []
    for degs in sorted(monos, reverse=True):
        rf = monos[degs]
        if not rf:
            continue
        factors = []
        if not rf.is_one() or not any(degs):
            factors.append(_leaf(var, rf))
        for i, d in enumerate(degs):
            if d:
                factors.append(genx.power(i, d, var))
        terms.append(_times(factors))
    return _plus(terms)


def _collect_monomials(tower, f: TowerElem, degs, scale: RatFunc, out: dict):
    if f.level == 0:
        rf = scale * f.rf
        out[degs] = out[degs] + rf if degs in out else rf
        return
    li = f.level - 1
    den = f.rf.den
    m = 0
    if not den.is_one():
        lead = den.coeffs[-1]
        is_monomial = (
            den.degree >= 1
            and all(not c for c in den.coeffs[:-1])
            and lead == 1
        )
        if tower.gens[li].kind != "pi" or not is_monomial:
            raise NotPolynomialPart(
                f"denominator at level {f.level} is not a unit"
            )
        m = den.degree
    for j, c in enumerate(f.rf.num.coeffs):
        if not c:
            continue
        nd = degs[:li] + (degs[li] + j - m,) + degs[li + 1:]
        if isinstance(c, TowerElem):
            _collect_monomials(tower, c, nd, scale, out)
        else:
            rf = scale * Fraction(c)
            out[nd] = out[nd] + rf if nd in out else rf
