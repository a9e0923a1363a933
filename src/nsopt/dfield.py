"""Towers of difference-field extensions over (Q(x), x -> x+1).

A Tower is an ordered list of generators t_1, t_2, ... over the rational
difference field.  Each generator is sum-like ("sigma": s(t) = t + beta)
or product-like ("pi": s(t) = alpha * t) with beta/alpha lying strictly
below it, and carries the depth assigned at adjunction time:

    depth(constant) = 0,  depth(x) = 1,  depth(t) = depth(shift part) + 1.

A TowerElem is the recursive rational normal form: at level 0 a reduced
RatFunc over Q, at level L a reduced rational function in t_L whose
coefficients are TowerElems of strictly lower level.  Elements are always
stored at the *minimal* possible level (an element whose top generator
cancels is demoted), so equality is plain structural comparison.

This module adjoins generators without checking them; telescope certifies
every adjunction and stores its certificate on the generator.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Poly, RatFunc, poly_gcd

__all__ = [
    "Generator",
    "Tower",
    "TowerElem",
    "sigma",
    "depth",
    "is_polynomial_part",
    "occurring_generators",
    "constant_component",
    "eval_at_point",
    "elem_to_str",
    "tower_to_json",
]


class Generator:
    """One tower level: name, kind ('sigma' or 'pi'), shift part, depth,
    and the certificate its adjunction was checked with."""

    __slots__ = ("name", "kind", "shift_part", "depth", "certificate")

    def __init__(self, name, kind, shift_part, depth, certificate=""):
        if kind not in ("sigma", "pi"):
            raise ValueError(f"generator kind must be 'sigma' or 'pi', not {kind!r}")
        self.name = name
        self.kind = kind
        self.shift_part = shift_part
        self.depth = depth
        self.certificate = certificate

    def __repr__(self):
        return f"Generator({self.name!r}, {self.kind!r}, depth={self.depth})"


class Tower:
    """Immutable ordered list of generators over Q(x)."""

    __slots__ = ("gens", "_sigma_cache", "_solve_cache")

    def __init__(self, gens=(), solve_cache=None):
        self.gens = tuple(gens)
        names = [g.name for g in self.gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self._sigma_cache = {}
        # telescope's solve memo, shared by every tower grown from one root
        self._solve_cache = {} if solve_cache is None else solve_cache

    def __len__(self):
        return len(self.gens)

    def names(self):
        return [g.name for g in self.gens]

    def gen_index(self, name: str) -> int:
        for i, g in enumerate(self.gens):
            if g.name == name:
                return i
        raise KeyError(name)

    def extended(self, gen: Generator) -> "Tower":
        if gen.shift_part.level > len(self.gens):
            raise ValueError("shift part does not lie below the new generator")
        return Tower(self.gens + (gen,), self._solve_cache)

    def prefix(self, nlevels: int) -> "Tower":
        return Tower(self.gens[:nlevels], self._solve_cache)

    def fresh_name(self, stem: str = "t") -> str:
        used = set(self.names())
        i = len(self.gens) + 1
        while f"{stem}{i}" in used:
            i += 1
        return f"{stem}{i}"

    def __repr__(self):
        inner = "".join(f"({g.name})" for g in self.gens)
        return f"Tower(Q(x){inner})"


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class TowerElem:
    """Element of the tower field in recursive rational normal form.

    level 0 wraps a RatFunc over Q; level L wraps a RatFunc whose Poly
    coefficients are TowerElems of level < L.  Instances are produced by
    the factories below, which enforce demotion to minimal level.
    """

    __slots__ = ("level", "rf")

    def __init__(self, level: int, rf: RatFunc):
        self.level = level
        self.rf = rf

    # -- factories ---------------------------------------------------------

    @staticmethod
    def _make(level: int, rf: RatFunc) -> "TowerElem":
        while level > 0 and rf.num.degree <= 0 and rf.den.degree <= 0:
            if rf.num.is_zero():
                return ZERO
            # monic degree-0 denominator is exactly the lower-level one
            inner = rf.num.coeff(0)
            if isinstance(inner, TowerElem):
                level, rf = inner.level, inner.rf
            else:  # pragma: no cover - coefficients at level >= 1 are elems
                level, rf = 0, RatFunc.from_const(inner)
        return TowerElem(level, rf)

    @staticmethod
    def const(c) -> "TowerElem":
        return TowerElem(0, RatFunc.from_const(Fraction(c)))

    @staticmethod
    def base(rf: RatFunc) -> "TowerElem":
        return TowerElem(0, rf)

    @staticmethod
    def base_x() -> "TowerElem":
        return TowerElem(0, RatFunc.X)

    @staticmethod
    def gen(index: int) -> "TowerElem":
        """The generator t_{index+1} as an element (level index+1)."""
        level = index + 1
        t = Poly((ZERO, ONE))
        return TowerElem(level, RatFunc(t, _one_poly(), _normalized=True))

    @staticmethod
    def from_poly(level: int, p: Poly) -> "TowerElem":
        if level == 0:
            return TowerElem(0, RatFunc.from_poly(p))
        return TowerElem._make(level, RatFunc(p, _one_poly()))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.level == 0 and self.rf.is_zero()

    def is_constant(self) -> bool:
        return self.level == 0 and self.rf.is_constant()

    def constant_value(self) -> Fraction:
        return self.rf.constant_value()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, TowerElem):
            return self.level == other.level and self.rf == other.rf
        if isinstance(other, (int, Fraction)):
            return self.level == 0 and self.rf == RatFunc.from_const(Fraction(other))
        return NotImplemented

    def __hash__(self):
        return hash(("TowerElem", self.level, self.rf))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElem):
            return other
        if isinstance(other, (int, Fraction)):
            return TowerElem.const(other)
        if isinstance(other, RatFunc):
            return TowerElem.base(other)
        return None

    def _aligned(self, other):
        a, b = self, other
        if a.level == b.level:
            return a.level, a.rf, b.rf
        if a.level < b.level:
            return b.level, _lift_rf(a, b.level), b.rf
        return a.level, a.rf, _lift_rf(b, a.level)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        level, fa, fb = self._aligned(o)
        if level == 0:
            return TowerElem._make(0, fa + fb)
        return _add_level(level, fa, fb)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return TowerElem(self.level, -self.rf)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return ZERO
        level, fa, fb = self._aligned(o)
        if level == 0:
            return TowerElem._make(0, fa * fb)
        return _mul_level(level, fa, fb)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero tower element")
        if self.is_zero():
            return ZERO
        level, fa, fb = self._aligned(o)
        if level == 0:
            return TowerElem._make(0, fa / fb)
        return _mul_level(level, fa, RatFunc(fb.den, fb.num, _normalized=True))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "TowerElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero tower element")
        if self.level == 0:
            return TowerElem._make(0, self.rf.inverse())
        return _make_reduced(self.level, self.rf.den, self.rf.num)

    def __pow__(self, n: int) -> "TowerElem":
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self):
        return f"TowerElem(level={self.level}, {self.rf!r})"


ZERO = TowerElem(0, RatFunc.from_const(Fraction(0)))
ONE = TowerElem(0, RatFunc.from_const(Fraction(1)))


def _one_poly() -> Poly:
    return Poly((ONE,))


def _lift_rf(e: TowerElem, level: int) -> RatFunc:
    """View a lower element as a degree-0 rational function at `level`."""
    if e.level >= level:
        raise ArithmeticError(f"cannot lift a level-{e.level} element to level {level}")
    return RatFunc(Poly((e,)), _one_poly(), _normalized=True)


def _coeff_elems(p: Poly):
    """Coefficients of a tower-level Poly as TowerElems."""
    return [c if isinstance(c, TowerElem) else TowerElem.const(c) for c in p.coeffs]


# ---------------------------------------------------------------------------
# Normalization at tower levels
#
# Reducing num/den with a generic fraction-field Euclid is exponential in
# the nesting depth, and almost all pairs met in practice are coprime.  We
# test coprimality by specializing x and the lower generators to random
# rationals: if both leading coefficients survive the specialization, any
# common factor keeps its degree, so a degree-0 specialized gcd *proves*
# the pair coprime and the symbolic gcd can be skipped.
# ---------------------------------------------------------------------------


def eval_at_point(f: TowerElem, vals) -> Fraction:
    """Value of f at x = vals[0] and tower.gens[k-1] = vals[k] for k >= 1.

    None when a pole is hit, in f's own denominator or in any coefficient
    at any level below it."""
    if f.level == 0:
        return f.rf.eval_at(vals[0])
    n = _eval_poly_point(f.rf.num, f.level, vals)
    d = _eval_poly_point(f.rf.den, f.level, vals)
    if n is None or d is None or d == 0:
        return None
    return n / d


def _eval_poly_point(p: Poly, level: int, vals) -> Fraction:
    acc = Fraction(0)
    v = vals[level]
    for c in reversed(p.coeffs):
        cv = eval_at_point(c, vals) if isinstance(c, TowerElem) else Fraction(c)
        if cv is None:
            return None
        acc = acc * v + cv
    return acc


def _specialize_coeffs(p: Poly, vals) -> Poly:
    out = []
    for c in p.coeffs:
        cv = eval_at_point(c, vals) if isinstance(c, TowerElem) else Fraction(c)
        if cv is None:
            return None
        out.append(cv)
    return Poly(tuple(out))


def _provably_coprime(num: Poly, den: Poly, level: int) -> bool:
    rng = random.Random(0xC0FFEE ^ level)
    for _ in range(4):
        vals = [Fraction(rng.randint(19, 9973), rng.randint(1, 89)) for _ in range(level)]
        pn = _specialize_coeffs(num, vals)
        pd = _specialize_coeffs(den, vals)
        if pn is None or pd is None:
            continue
        if pn.degree != num.degree or pd.degree != den.degree:
            continue  # a leading coefficient vanished; point is not generic
        if poly_gcd(pn, pd).degree == 0:
            return True
    return False


def _gcd_level(level: int, p: Poly, q: Poly) -> Poly:
    """gcd of two nonzero tower-level polys; degree 0 means coprime."""
    if p.degree <= 0 or q.degree <= 0:
        return _one_poly()
    if _provably_coprime(p, q, level):
        return _one_poly()
    return poly_gcd(p, q)


def _make_reduced(level: int, num: Poly, den: Poly) -> TowerElem:
    """Finish a *known coprime* num/den pair: monic denominator, demote."""
    if num.is_zero():
        return ZERO
    lc = den.lc()
    lc = lc if isinstance(lc, TowerElem) else TowerElem.const(lc)
    if lc != ONE:
        inv = lc.inverse()
        num = num.scale(inv)
        den = den.scale(inv)
    if den.degree == 0:
        den = _one_poly()
    return TowerElem._make(level, RatFunc(num, den, _normalized=True))


def _add_level(level: int, fa: RatFunc, fb: RatFunc) -> TowerElem:
    """a/b + c/d with only operand-sized gcds (extract e = gcd(b, d) first;
    the residual common factor then divides e, so one more small gcd
    finishes the reduction)."""
    na, da, nb, db = fa.num, fa.den, fb.num, fb.den
    e = _gcd_level(level, da, db)
    if e.degree <= 0:
        num = na * db + nb * da
        if num.is_zero():
            return ZERO
        return _make_reduced(level, num, da * db)
    abar = da.exact_div(e)
    bbar = db.exact_div(e)
    num = na * bbar + nb * abar
    if num.is_zero():
        return ZERO
    h = _gcd_level(level, num, e)
    if h.degree >= 1:
        num = num.exact_div(h)
        e = e.exact_div(h)
    return _make_reduced(level, num, e * abar * bbar)


def _mul_level(level: int, fa: RatFunc, fb: RatFunc) -> TowerElem:
    """a/b * c/d via cross-cancellation; the result needs no further gcd."""
    na, da, nb, db = fa.num, fa.den, fb.num, fb.den
    g1 = _gcd_level(level, na, db)
    if g1.degree >= 1:
        na = na.exact_div(g1)
        db = db.exact_div(g1)
    g2 = _gcd_level(level, nb, da)
    if g2.degree >= 1:
        nb = nb.exact_div(g2)
        da = da.exact_div(g2)
    return _make_reduced(level, na * nb, da * db)


# ---------------------------------------------------------------------------
# The shift automorphism
# ---------------------------------------------------------------------------


def sigma(tower: Tower, f: TowerElem, j: int = 1) -> TowerElem:
    """Apply the shift automorphism j times (j may be negative)."""
    step = 1 if j >= 0 else -1
    for _ in range(abs(j)):
        f = _sigma_step(tower, f, step)
    return f


def _sigma_step(tower: Tower, f: TowerElem, step: int) -> TowerElem:
    cache = tower._sigma_cache
    key = (f, step)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if f.level == 0:
        out = TowerElem(0, f.rf.shift(step))
    else:
        t_image = _gen_image(tower, f.level - 1, step)
        num = _subst_poly(tower, f.rf.num, t_image, step)
        den = _subst_poly(tower, f.rf.den, t_image, step)
        out = num / den
    if len(cache) < 200000:
        cache[key] = out
    return out


def _gen_image(tower: Tower, index: int, step: int) -> TowerElem:
    """sigma^step of generator t_{index+1} as an element."""
    key = ("gen", index, step)
    cached = tower._sigma_cache.get(key)
    if cached is not None:
        return cached
    gen = tower.gens[index]
    t = TowerElem.gen(index)
    if gen.kind == "sigma":
        if step == 1:
            out = t + gen.shift_part
        else:
            out = t - _sigma_step(tower, gen.shift_part, -1)
    else:
        if step == 1:
            out = gen.shift_part * t
        else:
            out = t / _sigma_step(tower, gen.shift_part, -1)
    tower._sigma_cache[key] = out
    return out


def _subst_poly(tower: Tower, p: Poly, t_image: TowerElem, step: int) -> TowerElem:
    """Horner: apply sigma^step to coefficients, substitute t -> t_image."""
    acc = ZERO
    for c in reversed(_coeff_elems(p)):
        acc = acc * t_image + _sigma_step(tower, c, step)
    return acc


# ---------------------------------------------------------------------------
# Depth and occurrence
# ---------------------------------------------------------------------------


def depth(tower: Tower, f: TowerElem) -> int:
    """0 for constants, else the max depth of x and the generators that
    occur in the reduced numerator or denominator."""
    d = 0
    for idx in occurring_generators(tower, f):
        d = max(d, 1 if idx == -1 else tower.gens[idx].depth)
    return d


def occurring_generators(tower: Tower, f: TowerElem) -> set:
    """Indices of generators occurring in f's reduced form; -1 stands for
    the base variable x."""
    out = set()
    _occurs_walk(f, out)
    return out


def _occurs_walk(f: TowerElem, out: set):
    if f.level == 0:
        if f.rf.num.degree >= 1 or f.rf.den.degree >= 1:
            out.add(-1)
        return
    if f.rf.num.degree >= 1 or f.rf.den.degree >= 1:
        out.add(f.level - 1)
    for c in f.rf.num.coeffs:
        _occurs_walk(c, out)
    for c in f.rf.den.coeffs:
        _occurs_walk(c, out)


def is_polynomial_part(tower: Tower, f: TowerElem) -> bool:
    """True iff no sum-like generator occurs in any denominator at any
    level of the reduced representation (x and product-like generators may
    appear in denominators)."""
    bad = set()
    _den_gens(f, bad)
    return not any(idx >= 0 and tower.gens[idx].kind == "sigma" for idx in bad)


def _den_gens(f: TowerElem, out: set):
    if f.level == 0:
        return
    if f.rf.den.degree >= 1:
        out.add(f.level - 1)
    for c in f.rf.den.coeffs:
        _occurs_walk(c, out)  # anything inside a denominator coefficient counts
    for c in f.rf.num.coeffs:
        _den_gens(c, out)


def constant_component(tower: Tower, f: TowerElem) -> Fraction:
    """The rational-constant summand of a polynomial-part element (the
    coefficient of the all-zero monomial); 0 when there is none."""
    while f.level > 0:
        if f.rf.den.degree >= 1:
            return Fraction(0)
        c0 = f.rf.num.coeff(0)
        f = c0 if isinstance(c0, TowerElem) else TowerElem.const(c0)
    if f.rf.is_zero():
        return Fraction(0)
    return f.rf.poly_part().coeff(0) if f.rf.den.is_one() else Fraction(0)


# ---------------------------------------------------------------------------
# Adjunction
# ---------------------------------------------------------------------------


def _adjoin_sigma_star_unchecked(tower: Tower, beta: TowerElem, name=None, certificate="") -> Tower:
    gen = Generator(
        name or tower.fresh_name(),
        "sigma",
        beta,
        depth(tower, beta) + 1,
        certificate,
    )
    return tower.extended(gen)


# ---------------------------------------------------------------------------
# Printing and serialization
# ---------------------------------------------------------------------------


def elem_to_str(tower: Tower, f: TowerElem) -> str:
    """Canonical text form using x and the generator names."""
    if f.level == 0:
        return f.rf.to_str("x")
    num = _poly_to_str(tower, f.rf.num, f.level)
    if f.rf.den.is_one():
        return num
    den = _poly_to_str(tower, f.rf.den, f.level)
    if " + " in num or " - " in num:
        num = f"({num})"
    return f"{num}/({den})"


def _poly_to_str(tower: Tower, p: Poly, level: int) -> str:
    name = tower.gens[level - 1].name
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if isinstance(c, TowerElem):
            if c.is_zero():
                continue
            cs = elem_to_str(tower, c)
        else:
            if not c:
                continue
            cs = str(c)
        tpow = "" if i == 0 else (name if i == 1 else f"{name}^{i}")
        if tpow:
            if cs == "1":
                term = tpow
            elif cs == "-1":
                term = f"-{tpow}"
            else:
                if " + " in cs or " - " in cs or "/" in cs:
                    cs = f"({cs})"
                term = f"{cs}*{tpow}"
        else:
            term = cs
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts) if parts else "0"


def tower_to_json(tower: Tower) -> dict:
    """Canonical JSON-ready structure (deterministic field order)."""
    gens = []
    for i, g in enumerate(tower.gens):
        gens.append(
            {
                "name": g.name,
                "kind": g.kind,
                "shift_part": elem_to_str(tower.prefix(i), g.shift_part),
                "depth": g.depth,
            }
        )
    return {"base": "Q(x)", "shift": "x -> x + 1", "generators": gens}
