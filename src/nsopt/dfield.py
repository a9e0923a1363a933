"""Towers of difference-field extensions over (Q(x), x -> x+1).

A Tower is an ordered list of generators t_1, t_2, ... over the rational
difference field.  Each generator is sum-like ("sigma": s(t) = t + beta)
or product-like ("pi": s(t) = alpha * t) with beta/alpha lying strictly
below it, and carries the depth assigned at adjunction time:

    depth(constant) = 0,  depth(x) = 1,  depth(t) = depth(shift part) + 1.

A TowerElem is the recursive rational normal form: a reduced RatFunc
with monic denominator at every level, over Q[x]'s Poly at level 0 and at
level L over ElemPolys, dense polynomials in t_L whose coefficients are
TowerElems of strictly lower level.  RatFunc's own field operations reduce
at every level, through each polynomial type's gcd; at the tower levels
``ElemPoly.gcd`` is Euclid over the field below, exact for every pair of
operands.  Elements are always stored at the *minimal* possible
level (an element whose top generator cancels is demoted), so equality is
plain structural comparison.

The elements the solver and the printer take are polynomials in the
sum-like generators and Laurent polynomials in the product-like ones, with
coefficients in Q(x).  ``laurent`` is the one definition of that class: it
splits an element at one level, for telescope's level solvers and for
``monomials``, which reads it as {exponent vector: Q(x) coefficient}; any
other shape raises NotPolynomialPart, an UnsupportedShape.

This module adjoins generators without checking them; telescope certifies
every adjunction and stores its certificate on the generator.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import RatFunc, ZeroPolynomial

__all__ = [
    "ElemPoly",
    "Generator",
    "Tower",
    "TowerElem",
    "fresh_name",
    "sigma",
    "depth",
    "UnsupportedShape",
    "NotPolynomialPart",
    "laurent",
    "monomials",
    "occurring_generators",
    "constant_component",
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

    __slots__ = ("gens", "_solve_cache")

    def __init__(self, gens=(), solve_cache=None):
        self.gens = tuple(gens)
        names = [g.name for g in self.gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        # the memo shared by every tower grown from one root, telescope's
        # solves under three kinds of key: (generator prefix, gamma, phis)
        # for a parameterized solve at a level over its nonzero right-hand
        # sides, the pair (gamma, E) for the base field's denominator
        # analysis at ratio gamma and common denominator E of the right-hand
        # sides, and a bare Q[x] Poly for its atoms, so each right-hand
        # side's denominator is factored once.  A level solve depends only
        # on the generators up to its level, so towers that share them
        # share it.  Shifts are not memoized: building and hashing their
        # keys costs about as much as shifting.
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
        return fresh_name(self.names(), stem)

    def __repr__(self):
        inner = "".join(f"({g.name})" for g in self.gens)
        return f"Tower(Q(x){inner})"


def fresh_name(names: list, stem: str = "t") -> str:
    """The first stem<k> with k > len(names) that is not in names: the name
    a tower with these generators gives its next one."""
    used = set(names)
    i = len(names) + 1
    while f"{stem}{i}" in used:
        i += 1
    return f"{stem}{i}"


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class TowerElem:
    """Element of the tower field in recursive rational normal form.

    level 0 wraps a RatFunc over Q; level L wraps a RatFunc whose num and
    den are ElemPolys over TowerElems of level < L, with den monic.
    Instances are produced by the factories below, which enforce demotion
    to minimal level.
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
            inner = rf.num.coeffs[0]
            level, rf = inner.level, inner.rf
        return TowerElem(level, rf)

    @staticmethod
    def const(c) -> "TowerElem":
        if type(c) is not Fraction and type(c) is not int:
            c = Fraction(c)
        return TowerElem(0, RatFunc.from_const(c))

    @staticmethod
    def base(rf: RatFunc) -> "TowerElem":
        return TowerElem(0, rf)

    @staticmethod
    def base_x() -> "TowerElem":
        return TowerElem(0, RatFunc.X)

    @staticmethod
    def gen(index: int) -> "TowerElem":
        """The generator t_{index+1} as an element (level index+1)."""
        t = ElemPoly((ZERO, ONE))
        return TowerElem(index + 1, RatFunc(t, _ELEM_ONE, _normalized=True))

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
        return TowerElem._make(level, fa + fb)

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
        if o.level == 0 and o.rf.is_one():
            return self
        if self.level == 0 and self.rf.is_one():
            return o
        level, fa, fb = self._aligned(o)
        return TowerElem._make(level, fa * fb)

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
        return TowerElem._make(level, fa / fb)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "TowerElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero tower element")
        return TowerElem._make(self.level, self.rf.inverse())

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
        if self.level == 0:
            return f"TowerElem(level=0, {self.rf!r})"
        return (f"TowerElem(level={self.level}, num={self.rf.num.coeffs!r},"
                f" den={self.rf.den.coeffs!r})")


ZERO = TowerElem(0, RatFunc.from_const(Fraction(0)))
ONE = TowerElem(0, RatFunc.from_const(Fraction(1)))


class ElemPoly:
    """Dense polynomial over tower elements, ascending in one generator:
    the numerator or denominator of a TowerElem at level >= 1.  The zero
    polynomial has no coefficients; a zero coefficient is ZERO."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == ONE

    def lc(self) -> TowerElem:
        """Leading coefficient; raises on the zero polynomial."""
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> TowerElem:
        cs = self.coeffs
        return cs[i] if 0 <= i < len(cs) else ZERO

    def __eq__(self, other):
        if isinstance(other, ElemPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "ElemPoly") -> "ElemPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = cs[i] + c
        return ElemPoly(cs)

    def __sub__(self, other: "ElemPoly") -> "ElemPoly":
        return self + (-other)

    def __neg__(self) -> "ElemPoly":
        return ElemPoly([-c for c in self.coeffs])

    def __mul__(self, other: "ElemPoly") -> "ElemPoly":
        xs, ys = self.coeffs, other.coeffs
        if not xs or not ys:
            return _ELEM_ZERO
        if len(ys) == 1:
            return self.scale(ys[0])
        if len(xs) == 1:
            return other.scale(xs[0])
        out = [ZERO] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            if x.is_zero():
                continue
            for j, y in enumerate(ys):
                out[i + j] = out[i + j] + x * y
        return ElemPoly(out)

    def scale(self, c: TowerElem) -> "ElemPoly":
        if c.is_zero():
            return _ELEM_ZERO
        return ElemPoly([a * c for a in self.coeffs])

    def __divmod__(self, other: "ElemPoly"):
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem, oc = list(self.coeffs), other.coeffs
        dq = len(rem) - len(oc)
        if dq < 0:
            return _ELEM_ZERO, self
        lc, d = oc[-1], len(oc) - 1
        quo = [ZERO] * (dq + 1)
        for k in range(dq, -1, -1):
            c = quo[k] = rem[k + d] / lc
            if not c.is_zero():
                for i, o in enumerate(oc):
                    rem[k + i] = rem[k + i] - c * o
        return ElemPoly(quo), ElemPoly(rem[:d])

    def exact_div(self, other: "ElemPoly") -> "ElemPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("exact_div: division left a remainder")
        return q

    def monic(self) -> "ElemPoly":
        cs = self.coeffs
        if not cs or cs[-1] == ONE:
            return self
        return ElemPoly([c / cs[-1] for c in cs])


_ELEM_ZERO = ElemPoly()
_ELEM_ONE = ElemPoly((ONE,))


def _elem_gcd(a: ElemPoly, b: ElemPoly) -> ElemPoly:
    """Monic gcd of two ElemPolys by Euclid; gcd(0, 0) = 0.  Keeping the
    remainders monic tames coefficient growth."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1].monic()
    return a.monic()


ElemPoly.gcd = _elem_gcd


def _lift_rf(e: TowerElem, level: int) -> RatFunc:
    """View a lower element as a degree-0 rational function at `level`."""
    if e.level >= level:
        raise ArithmeticError(f"cannot lift a level-{e.level} element to level {level}")
    return RatFunc(ElemPoly((e,)), _ELEM_ONE, _normalized=True)


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
    if f.level == 0:
        return TowerElem(0, f.rf.shift(step))
    # the image of f's top generator t: t + beta or alpha*t for step 1,
    # t - sigma^-1(beta) or t / sigma^-1(alpha) for step -1
    index = f.level - 1
    gen = tower.gens[index]
    t = TowerElem.gen(index)
    part = gen.shift_part if step == 1 else _sigma_step(tower, gen.shift_part, -1)
    if gen.kind == "sigma":
        t_image = t + part if step == 1 else t - part
    else:
        t_image = part * t if step == 1 else t / part
    num = _subst_poly(tower, f.rf.num, t_image, step)
    den = _subst_poly(tower, f.rf.den, t_image, step)
    return num / den


def _subst_poly(tower: Tower, p: ElemPoly, t_image: TowerElem, step: int) -> TowerElem:
    """Horner: apply sigma^step to coefficients, substitute t -> t_image."""
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * t_image + _sigma_step(tower, c, step)
    return acc


# ---------------------------------------------------------------------------
# Depth, occurrence and monomials
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


class UnsupportedShape(Exception):
    """The input leaves the class the solver is complete for."""


class NotPolynomialPart(UnsupportedShape):
    """An element outside the class the solver and the printer take: a
    polynomial in the sum-like generators and a Laurent polynomial in the
    product-like ones, over Q(x)."""


def laurent(tower: Tower, f: TowerElem, level: int) -> dict:
    """f as {exponent: coefficient below `level`} in the generator of
    `level` (1-based, no lower than f's), with nonzero coefficients only;
    {0: f} when f lies below that generator.  An exponent is negative only
    at a product-like generator; any other denominator raises
    NotPolynomialPart."""
    if f.level < level:
        return {0: f}
    den = f.rf.den
    m = den.degree
    # den is monic, so a monomial denominator is t^m itself
    if m and (tower.gens[level - 1].kind != "pi" or any(den.coeffs[:-1])):
        raise NotPolynomialPart(
            "a denominator is not a monomial in product-like generators"
        )
    return {j - m: c for j, c in enumerate(f.rf.num.coeffs) if c}


def monomials(tower: Tower, f: TowerElem) -> dict:
    """f as {exponent vector over the generators: Q(x) coefficient}, with
    nonzero coefficients only: laurent applied down every level."""
    out = {}
    _monomials(tower, f, (0,) * len(tower.gens), out)
    return out


def _monomials(tower: Tower, f: TowerElem, vec: tuple, out: dict):
    if f.level == 0:
        out[vec] = f.rf
        return
    li = f.level - 1
    for j, c in laurent(tower, f, f.level).items():
        _monomials(tower, c, vec[:li] + (j,) + vec[li + 1:], out)


def constant_component(tower: Tower, f: TowerElem) -> Fraction:
    """The rational-constant summand of f: the constant term of the
    coefficient of its all-zero monomial when that coefficient is a
    polynomial in x; 0 otherwise."""
    rf = monomials(tower, f).get((0,) * len(tower.gens))
    return rf.num.coeff(0) if rf is not None and rf.den.is_one() else Fraction(0)


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


def _poly_to_str(tower: Tower, p: ElemPoly, level: int) -> str:
    name = tower.gens[level - 1].name
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c.is_zero():
            continue
        cs = elem_to_str(tower, c)
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
