"""Towers of difference-field extensions over (Q(x), x -> x+1).

A Tower is an ordered list of generators t_1, t_2, ... over the rational
difference field.  Each generator is sum-like ("sigma": s(t) = t + beta)
or product-like ("pi": s(t) = alpha * t) with beta/alpha lying strictly
below it, and carries the depth assigned at adjunction time:

    depth(constant) = 0,  depth(x) = 1,  depth(t) = depth(shift part) + 1.

The elements the solver and the printer take are polynomials in the
sum-like generators and Laurent polynomials in the product-like ones, with
coefficients in Q(x) (Schneider's difference rings).  A TowerElem stores
exactly that monomial form: a map from exponent vector over the
generators, trailing zeros trimmed, to nonzero Q(x) RatFunc coefficient.
RatFunc's normal form makes the map unique, so equality is plain
comparison, and an element's level is the length of its longest vector.
Ring operations work on the maps; division works by a single term only
(a rational, a Q(x) element or a monomial), and any other divisor raises
NotPolynomialPart, an UnsupportedShape.

Dividing by a monomial may leave a negative power of a sum-like
generator, outside the class.  ``_class_terms`` is the one check of the
class rule: ``sigma``, ``laurent`` (one level's split, for telescope's
level solvers) and ``monomials`` (the map as {padded exponent vector: Q(x)
coefficient}) read an element through it, and it raises NotPolynomialPart
on such a power.

This module adjoins generators without checking them; telescope certifies
every adjunction and stores its certificate on the generator.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import RatFunc

__all__ = [
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

_RF_ZERO = RatFunc.from_const(Fraction(0))
_RF_ONE = RatFunc.from_const(Fraction(1))
_NOT_IN_CLASS = "a denominator is not a monomial in product-like generators"


class TowerElem:
    """Element of the tower in monomial form.

    ``terms`` maps each exponent vector over the generators, trailing
    zeros trimmed (so Q(x)'s vector is ()), to its nonzero Q(x) RatFunc
    coefficient; the zero element has no terms.  The map is never changed
    after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    # -- factories ---------------------------------------------------------

    @staticmethod
    def const(c) -> "TowerElem":
        if type(c) is not Fraction and type(c) is not int:
            c = Fraction(c)
        return TowerElem({(): RatFunc.from_const(c)} if c else {})

    @staticmethod
    def base(rf: RatFunc) -> "TowerElem":
        return TowerElem({(): rf} if rf else {})

    @staticmethod
    def base_x() -> "TowerElem":
        return TowerElem({(): RatFunc.X})

    @staticmethod
    def gen(index: int) -> "TowerElem":
        """The generator t_{index+1} as an element (level index+1)."""
        return TowerElem({(0,) * index + (1,): _RF_ONE})

    # -- structure ---------------------------------------------------------

    @property
    def level(self) -> int:
        """The number of the highest generator that occurs; 0 in Q(x)."""
        return max(map(len, self.terms), default=0)

    @property
    def rf(self) -> RatFunc:
        """The Q(x) value of a level-0 element."""
        terms = self.terms
        if not terms:
            return _RF_ZERO
        if len(terms) > 1 or () not in terms:
            raise ValueError("not an element of Q(x)")
        return terms[()]

    def degree(self) -> int:
        """max(deg num, deg den) of the reduced fraction in the top
        variable: x at level 0, else the top generator t, whose only
        denominator is t^m for m = -(least exponent of t)."""
        level = self.level
        if not level:
            rf = self.rf
            return max(rf.num.degree, rf.den.degree)
        exps = [vec[-1] if len(vec) == level else 0 for vec in self.terms]
        return max(max(exps), 0) - min(min(exps), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.level == 0 and self.rf.is_constant()

    def constant_value(self) -> Fraction:
        return self.rf.constant_value()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, TowerElem):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == TowerElem.const(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElem):
            return other
        if isinstance(other, (int, Fraction)):
            return TowerElem.const(other)
        if isinstance(other, RatFunc):
            return TowerElem.base(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms:
            return o
        if not o.terms:
            return self
        out = dict(self.terms)
        _accumulate(out, o.terms)
        return _collect(out)

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
        return TowerElem({vec: -c for vec, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.terms, o.terms
        if not a or not b:
            return ZERO
        if _is_one(b):
            return self
        if _is_one(a):
            return o
        out = {}
        for va, ca in a.items():
            _accumulate(out, {_vec_add(va, vb): ca * cb for vb, cb in b.items()})
        return _collect(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            raise ZeroDivisionError("division by zero tower element")
        if len(o.terms) > 1:
            raise NotPolynomialPart(_NOT_IN_CLASS)
        ((vb, cb),) = o.terms.items()
        neg = tuple(-e for e in vb)
        return TowerElem({_vec_add(va, neg): ca / cb for va, ca in self.terms.items()})

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "TowerElem":
        if n < 0:
            return (ONE / self) ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self):
        return f"TowerElem({self.terms!r})"


ZERO = TowerElem({})
ONE = TowerElem({(): _RF_ONE})


def _is_one(terms: dict) -> bool:
    return len(terms) == 1 and terms.get(()) == _RF_ONE


def _vec_add(a: tuple, b: tuple) -> tuple:
    """The sum of two trimmed exponent vectors, trimmed."""
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)] + list(a[len(b):])
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _accumulate(out: dict, terms: dict):
    """Add terms into out in place; a cancelled coefficient stays, as a
    zero, until _collect drops it."""
    for vec, c in terms.items():
        s = out.get(vec)
        out[vec] = c if s is None else s + c


def _collect(out: dict) -> TowerElem:
    return TowerElem({vec: c for vec, c in out.items() if c})


# ---------------------------------------------------------------------------
# The class rule and the shift automorphism
# ---------------------------------------------------------------------------


class UnsupportedShape(Exception):
    """The input leaves the class the solver is complete for."""


class NotPolynomialPart(UnsupportedShape):
    """An element outside the class the solver and the printer take: a
    polynomial in the sum-like generators and a Laurent polynomial in the
    product-like ones, over Q(x)."""


def _class_terms(tower: Tower, f: TowerElem):
    """f's (exponent vector, coefficient) pairs, once no exponent is
    negative at a sum-like generator; such a power raises
    NotPolynomialPart."""
    gens = tower.gens
    for vec in f.terms:
        for i, e in enumerate(vec):
            if e < 0 and gens[i].kind != "pi":
                raise NotPolynomialPart(_NOT_IN_CLASS)
    return f.terms.items()


def sigma(tower: Tower, f: TowerElem, j: int = 1) -> TowerElem:
    """Apply the shift automorphism j times (j may be negative).  Each
    monomial goes to its shifted coefficient times its generators' images,
    t + beta or alpha*t for j > 0 and their inverses for j < 0; one call
    computes each image power once."""
    step = 1 if j >= 0 else -1
    images = {}
    for _ in range(abs(j)):
        f = _sigma_step(tower, f, step, images)
    return f


def _sigma_step(tower: Tower, f: TowerElem, step: int, images: dict) -> TowerElem:
    out = {}
    for vec, c in _class_terms(tower, f):
        term = TowerElem({(): c.shift(step)})
        for i, e in enumerate(vec):
            if e:
                term = term * _image(tower, i, e, step, images)
        _accumulate(out, term.terms)
    return _collect(out)


def _image(tower: Tower, i: int, e: int, step: int, images: dict) -> TowerElem:
    """sigma^step(t_i^e), kept in images: t_i's image under the key i and
    its powers under (i, e)."""
    img = images.get((i, e))
    if img is None:
        base = images.get(i)
        if base is None:
            gen = tower.gens[i]
            t = TowerElem.gen(i)
            part = gen.shift_part
            if step < 0:
                part = _sigma_step(tower, part, -1, images)
            if gen.kind == "sigma":
                base = t + part if step > 0 else t - part
            else:
                base = part * t if step > 0 else t / part
            images[i] = base
        img = images[i, e] = base ** e
    return img


# ---------------------------------------------------------------------------
# Depth, occurrence and monomials
# ---------------------------------------------------------------------------


def depth(tower: Tower, f: TowerElem) -> int:
    """0 for constants, else the max depth of x and the generators that
    occur in f."""
    d = 0
    for idx in occurring_generators(tower, f):
        d = max(d, 1 if idx == -1 else tower.gens[idx].depth)
    return d


def occurring_generators(tower: Tower, f: TowerElem) -> set:
    """Indices of the generators with a nonzero exponent in f; -1 stands
    for the base variable x, which occurs when a coefficient is not a
    constant."""
    out = set()
    for vec, c in f.terms.items():
        out.update(i for i, e in enumerate(vec) if e)
        if c.num.degree >= 1 or c.den.degree >= 1:
            out.add(-1)
    return out


def _split(f: TowerElem, level: int) -> dict:
    """f as {exponent of the generator of `level`: coefficient below it},
    for f no higher than `level`."""
    i = level - 1
    groups = {}
    for vec, c in f.terms.items():
        e = 0
        if len(vec) > i:
            e, vec = vec[i], vec[:i]
            while vec and not vec[-1]:
                vec = vec[:-1]
        groups.setdefault(e, {})[vec] = c
    return {e: TowerElem(terms) for e, terms in groups.items()}


def laurent(tower: Tower, f: TowerElem, level: int) -> dict:
    """f as {exponent: coefficient below `level`} in the generator of
    `level` (1-based, no lower than f's), with nonzero coefficients only;
    {0: f} when f lies below that generator.  An exponent is negative only
    at a product-like generator; any other negative power raises
    NotPolynomialPart."""
    if f.level < level:
        return {0: f}
    _class_terms(tower, f)
    return _split(f, level)


def monomials(tower: Tower, f: TowerElem) -> dict:
    """f as {exponent vector over all the generators: Q(x) coefficient},
    with nonzero coefficients only."""
    n = len(tower.gens)
    return {vec + (0,) * (n - len(vec)): c for vec, c in _class_terms(tower, f)}


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
    """Canonical text form using x and the generator names: at level 0
    the reduced Q(x) fraction; above it the numerator in descending powers
    of the top generator t, its coefficients printed one level down, over
    (t^m) when m = -(least exponent of t) is positive."""
    level = f.level
    if level == 0:
        return f.rf.to_str("x")
    name = tower.gens[level - 1].name
    split = _split(f, level)
    m = max(0, -min(split))
    parts = []
    for j in sorted(split, reverse=True):
        cs = elem_to_str(tower, split[j])
        tpow = _power_str(name, j + m)
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
    num = "".join(parts)
    if not m:
        return num
    if " + " in num or " - " in num:
        num = f"({num})"
    return f"{num}/({_power_str(name, m)})"


def _power_str(name: str, i: int) -> str:
    return "" if i == 0 else (name if i == 1 else f"{name}^{i}")


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
