"""Exact arithmetic foundation: polynomials and rational functions over Q.

Conventions used throughout:

* Rationals are ``fractions.Fraction`` (always reduced, denominator > 0).
* A polynomial is dense and ascending; ``Poly((1, 0, 2))`` is 1 + 2*x^2 and
  the zero polynomial has no coefficients (degree -1).  Its coefficients
  are Fractions or ints: polynomials over tower elements are dfield's
  ``ElemPoly``.
* A ``Poly`` is stored as integers over one denominator: a tuple of ints
  and a positive int den, with gcd(content, den) = 1 and no trailing zero,
  so the form is unique.  ``_from_ints`` builds it.  ``Poly.coeffs`` is a
  read-only tuple of Fractions, built from that form on first read for
  printing; arithmetic, comparison and hashing read the integer form.
* Every operation runs on integers, and its result is built by
  ``_from_ints``: sums, products, divisions, shifts, gcds, evaluation at a
  rational point and the ``RatFunc`` normal form.
* A rational function ``RatFunc`` keeps numerator and denominator coprime
  with a *monic* denominator, so equality is structural comparison.  It
  is the one normal form for Q(x) and for every tower level of dfield.
* Rational points are evaluated over Z as well: for the integer polynomial
  p of degree n, b^n * p(a/b) is a homogeneous Horner sum
  (``_int_eval_scaled``), so a value costs one Fraction, and a candidate
  root a/b is divided out as the factor b*x - a.

The factorization helpers at the bottom split denominators into monic
"atoms".  Rational roots are found exactly (``_integer_roots``, by p-adic
lifting), so every atom of degree 3 or less is irreducible; a larger one
is split only along integer shifts of its factors, and what cannot be
split honestly is kept whole as a conservative atom rather than guessed
at.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

__all__ = [
    "Fraction",
    "Poly",
    "RatFunc",
    "ZeroDenominator",
    "ZeroPolynomial",
    "RootSearchLimit",
    "poly_gcd",
    "poly_lcm",
    "nonneg_integer_roots",
    "rational_roots",
    "squarefree_decomposition",
    "factor_atoms",
    "shift_class",
    "gcd_shifts",
    "equal_degree_shift",
    "nullspace",
]


class ZeroDenominator(ZeroDivisionError):
    """Denominator of a rational function is the zero polynomial."""


class ZeroPolynomial(ValueError):
    """An operation that needs a nonzero polynomial received zero."""


class RootSearchLimit(ArithmeticError):
    """An exact search would run past a bound on its work: a shift window
    past _SHIFT_LIMIT, a dispersion past _DISPERSION_LIMIT or a degree
    past _DEGREE_LIMIT."""


class Poly:
    """Dense univariate polynomial over Q, kept as integers over one
    denominator (``_ints``, ``_den``; ``_coeffs`` caches the Fraction view).

    >>> p = Poly((Fraction(1), Fraction(0), Fraction(2)))
    >>> p.degree
    2
    >>> p.eval_at(Fraction(3))
    Fraction(19, 1)
    >>> str(Poly.from_ints(-1, 0, 1))
    'x^2 - 1'
    """

    __slots__ = ("_ints", "_den", "_coeffs")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        # reduced Fractions over the lcm of their denominators already have
        # gcd(content, den) = 1
        ints, den = _to_ints(cs)
        self._ints, self._den, self._coeffs = tuple(ints), den, None

    @staticmethod
    def from_ints(*cs) -> "Poly":
        """Ascending integer coefficients: from_ints(c0, c1, ...)."""
        return Poly(cs)

    @staticmethod
    def x_power(k: int) -> "Poly":
        return _int_poly((0,) * k + (1,), 1)

    @property
    def coeffs(self) -> tuple:
        """The coefficients, ascending, as a tuple of Fractions."""
        cs = self._coeffs
        if cs is None:
            den = self._den
            cs = self._coeffs = tuple([Fraction(c, den) for c in self._ints])
        return cs

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._ints) - 1

    def is_zero(self) -> bool:
        return self._ints == ()

    def is_one(self) -> bool:
        return self._ints == (1,) and self._den == 1

    def lc(self) -> Fraction:
        """Leading coefficient; raises on the zero polynomial."""
        if not self:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self._ints[-1], self._den)

    def coeff(self, i: int) -> Fraction:
        ints = self._ints
        return Fraction(ints[i], self._den) if 0 <= i < len(ints) else Fraction(0)

    def __bool__(self):
        return self._ints != ()

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._ints == other._ints and self._den == other._den
        return NotImplemented

    def __hash__(self):
        return hash((self._ints, self._den))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return _int_add(self._ints, self._den, other._ints, other._den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return _int_poly(tuple([-c for c in self._ints]), self._den)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self._ints, other._ints
        if not a or not b:
            return _ZERO
        return _from_ints(_int_mul(a, b), self._den * other._den)

    def scale(self, c) -> "Poly":
        """self * c for a Fraction or an int c."""
        if not c:
            return _ZERO
        n = c.numerator
        return _from_ints([n * a for a in self._ints], self._den * c.denominator)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                break
            base = base * base
        return _ONE if result is None else result

    def __divmod__(self, other: "Poly"):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        t, r, s = _int_divmod(self._ints, other._ints)
        # s*p = t*q + r, with p = dp*self and q = dq*other
        d = s * self._den
        return _from_ints([c * other._den for c in t], d), _from_ints(r, d)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if r:
            raise ValueError("exact_div: division left a remainder")
        return q

    def monic(self) -> "Poly":
        ints = self._ints
        # the leading coefficient ints[-1] / den is 1 when they agree
        if not ints or ints[-1] == self._den:
            return self
        return _from_ints(ints, ints[-1])

    def derivative(self) -> "Poly":
        ints = self._ints
        return _from_ints([i * ints[i] for i in range(1, len(ints))], self._den)

    # -- substitution ------------------------------------------------------

    def eval_at(self, v) -> Fraction:
        """The value at a Fraction or an int v, by one homogeneous integer
        Horner sum."""
        ints = self._ints
        if not ints:
            return Fraction(0)
        b = v.denominator
        return Fraction(_int_eval_scaled(ints, v.numerator, b),
                        self._den * b ** (len(ints) - 1))

    def shift(self, j) -> "Poly":
        """p(x + j) for a Fraction or an integer j, by a Taylor shift over
        Z; for j = a/b, x is scaled by b first.  A degree past
        _DEGREE_LIMIT raises RootSearchLimit."""
        if not j or self.degree < 1:
            return self
        _check_degree(self.degree)
        p, den = self._ints, self._den
        j = Fraction(j)
        a, b = j.numerator, j.denominator
        if b == 1:
            return _from_ints(_int_shift(p, a), den)
        # b^n * p(y/b) is integral; shift it by a, then put y = b*x
        n = len(p) - 1
        p = _int_shift([c * b**(n - i) for i, c in enumerate(p)], a)
        return _from_ints([c * b**i for i, c in enumerate(p)], den * b**n)

    # -- printing ----------------------------------------------------------

    def to_str(self, var: str = "x") -> str:
        cs = self.coeffs
        if not cs:
            return "0"
        parts = []
        for i in range(len(cs) - 1, -1, -1):
            c = cs[i]
            if not c:
                continue
            if i == 0:
                term = str(c)
            else:
                xpow = var if i == 1 else f"{var}^{i}"
                if c == 1:
                    term = xpow
                elif c == -1:
                    term = "-" + xpow
                else:
                    term = f"{c}*{xpow}"
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append(" - " + term[1:])
            else:
                parts.append(" + " + term)
        return "".join(parts)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Poly('{self.to_str()}')"


def _to_ints(cs) -> tuple:
    """(ints, den) with cs[i] == ints[i] / den, for Fraction (or int)
    coefficients cs; den > 0 is the lcm of their denominators."""
    # list arguments, not generators: a tuple built from a generator is
    # resized, and its object then joins the interpreter's small-tuple free
    # list, which pins memory over the thousands of calls of one solve
    den = math.lcm(*[c.denominator for c in cs])
    if den == 1:
        return [c.numerator for c in cs], 1
    return [c.numerator * (den // c.denominator) for c in cs], den


def _int_poly(ints: tuple, den: int) -> Poly:
    """The Q[x] polynomial of an integer form already canonical."""
    p = object.__new__(Poly)
    p._ints, p._den, p._coeffs = ints, den, None
    return p


def _from_ints(ints, den: int) -> Poly:
    """The Q[x] polynomial with coefficients ints[i] / den, den != 0, in
    canonical form: trailing zeros dropped, den > 0 and gcd(content, den)
    = 1."""
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    if den < 0:
        den, ints = -den, [-c for c in ints[:n]]
    elif n < len(ints):
        ints = ints[:n]
    g = math.gcd(den, *ints)
    if g != 1:
        return _int_poly(tuple([c // g for c in ints]), den // g)
    return _int_poly(tuple(ints), den)


_ZERO = _int_poly((), 1)
_ONE = _int_poly((1,), 1)


def _int_add(a, da: int, b, db: int) -> Poly:
    """a/da + b/db for integer coefficient sequences a and b."""
    if da != db:
        l = da // math.gcd(da, db) * db
        a, b, da = [c * (l // da) for c in a], [c * (l // db) for c in b], l
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _from_ints(out, da)


def _int_mul(a, b) -> list:
    """Product of two nonzero integer polynomials (ascending)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_divmod(p: list, q: list) -> tuple:
    """(t, r, s) with s*p == t*q + r over Z, len(r) < len(q) and s > 0, for
    integer polynomials (ascending) with q nonzero.  Fraction-free: a step
    scales by lc(q) / gcd(lc(q), c) only where lc(q) does not divide the
    leading coefficient c, so an exact division by a primitive divisor
    keeps s == 1 (Gauss's lemma)."""
    r, t, s = list(p), [0] * max(len(p) - len(q) + 1, 0), 1
    lq, dq = q[-1], len(q) - 1
    for k in range(len(t) - 1, -1, -1):
        c = r[k + dq]
        if not c:
            continue
        v, m = divmod(c, lq)
        if m:
            g = math.gcd(c, lq)
            u, v = lq // g, c // g
            r = [u * x for x in r]
            t = [u * x for x in t]
            s *= u
        t[k] = v
        for i, qc in enumerate(q):
            r[k + i] -= v * qc
    return t, r[:dq], s


def _int_shift(p: list, a: int) -> list:
    """p(x + a) over Z by Horner's Taylor shift: n(n+1)/2 multiply-adds."""
    p = list(p)
    n = len(p) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            p[k] += a * p[k + 1]
    return p


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0.  A primitive PRS on
    the primitive integer parts (Brown, JACM 1971)."""
    if p.is_zero() or q.is_zero():
        return (p or q).monic()
    ints = _int_gcd(_primitive(p._ints), _primitive(q._ints))
    return _from_ints(ints, ints[-1])


Poly.gcd = poly_gcd


def _primitive(cs):
    """The integer sequence cs divided by its content (cs itself when the
    content is 1)."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _int_gcd(a: list, b: list) -> list:
    """gcd of two nonzero primitive integer polynomials (ascending), up to
    sign: each pseudo-remainder is reduced to its primitive part."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = list(a)
        lb, db = b[-1], len(b) - 1
        while len(r) > db:
            c = r[-1]
            g = math.gcd(c, lb)
            u, v = lb // g, c // g
            off = len(r) - 1 - db
            if u != 1:
                r = [u * x for x in r]
            for i, bc in enumerate(b):
                r[off + i] -= v * bc
            r.pop()
            while r and not r[-1]:
                r.pop()
            if r:
                r = _primitive(r)
        if not r:
            return b
        a, b = b, r
    return [1]


def _cancel(p, q):
    """(p/g, q/g) for g = gcd(p, q) of two nonzero polynomials, with no
    gcd taken when either is a constant."""
    if p.degree > 0 and q.degree > 0:
        g = p.gcd(q)
        if g.degree > 0:
            return p.exact_div(g), q.exact_div(g)
    return p, q


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return Poly(())
    g = poly_gcd(p, q)
    return (p * q).exact_div(g).monic()


class RatFunc:
    """Reduced fraction num/den with monic den, over a polynomial type with
    a monic ``gcd``, ``exact_div``, ``lc`` and ``scale``: ``Poly`` for
    Q(x), dfield's ``ElemPoly`` at a tower level.  The field operations
    reduce by gcds of their operands' parts (Henrici; Knuth, TAOCP
    4.5.1), so a monic denominator of degree 0, which is 1, takes no gcd.
    Reducing an unreduced pair in the constructor, the constants,
    ``shift``, ``eval_at`` and printing are for ``Poly`` only.

    >>> f = RatFunc(Poly.from_ints(2, 2), Poly.from_ints(-2, 0, 2))
    >>> str(f)
    '1/(x - 1)'
    >>> f + RatFunc.from_const(Fraction(1))
    RatFunc('x/(x - 1)')
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _ONE, _normalized: bool = False):
        if _normalized:
            self.num, self.den = num, den
            return
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = _ZERO, _ONE
            return
        n, d = num._ints, den._ints
        g = _int_gcd(_primitive(n), _primitive(d))
        if len(g) > 1:
            # g is primitive, so by Gauss's lemma both quotients are
            # integral and the division never scales (s == 1)
            n, d = _int_divmod(n, g)[0], _int_divmod(d, g)[0]
        # num/den = (n/dn) / (d/dd), made monic by d's leading coefficient
        lc = d[-1]
        self.num = _from_ints([c * den._den for c in n], num._den * lc)
        self.den = _from_ints(d, lc)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_const(c) -> "RatFunc":
        """The constant c, a Fraction or an int."""
        num = _int_poly((c.numerator,), c.denominator) if c else _ZERO
        return RatFunc(num, _ONE, _normalized=True)

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc(p, _ONE, _normalized=True)

    X = None  # set after class definition

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.is_one()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.coeff(0)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == RatFunc.from_const(Fraction(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    # -- field operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.from_const(Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._sum(o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._sum(-o.num, o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def _sum(self, c, d) -> "RatFunc":
        """a/b + c/d for self = a/b and c/d reduced with monic d: with
        e = gcd(b, d), a common factor of the cross sum and the
        denominator divides e."""
        a, b = self.num, self.den
        if not a:
            return RatFunc(c, d, _normalized=True)
        if not c:
            return self
        if b.degree == 0:
            if d.degree == 0:
                return RatFunc(a + c, b, _normalized=True)
            return RatFunc(a * d + c, d, _normalized=True)
        if d.degree == 0:
            return RatFunc(a + c * b, b, _normalized=True)
        e = b.gcd(d)
        if e.degree == 0:
            return RatFunc(a * d + c * b, b * d, _normalized=True)
        b, d = b.exact_div(e), d.exact_div(e)
        num = a * d + c * b
        if not num:  # then c/d == -a/b, so b == d == e and b is now 1
            return RatFunc(num, b, _normalized=True)
        num, e = _cancel(num, e)
        return RatFunc(num, e * b * d, _normalized=True)

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __mul__(self, other):
        """a/b * c/d cross-cancelled by gcd(a, d) and gcd(c, b), so the
        product needs no further gcd."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return self
        if not o.num:
            return o
        a, d = _cancel(self.num, o.den)
        c, b = _cancel(o.num, self.den)
        den = d if b.degree == 0 else b if d.degree == 0 else b * d
        return RatFunc(a * c, den, _normalized=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "RatFunc":
        """den/num, both scaled by 1/lc(num) so the denominator is monic."""
        num, den = self.den, self.num
        if not den:
            raise ZeroDivisionError("inverse of zero")
        lc = den.lc()
        if lc != 1:
            u = 1 / lc
            num, den = num.scale(u), den.scale(u)
        return RatFunc(num, den, _normalized=True)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc(self.num**n, self.den**n)

    # -- substitution & misc ----------------------------------------------

    def shift(self, j) -> "RatFunc":
        """f(x + j); a shift keeps num and den coprime and den monic."""
        if not j:
            return self
        return RatFunc(self.num.shift(j), self.den.shift(j), _normalized=True)

    def eval_at(self, v):
        """Exact value at a Fraction or an int v, or None if v is a pole."""
        num, den = self.num, self.den
        n, d = num._ints, den._ints
        # num(a/b) / den(a/b) from the scaled integer values b^deg * p(a/b)
        a, b = v.numerator, v.denominator
        dv = _int_eval_scaled(d, a, b)
        if not dv:
            return None
        if not n:
            return Fraction(0)
        e = len(d) - len(n)  # b^deg(den) / b^deg(num)
        nv = _int_eval_scaled(n, a, b) * den._den
        dv *= num._den
        if e >= 0:
            return Fraction(nv * b**e, dv)
        return Fraction(nv, dv * b**-e)

    def to_str(self, var: str = "x") -> str:
        num, den = self.num, self.den
        if den.is_one():
            return num.to_str(var)
        ns = num.to_str(var)
        ds = den.to_str(var)
        if sum(1 for c in num.coeffs if c) > 1:
            ns = f"({ns})"
        if den.degree > 0:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"RatFunc('{self.to_str()}')"


RatFunc.X = RatFunc.from_poly(Poly.from_ints(0, 1))


# ---------------------------------------------------------------------------
# Root finding and factorization over Q
# ---------------------------------------------------------------------------


def _ceil_root(m: int, k: int) -> int:
    """The least r >= 0 with r**k >= m, for m >= 0."""
    if m <= 1:
        return m
    r = 1 << -(-m.bit_length() // k)  # r**k >= 2**bit_length > m
    while True:  # Newton's step down to the floor of the k-th root
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k >= m else r + 1


def _root_bound(ints: list) -> int:
    """An integer B >= |z| for every complex root z of the integer
    polynomial (ascending, nonzero leading coefficient): the smaller of
    Cauchy's bound 1 + max_i |a_i / a_n| and Fujiwara's bound
    2 * max_i |a_(n-i) / a_n|^(1/i), each rounded up."""
    n = len(ints) - 1
    lc = abs(ints[-1])
    cauchy = 1 - (-max(abs(c) for c in ints[:-1]) // lc)
    r = 0
    for i in range(1, n + 1):
        c = abs(ints[n - i])
        if c:
            r = max(r, _ceil_root(-(-c // lc), i))
    return min(cauchy, 2 * r)


# widest window of shifts gcd_shifts tries; each shift costs one small
# integer gcd, so a full window of cubics takes about 0.1 s
_SHIFT_LIMIT = 10**4

# largest dispersion (the largest j >= 0 with gcd(a(x), b(x+j)) nontrivial)
# a first-order solve accepts: its denominator bound multiplies j+1 shifted
# factors and the ansatz grows with it, so the solve costs about j^3;
# sum(i,1,n,1/(i+251)), at dispersion 250, takes about 2.7 s end to end
# at --verify-range 5
_DISPERSION_LIMIT = 250

# largest degree of a polynomial Poly.shift accepts, and of the polynomial
# unknown a first-order solve sets up: a shift costs about n^2 integer
# operations and an ansatz of degree n about n^3; sum(i,1,n,i^499), whose
# telescoper has degree 500, takes about 7 s end to end at --verify-range 5
_DEGREE_LIMIT = 500


def _check_degree(n: int):
    """Raise RootSearchLimit for a degree n past _DEGREE_LIMIT."""
    if n > _DEGREE_LIMIT:
        raise RootSearchLimit(f"degree {n} past the limit of {_DEGREE_LIMIT}")


# the prime of gcd_shifts' coprimality test, 2^61 - 1
_P61 = (1 << 61) - 1


def _gcd_degree_mod_p(a: list, b: list) -> int:
    """Degree of gcd(a, b) over Z/_P61 for integer polynomials (ascending)
    whose leading coefficients _P61 does not divide, by Euclid with monic
    remainders."""
    p = _P61
    a, b = [c % p for c in a], [c % p for c in b]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        while len(a) > db:
            q, off = a[-1] * inv % p, len(a) - 1 - db
            a[off:-1] = [(x - q * y) % p for x, y in zip(a[off:-1], b)]
            a.pop()
            while a and not a[-1]:
                a.pop()
        if not a:
            return db
        a, b = b, a
    return 0


def gcd_shifts(a: Poly, b: Poly) -> dict:
    """{j: gcd(a(x), b(x+j))} for every integer j >= 0 where that monic gcd
    has positive degree, for nonzero Fraction-coefficient a and b.

    Such a j is a root of b minus a root of a, so it is at most the sum of
    their root bounds; every j up to there is tried by a gcd over Z.  A
    window past _SHIFT_LIMIT raises RootSearchLimit.  When _P61 divides
    neither leading coefficient, the gcd of the images mod _P61 has at
    least the degree of the gcd over Q, so a shift whose gcd mod _P61 is
    constant is coprime and takes no integer gcd."""
    ai, bi = _primitive(a._ints), _primitive(b._ints)
    if len(ai) < 2 or len(bi) < 2:
        return {}
    window = _root_bound(ai) + _root_bound(bi)
    if window > _SHIFT_LIMIT:
        raise RootSearchLimit("shift search out of range")
    # shifting keeps b's leading coefficient
    filtered = ai[-1] % _P61 and bi[-1] % _P61
    out = {}
    for j in range(window + 1):
        if not filtered or _gcd_degree_mod_p(ai, bi):
            g = _int_gcd(ai, bi)
            if len(g) > 1:
                out[j] = _from_ints(g, g[-1])
        bi = _int_shift(bi, 1)
    return out


def _primes():
    """2, 3, 5, 7, ... by trial division."""
    for q in itertools.count(2):
        if all(q % k for k in range(2, math.isqrt(q) + 1)):
            yield q


def _integer_roots(ints, squarefree: bool = False) -> list:
    """The distinct integer roots of the integer polynomial ints (ascending,
    degree >= 1), exactly, by p-adic lifting (Loos, SIAM J. Comput. 12,
    1983).  The roots of f modulo the first prime p that divides neither
    lc(f) nor f' at any root of f mod p are lifted by Newton's iteration
    modulo p^(2^k) until the modulus m passes twice the root bound; an
    integer root is then the symmetric residue mod m of the lift of its
    own residue mod p, and each residue is kept only if it is a root over
    Z.  A repeated factor of f is a multiple root mod every prime, so at
    the first prime that shows one, unless f is known to be squarefree,
    the roots are those of f's squarefree part."""
    f = _primitive(ints)
    if len(f) == 2:
        q, r = divmod(-f[0], f[1])
        return [] if r else [q]
    df = [i * c for i, c in enumerate(f)][1:]
    for p in _primes():
        if not f[-1] % p:
            continue
        fp, roots = [c % p for c in f], []
        for r in range(p):
            if not _int_eval_scaled(fp, r, 1) % p:
                if not _int_eval_scaled(df, r, 1) % p:
                    break  # a multiple root mod p
                roots.append(r)
        else:
            break
        if not squarefree:
            g = _int_gcd(f, _primitive(df))
            if len(g) > 1:
                # g is primitive, so the quotient is integral (Gauss's lemma)
                return _integer_roots(_int_divmod(f, g)[0], True)
            squarefree = True
    m, bound = p, 2 * _root_bound(f)
    while roots and m <= bound:
        m *= m
        # Newton's step: a simple root mod sqrt(m) becomes the root mod m
        roots = [(r - _int_eval_scaled(f, r, 1)
                  * pow(_int_eval_scaled(df, r, 1), -1, m)) % m for r in roots]
    out = []
    for r in roots:
        if 2 * r > m:
            r -= m
        if not _int_eval_scaled(f, r, 1):
            out.append(r)
    return out


def nonneg_integer_roots(p: Poly) -> set:
    """Exactly the natural numbers n with p(n) = 0.

    >>> sorted(nonneg_integer_roots(Poly.from_ints(-3, 1)))
    [3]
    >>> nonneg_integer_roots(Poly.from_ints(1, 0, 1))
    set()
    """
    if p.is_zero():
        raise ZeroPolynomial("nonneg_integer_roots of the zero polynomial")
    if p.degree == 0:
        return set()
    return {r for r in _integer_roots(p._ints) if r >= 0}


def _int_eval_scaled(ints, a: int, b: int) -> int:
    """b^n * p(a/b) for the nonzero integer polynomial p = ints of degree
    n, by a homogeneous Horner scheme over Z."""
    acc = ints[-1]
    if b == 1:
        for c in reversed(ints[:-1]):
            acc = acc * a + c
        return acc
    bpow = 1
    for c in reversed(ints[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return acc


def rational_roots(p: Poly) -> list:
    """Exactly the rational roots with their multiplicities, as [(root,
    mult), ...] sorted by root.  A root a/b of the primitive integer form
    sum a_i x^i of degree n has b | a_n, so a_n times it is an integer
    root of the monic y^n + sum_(i<n) a_i a_n^(n-1-i) y^i."""
    if p.is_zero():
        raise ZeroPolynomial("rational_roots of the zero polynomial")
    ints = _primitive(p._ints)
    found = {}
    if len(ints) > 1:
        lc, n = ints[-1], len(ints) - 1
        monic = [c * lc ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
        work = ints
        for y in _integer_roots(monic):
            r = Fraction(y, lc)
            a, b = r.numerator, r.denominator
            mult = 0
            while len(work) > 1 and _int_eval_scaled(work, a, b) == 0:
                # b*x - a is primitive, so the quotient is integral
                work = _int_divmod(work, [-a, b])[0]
                mult += 1
            found[r] = mult
    return sorted(found.items())


def squarefree_decomposition(p: Poly) -> list:
    """Yun's algorithm: [(monic squarefree factor, multiplicity), ...] with
    p = lc * prod(f^m); multiplicities strictly increasing."""
    if p.is_zero():
        raise ZeroPolynomial("squarefree decomposition of zero")
    p = p.monic()
    if p.degree < 1:
        return []
    d = p.derivative()
    a = poly_gcd(p, d)
    if a.degree == 0:
        return [(p, 1)]
    out = []
    b = p.exact_div(a)
    c = d.exact_div(a)
    i = 1
    while True:
        diff = c - b.derivative()
        if diff.is_zero():
            if b.degree > 0:
                out.append((b.monic(), i))
            break
        g = poly_gcd(b, diff)
        if g.degree > 0:
            out.append((g.monic(), i))
        b = b.exact_div(g)
        c = diff.exact_div(g)
        i += 1
        if b.degree == 0:
            break
    return out


def _refine_by_shift_gcd(factors: list) -> list:
    """Split composite factors that share irreducible parts with an integer
    shift of themselves or of another factor (u(x)*u(x+j) style products,
    which plain root-finding cannot separate), until any two factors are
    coprime under every shift or shifts of one another.  The factors are
    factor_atoms atoms, so none of degree 2 or 3 has a rational root: such
    an atom is irreducible and never split, and neither is a linear one."""
    work = list(factors)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(list(work), repeat=2):
            if a.degree <= 3:
                continue
            if a not in work or b not in work:
                continue
            gcds = list(gcd_shifts(a, b).values())  # ascending shifts
            if a != b:
                # a factor b(x-j) of a, j > 0, shows as a gcd from b's side
                gcds += [h.shift(-j) for j, h in gcd_shifts(b, a).items()]
            for g in gcds:
                if 0 < g.degree < a.degree:
                    work.remove(a)
                    work.extend([g, a.exact_div(g).monic()])
                    changed = True
                    break
            if changed:
                break
    return work


def factor_atoms(p: Poly) -> list:
    """Factor a Fraction-coefficient polynomial into monic atoms.

    Returns [(atom, multiplicity), ...] in a deterministic order (degree,
    then coefficient tuple).  Linear and shift-related factors are always
    separated; anything irreducible-or-unbreakable stays whole.
    """
    if p.is_zero():
        raise ZeroPolynomial("factor_atoms of zero")
    atoms = {}
    for sf, mult in squarefree_decomposition(p):
        parts = []
        rest = sf
        for root, rmult in rational_roots(sf):
            lin = Poly((-root, Fraction(1)))
            for _ in range(rmult):
                rest = rest.exact_div(lin)
                parts.append(lin)
        if rest.degree > 0:
            parts.extend(_refine_by_shift_gcd([rest.monic()]))
        for atom in parts:
            atoms[atom] = atoms.get(atom, 0) + mult
    out = list(atoms.items())
    out.sort(key=lambda am: (am[0].degree, am[0].coeffs))
    return out


def shift_class(atom: Poly):
    """Canonical shift-class representative of a monic atom.

    Returns (rep, k) with atom(x) == rep(x + k); rep is the translate whose
    subleading coefficient lies in [0, degree).

    >>> rep, k = shift_class(Poly.from_ints(1, 1))   # x + 1
    >>> (str(rep), k)
    ('x', 1)
    >>> rep, k = shift_class(Poly((Fraction(-1, 2), Fraction(1))))  # x - 1/2
    >>> (str(rep), k)
    ('x + 1/2', -1)
    """
    d = atom.degree
    if d < 1:
        raise ZeroPolynomial("shift_class needs degree >= 1")
    s = atom.coeff(d - 1)
    j = -math.floor(s / d)
    return atom.shift(j), -j


def equal_degree_shift(p: Poly, q: Poly):
    """The unique integer j with q(x) == p(x + j), or None.

    Both must be monic of equal degree >= 1; the candidate falls out of the
    subleading coefficients, then is verified exactly.
    """
    d = p.degree
    if d != q.degree or d < 1:
        return None
    diff = q.coeff(d - 1) - p.coeff(d - 1)
    j = diff / d
    if j.denominator != 1:
        return None
    j = int(j)
    return j if p.shift(j) == q else None


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def nullspace(rows: list, ncols: int) -> list:
    """Basis of the right nullspace of a matrix over Q.

    ``rows`` is a list of length-ncols lists of Fractions and ints.  Basis
    vectors come back in the canonical reduced-echelon order, one per free
    column, so callers get a deterministic result.  Gauss-Jordan runs on
    primitive integer rows: each combined row is divided by its content,
    and the reduced echelon entries are read off as ratios to the pivots.
    The reduced-echelon form is unique, so the basis is the same as over Q.
    """
    mat = [_primitive(_to_ints(r)[0]) for r in rows if any(r)]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        p = prow[col]
        for i, row in enumerate(mat):
            m = row[col]
            if m and i != r:
                g = math.gcd(p, m)
                u, v = p // g, m // g
                mat[i] = _primitive([u * a - v * b for a, b in zip(row, prow)])
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -Fraction(mat[i][fc], mat[i][pc])
        basis.append(vec)
    return basis


def _int_rows(polys: list) -> list:
    """The integer matrix whose row d holds the x^d coefficients of the Q[x]
    polynomials: each row is scaled by the lcm of their denominators, which
    leaves its right nullspace unchanged."""
    den = math.lcm(*[p._den for p in polys])
    cols = [[c * (den // p._den) for c in p._ints] for p in polys]
    height = max([len(col) for col in cols], default=0)
    return [[col[d] if d < len(col) else 0 for col in cols] for d in range(height)]
