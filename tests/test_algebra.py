import random
import time
from fractions import Fraction

import pytest

import nsopt.algebra
from nsopt.algebra import (
    Poly,
    RatFunc,
    RootSearchLimit,
    ZeroDenominator,
    ZeroPolynomial,
    equal_degree_shift,
    factor_atoms,
    gcd_shifts,
    nonneg_integer_roots,
    nullspace,
    poly_gcd,
    rational_roots,
    shift_class,
    squarefree_decomposition,
)
from nsopt.dfield import TowerElem

X = Poly.from_ints(0, 1)
ONE = Poly.from_ints(1)


def lin(c):
    """x - c as a monic linear polynomial."""
    return Poly((Fraction(-c), Fraction(1)))


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def test_gcd_shared_linear_factor():
    assert poly_gcd(Poly.from_ints(-1, 0, 1), Poly.from_ints(-1, 1)) == Poly.from_ints(-1, 1)


def test_gcd_coprime_linears():
    assert poly_gcd(Poly.from_ints(1, 1), Poly.from_ints(2, 1)) == ONE


def test_gcd_cubic_quadratic():
    # (x+2)(x-1)(x+1) against (x+1)(x+2): the quadratic divides the cubic
    p = lin(-2) * lin(1) * lin(-1)
    q = lin(-1) * lin(-2)
    assert p == Poly.from_ints(-2, -1, 2, 1)
    assert q == Poly.from_ints(2, 3, 1)
    assert poly_gcd(p, q) == q.monic()


def test_gcd_zero_cases():
    assert poly_gcd(Poly(()), Poly(())) == Poly(())
    assert poly_gcd(X, Poly(())) == X


def test_gcd_divides_both_randomized():
    rng = random.Random(1001)
    for _ in range(60):
        shared = rand_poly(rng, 2)
        p = shared * rand_poly(rng, 3)
        q = shared * rand_poly(rng, 3)
        if p.is_zero() or q.is_zero():
            continue
        g = poly_gcd(p, q)
        assert (p % g).is_zero()
        assert (q % g).is_zero()
        assert poly_gcd(p.exact_div(g), q.exact_div(g)) == ONE


# ---------------------------------------------------------------------------
# rational function normalization
# ---------------------------------------------------------------------------


def test_normalize_reduces_and_monics():
    f = RatFunc(Poly.from_ints(2, 2), Poly.from_ints(-2, 0, 2))
    assert f.num == ONE
    assert f.den == Poly.from_ints(-1, 1)
    # cross-multiplied check against the raw input
    assert Poly.from_ints(2, 2) * f.den == Poly.from_ints(-2, 0, 2) * f.num


def test_normalize_zero_numerator():
    f = RatFunc(Poly(()), X)
    assert f.num.is_zero() and f.den == ONE


def test_normalize_constant_denominator():
    f = RatFunc(Poly.from_ints(0, 3), Poly.from_ints(6))
    assert f.den == ONE
    assert f.num == Poly((Fraction(0), Fraction(1, 2)))


def test_normalize_zero_denominator_raises():
    with pytest.raises(ZeroDenominator):
        RatFunc(X, Poly(()))


def test_normalize_idempotent_randomized():
    rng = random.Random(1002)
    for _ in range(60):
        f = rand_ratfunc(rng)
        again = RatFunc(f.num, f.den)
        assert again.num == f.num and again.den == f.den


def test_ratfunc_field_laws_randomized():
    rng = random.Random(1003)
    shared_rng = random.Random(1004)
    shared = 0
    for _ in range(40):
        a, b, c = (rand_ratfunc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == RatFunc.from_const(Fraction(0))
        if not a.is_zero():
            assert a * a.inverse() == RatFunc.from_const(Fraction(1))
        # a pair whose denominators share a random factor s, with c + g/s
        # and b - g/s, so their sum cancels s: gcd(b, d) != 1 and the
        # cross sum t shares a factor with e = gcd(b, d)
        s = Poly.from_ints(*[shared_rng.randint(-4, 4) for _ in range(shared_rng.randint(1, 2))], 1)
        g = rand_poly(shared_rng, 2)
        a2 = RatFunc(c.num * s + g * c.den, c.den * s)
        b2 = RatFunc(b.num * s - g * b.den, b.den * s)
        assert a2 + b2 == c + b
        shared += poly_gcd(a2.den, b2.den).degree > 0
        # each operation against the constructor's normal form of the
        # unreduced cross products
        for x, y in ((a, b), (a2, b2), (b2, a2)):
            assert x + y == RatFunc(x.num * y.den + y.num * x.den, x.den * y.den)
            assert x - y == RatFunc(x.num * y.den - y.num * x.den, x.den * y.den)
            assert x * y == RatFunc(x.num * y.num, x.den * y.den)
            if y:
                assert x / y == RatFunc(x.num * y.den, x.den * y.num)
    assert shared >= 20


def test_ratfunc_shift_and_eval():
    f = RatFunc(ONE, X)  # 1/x
    assert f.shift(1) == RatFunc(ONE, Poly.from_ints(1, 1))
    assert f.eval_at(Fraction(2)) == Fraction(1, 2)
    assert f.eval_at(Fraction(0)) is None


# ---------------------------------------------------------------------------
# integer and rational roots
# ---------------------------------------------------------------------------


def test_integer_roots_linear():
    assert nonneg_integer_roots(lin(3)) == {3}


def test_integer_roots_mixed_signs():
    p = lin(1) * lin(4) * lin(-2)
    got = nonneg_integer_roots(p)
    brute = {n for n in range(0, 20) if p.eval_at(Fraction(n)) == 0}
    assert got == brute == {1, 4}


def test_integer_roots_none():
    assert nonneg_integer_roots(Poly.from_ints(1, 0, 1)) == set()


def test_integer_roots_zero_raises():
    with pytest.raises(ZeroPolynomial):
        nonneg_integer_roots(Poly(()))


def test_integer_roots_at_zero_and_scale():
    p = X * X * lin(7).scale(Fraction(3))
    assert nonneg_integer_roots(p) == {0, 7}


def test_rational_roots_with_multiplicity():
    p = lin(Fraction(1, 2)) ** 2 * lin(-3)
    assert rational_roots(p) == [(Fraction(-3), 1), (Fraction(1, 2), 2)]


def test_rational_roots_randomized():
    # products of linear factors with rational roots (numerators and
    # denominators up to 999, repeated roots, sometimes a root at 0) times
    # an irreducible quadratic, scaled; every root and multiplicity is
    # checked against exact Fraction evaluation.
    rng = random.Random(1011)
    for _ in range(40):
        want = {}
        for _ in range(rng.randint(1, 2)):
            r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 999))
            want[r] = want.get(r, 0) + 1
        if rng.random() < 0.5:  # a repeated root
            want[rng.choice(list(want))] += 1
        if rng.random() < 0.3:
            want[Fraction(0)] = rng.randint(1, 2)
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 50))
        p = Poly.from_ints(rng.randint(1, 9), 0, 1).scale(scale)
        for r, m in want.items():
            p = p * lin(r) ** m
        got = rational_roots(p)
        assert got == sorted(want.items())
        for r, m in got:
            assert p.eval_at(r) == 0
            assert p.exact_div(lin(r) ** m).eval_at(r) != 0
        assert p.degree == 2 + sum(m for _, m in got)


def test_roots_exact_past_old_limits_randomized():
    # planted rational and integer roots times L*x^2 + c (no real root), so
    # the planted roots are all the roots.  Constant terms and leading
    # coefficients reach past 10^12, roots repeat and sit at 0, and each
    # root is checked by exact evaluation.
    rng = random.Random(2203)
    for trial in range(60):
        want = {}
        for _ in range(rng.randint(0, 4)):
            if trial % 2:
                r = Fraction(rng.randint(-10**15, 10**15))
            else:
                r = Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**7))
            want[r] = want.get(r, 0) + rng.randint(1, 3)
        if rng.random() < 0.4:
            want[Fraction(0)] = rng.randint(1, 3)
        lead, const = rng.randint(1, 10**14), rng.randint(10**12, 10**14)
        p = Poly.from_ints(const, 0, lead).scale(Fraction(rng.randint(-99, 99) or 1, 7))
        for r, m in want.items():
            p = p * lin(r) ** m
        got = rational_roots(p)
        assert got == sorted(want.items())
        for r, m in got:
            assert p.eval_at(r) == 0
            assert p.exact_div(lin(r) ** m).eval_at(r) != 0
        nat = nonneg_integer_roots(p)
        assert nat == {int(r) for r in want if r >= 0 and r.denominator == 1}
        assert all(p.eval_at(Fraction(n)) == 0 for n in nat)


def test_roots_of_many_linear_factors_are_fast():
    # (x-1)(x-2)...(x-200): every prime up to 199 sees a double root, so the
    # first usable prime is 211, and the constant term is 200!
    p = ONE
    for k in range(1, 201):
        p = p * lin(k)
    start = time.perf_counter()
    assert nonneg_integer_roots(p) == set(range(1, 201))
    assert rational_roots(p) == [(Fraction(k), 1) for k in range(1, 201)]
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# factorization into atoms
# ---------------------------------------------------------------------------


def test_atoms_simple_pole_structure():
    f = RatFunc(ONE, X * lin(-1) * lin(-1))
    assert factor_atoms(f.den) == [(X, 1), (Poly.from_ints(1, 1), 2)]


def test_atoms_single():
    f = RatFunc(ONE, Poly.from_ints(1, 1))
    assert factor_atoms(f.den) == [(Poly.from_ints(1, 1), 1)]


def test_atoms_normalize_nonmonic():
    den = Poly.from_ints(-1, 2) * Poly.from_ints(1, 1)  # (2x-1)(x+1)
    f = RatFunc(Poly.from_ints(2, 1), den)
    atoms = factor_atoms(f.den)
    assert atoms == [(Poly((Fraction(-1, 2), Fraction(1))), 1), (Poly.from_ints(1, 1), 1)]


def test_atoms_polynomial_gives_empty():
    den = RatFunc.from_poly(X).den
    assert den.is_one()
    assert factor_atoms(den) == []


def test_atoms_recombine_randomized():
    rng = random.Random(1004)
    for _ in range(40):
        den = ONE
        for _ in range(rng.randint(1, 4)):
            den = den * lin(rng.randint(-4, 4)) ** rng.randint(1, 2)
        f = RatFunc(rand_poly(rng, 2) + ONE, den)
        prod = ONE
        for atom, mult in factor_atoms(f.den):
            prod = prod * atom**mult
        assert prod == f.den


def test_squarefree_decomposition_structure():
    p = lin(1) ** 3 * lin(-2) * Poly.from_ints(1, 0, 1)
    parts = squarefree_decomposition(p)
    assert parts == [((lin(-2) * Poly.from_ints(1, 0, 1)).monic(), 1), (lin(1), 3)]


def test_shift_related_quadratics_split():
    # q(x)*q(x-1) for q = x^2-3x+6 has no rational roots but must come apart
    q = Poly.from_ints(6, -3, 1)
    prod = q * q.shift(-1)
    atoms = factor_atoms(prod)
    assert sorted(m for _, m in atoms) == [1, 1]
    got = [a for a, _ in atoms]
    assert set(got) == {q, q.shift(-1)}


def test_irreducible_quadratic_stays_whole():
    q = Poly.from_ints(1, 1, 1)
    assert factor_atoms(q) == [(q, 1)]


def test_reducible_quadratic_splits_by_discriminant():
    q = Poly.from_ints(-1, 0, 4)  # (2x-1)(2x+1)
    atoms = factor_atoms(q)
    assert [a for a, _ in atoms] == [
        Poly((Fraction(-1, 2), Fraction(1))),
        Poly((Fraction(1, 2), Fraction(1))),
    ]


# ---------------------------------------------------------------------------
# shift classes
# ---------------------------------------------------------------------------


def test_shift_class_linear():
    rep, k = shift_class(Poly.from_ints(1, 1))
    assert rep == X and k == 1
    rep, k = shift_class(Poly((Fraction(-1, 2), Fraction(1))))
    assert rep == Poly((Fraction(1, 2), Fraction(1))) and k == -1
    assert shift_class(X) == (X, 0)


def test_shift_class_quadratic():
    rep, k = shift_class(Poly.from_ints(6, -3, 1))
    assert rep == Poly.from_ints(4, 1, 1) and k == -2
    # the representative is idempotent
    assert shift_class(rep) == (rep, 0)


def test_shift_class_consistency():
    for atom in [lin(5), lin(-3), Poly.from_ints(10, -5, 1)]:
        rep, k = shift_class(atom)
        assert rep.shift(k) == atom


def test_equal_degree_shift():
    q = Poly.from_ints(6, -3, 1)
    assert equal_degree_shift(q, q.shift(4)) == 4
    assert equal_degree_shift(q, q.shift(-2)) == -2
    assert equal_degree_shift(q, Poly.from_ints(1, 0, 1)) is None
    assert equal_degree_shift(lin(0), lin(-7)) == 7
    assert equal_degree_shift(lin(0), lin(7)) == -7


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def test_nullspace_basic():
    rows = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_nullspace_full_rank():
    rows = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    assert nullspace(rows, 2) == []


def test_nullspace_randomized():
    rng = random.Random(1005)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
        basis = nullspace(rows, m)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # rank-nullity: rank + len(basis) == m
        rank = m - len(basis)
        assert 0 <= rank <= min(n, m)


# ---------------------------------------------------------------------------
# integer kernels against reference implementations: schoolbook loops over
# plain Fraction lists, a plain Gauss-Jordan, and Horner over Fractions
# ---------------------------------------------------------------------------


class RefPoly:
    """A dense ascending list of Fractions with no trailing zero, whose
    schoolbook product and long division serve as the reference."""

    def __init__(self, cs):
        cs = list(cs)
        while cs and not cs[-1]:
            cs.pop()
        self.cs = cs

    def __eq__(self, other):
        return self.cs == other.cs

    def coeff(self, i):
        return self.cs[i] if i < len(self.cs) else Fraction(0)

    def __add__(self, other):
        n = max(len(self.cs), len(other.cs))
        return RefPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self):
        return RefPoly([-c for c in self.cs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.cs or not other.cs:
            return RefPoly([])
        out = [Fraction(0)] * (len(self.cs) + len(other.cs) - 1)
        for i, a in enumerate(self.cs):
            for j, b in enumerate(other.cs):
                out[i + j] += a * b
        return RefPoly(out)

    def scale(self, c):
        return RefPoly([a * c for a in self.cs])

    def lc(self):
        return self.cs[-1]

    def monic(self):
        return self.scale(1 / self.cs[-1]) if self.cs else self

    def __divmod__(self, other):
        if not other.cs:
            raise ZeroDivisionError("polynomial division by zero")
        rem, d = list(self.cs), len(other.cs) - 1
        quo = [Fraction(0)] * max(len(rem) - d, 0)
        for k in range(len(quo) - 1, -1, -1):
            c = quo[k] = rem[k + d] / other.cs[-1]
            for i, b in enumerate(other.cs):
                rem[k + i] -= c * b
        return RefPoly(quo), RefPoly(rem[:d])

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r.cs:
            raise ValueError("exact_div: division left a remainder")
        return q


def ref(p: Poly) -> RefPoly:
    return RefPoly(p.coeffs)


def ref_gcd(a: RefPoly, b: RefPoly) -> RefPoly:
    """Monic gcd by Euclid with monic remainders; gcd(0, 0) = 0."""
    while b.cs:
        a, b = b, divmod(a, b)[1].monic()
    return a.monic()


def gauss_jordan_nullspace(rows: list, ncols: int) -> list:
    """The reduced-echelon nullspace basis, one vector per free column, by
    Gauss-Jordan over any field: the reference."""
    mat = [list(r) for r in rows if any(r)]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [c / mat[r][col] for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for i, pc in enumerate(pivots):
                vec[pc] = -mat[i][fc]
            basis.append(vec)
    return basis


def horner(cs, v) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * v + c
    return acc


def reference_normal_form(num: Poly, den: Poly):
    """(num, den) divided by the reference gcd, den made monic."""
    n, d = ref(num), ref(den)
    g = ref_gcd(n, d)
    n, d = n.exact_div(g), d.exact_div(g)
    inv = 1 / d.lc()
    return n.scale(inv), d.scale(inv)


def rand_frac(rng, size=6):
    return Fraction(rng.randint(-size, size), rng.randint(1, size))


def rand_frac_poly(rng, maxdeg):
    return Poly(tuple(rand_frac(rng) for _ in range(rng.randint(0, maxdeg + 1))))


def test_integer_gcd_matches_generic_randomized():
    rng = random.Random(1011)
    checked = 0
    for _ in range(200):
        shared = rand_frac_poly(rng, 3)
        p = shared * rand_frac_poly(rng, 3)
        q = shared * rand_frac_poly(rng, 3)
        if rng.random() < 0.2:
            q = -q  # negative leading coefficient
        reference = ref_gcd(ref(p), ref(q)).cs
        got = poly_gcd(p, q)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert list(got.coeffs) == reference
        checked += p.degree >= 1 and q.degree >= 1
    assert checked > 50


def test_integer_gcd_edge_cases():
    cases = [
        (Poly(()), Poly(())),
        (Poly(()), Poly((Fraction(-3, 2),))),
        (Poly((Fraction(5),)), Poly((Fraction(-3, 2), Fraction(7)))),
        (Poly((Fraction(-4), Fraction(0), Fraction(-2))), Poly(())),
        (lin(Fraction(1, 3)) * lin(-2), -lin(Fraction(1, 3)).scale(Fraction(9, 4))),
        (X.shift(3) ** 3, X.shift(3) ** 2 * lin(5)),
    ]
    for p, q in cases:
        assert list(poly_gcd(p, q).coeffs) == ref_gcd(ref(p), ref(q)).cs
    assert poly_gcd(X.shift(3) ** 3, X.shift(3) ** 2 * lin(5)) == X.shift(3) ** 2


def test_integer_nullspace_matches_generic_randomized():
    rng = random.Random(1013)
    for trial in range(150):
        n, m = rng.randint(0, 6), rng.randint(1, 7)
        rows = [[rand_frac(rng, 4) if rng.random() < 0.7 else Fraction(0)
                 for _ in range(m)] for _ in range(n)]
        if rows and trial % 3 == 0:
            # rank-deficient: a zero row and a combination of two others
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([Fraction(0)] * m)
            rows.append([2 * x - Fraction(1, 3) * y for x, y in zip(a, b)])
        got = nullspace(rows, m)
        assert [list(v) for v in got] == gauss_jordan_nullspace(rows, m)
        assert all(type(c) is Fraction for v in got for c in v)
        for v in got:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_integer_nullspace_empty_and_zero():
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert nullspace([[Fraction(0)] * 3], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([[Fraction(-2), Fraction(4)]], 2) == [[2, 1]]


def assert_rational_equal(got: Poly, reference: RefPoly):
    assert all(type(c) is Fraction for c in got.coeffs)
    assert list(got.coeffs) == reference.cs


def test_integer_product_and_division_match_generic_randomized():
    rng = random.Random(1019)
    for trial in range(300):
        p, q = rand_frac_poly(rng, 6), rand_frac_poly(rng, 4)
        if trial % 4 == 0:
            q = q.scale(Fraction(-rng.randint(2, 9), rng.randint(1, 5)))
        assert_rational_equal(p * q, ref(p) * ref(q))
        if q.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(p, q)
            continue
        quo, rem = divmod(p, q)
        rquo, rrem = divmod(ref(p), ref(q))
        assert_rational_equal(quo, rquo)
        assert_rational_equal(rem, rrem)
        assert quo * q + rem == p
        assert_rational_equal((p * q).exact_div(q), ref(p))
        if not rem.is_zero():
            with pytest.raises(ValueError, match="remainder"):
                p.exact_div(q)


def test_integer_division_edge_cases():
    # a negative, non-monic leading coefficient scales the fraction-free
    # steps; a divisor of higher degree leaves the dividend as remainder
    p = Poly((Fraction(7, 3), Fraction(-1), Fraction(5, 2), Fraction(3)))
    q = Poly((Fraction(1, 2), Fraction(4), Fraction(-6, 5)))
    quo, rem = divmod(p, q)
    rquo, rrem = divmod(ref(p), ref(q))
    assert_rational_equal(quo, rquo)
    assert_rational_equal(rem, rrem)
    assert quo * q + rem == p and rem.degree < q.degree
    assert divmod(q, p) == (Poly(()), q)
    assert divmod(Poly(()), q) == (Poly(()), Poly(()))
    assert (p * q).exact_div(q.scale(Fraction(-2, 7))) == p.scale(Fraction(-7, 2))
    with pytest.raises(ValueError, match="remainder"):
        (p * q + ONE).exact_div(q)
    with pytest.raises(ValueError, match="remainder"):
        q.exact_div(p)
    with pytest.raises(ValueError, match="remainder"):
        ref(q).exact_div(ref(p))


def reference_shift(p: Poly, j) -> RefPoly:
    """p(x + j) by Horner over the reference: the reference."""
    inner = RefPoly([Fraction(j), Fraction(1)])
    acc = RefPoly([])
    for c in reversed(p.coeffs):
        acc = acc * inner + RefPoly([c])
    return acc


def test_integer_shift_matches_generic_randomized():
    rng = random.Random(1021)
    for trial in range(200):
        p = rand_frac_poly(rng, 7)
        j = -rng.randint(1, 40) if trial % 2 else rand_frac(rng, 9)
        got = p.shift(j)
        if not j:
            assert got is p
            continue
        assert_rational_equal(got, reference_shift(p, j))
        assert got.shift(-j) == p
        v = rand_frac(rng)
        assert got.eval_at(v) == p.eval_at(v + j)


def test_ratfunc_normal_form_matches_generic_randomized():
    rng = random.Random(1023)
    checked = 0
    for _ in range(200):
        shared = rand_frac_poly(rng, 3)
        num = shared * rand_frac_poly(rng, 3)
        den = shared * rand_frac_poly(rng, 3)
        if num.is_zero() or den.is_zero():
            continue
        f = RatFunc(num, den)
        rnum, rden = reference_normal_form(num, den)
        assert_rational_equal(f.num, rnum)
        assert_rational_equal(f.den, rden)
        assert f.den.lc() == 1
        assert poly_gcd(f.num, f.den).degree == 0
        assert f.num * den == num * f.den
        checked += shared.degree >= 1
    assert checked > 50


def test_integer_form_matches_generic_randomized():
    rng = random.Random(1031)
    points = [Fraction(-3), Fraction(0), Fraction(2), Fraction(-5, 3), Fraction(7, 4)]
    poles = 0
    for trial in range(250):
        p, q = rand_frac_poly(rng, 5), rand_frac_poly(rng, 4)
        ep, eq = ref(p), ref(q)
        c = rand_frac(rng, 9)
        assert_rational_equal(p + q, ep + eq)
        assert_rational_equal(p - q, ep - eq)
        assert_rational_equal(p - p, ep - ep)
        assert_rational_equal(-p, -ep)
        assert_rational_equal(p * q, ep * eq)
        assert_rational_equal(p.scale(c), ep.scale(c))
        assert_rational_equal(p.monic(), ep.monic())
        assert list(p.derivative().coeffs) == [i * a for i, a in enumerate(p.coeffs) if i]
        if not q.is_zero():
            quo, rem = divmod(p, q)
            rquo, rrem = divmod(ep, eq)
            assert_rational_equal(quo, rquo)
            assert_rational_equal(rem, rrem)
            assert_rational_equal((p * q).exact_div(q), (ep * eq).exact_div(eq))
        j = rng.choice([-rng.randint(1, 9), rng.randint(1, 9), rand_frac(rng, 5)])
        assert_rational_equal(p.shift(j), reference_shift(p, j))
        for v in points + [rand_frac(rng, 9)]:
            got = p.eval_at(v)
            assert type(got) is Fraction
            assert got == horner(ep.cs, v)
        if p.is_zero() or q.is_zero():
            continue
        # a pole at r: q has no root r, or one that the normal form cancels
        r = rng.choice(points)
        f = RatFunc(p, q * lin(r))
        rnum, rden = reference_normal_form(p, q * lin(r))
        assert_rational_equal(f.num, rnum)
        assert_rational_equal(f.den, rden)
        for v in points + [rand_frac(rng, 9)]:
            got = f.eval_at(v)
            dv = horner(rden.cs, v)
            assert got == (None if dv == 0 else horner(rnum.cs, v) / dv)
            assert got is None or type(got) is Fraction
        if f.den.eval_at(r) == 0:
            assert f.eval_at(r) is None
            poles += 1
    assert poles > 100


def test_integer_form_hash_agrees_with_equality():
    from nsopt.algebra import _from_ints

    half = Fraction(1, 2)
    p = Poly((half, Fraction(0), Fraction(3)))
    q = Poly.from_ints(5, -1, 2)
    ways = [
        Poly((half, 0, 3)),  # plain ints mixed in
        Poly((half, 0, Fraction(6, 2), Fraction(0))),  # trailing zero
        Poly.from_ints(1, 0, 6).scale(half),
        _from_ints([2, 0, 12], 4),
        _from_ints((-1, 0, -6, 0), -2),
        (p * q).exact_div(q),
        p + q - q,
        -(-p),
        (p * q).exact_div(q.monic()).scale(1 / q.lc()),
        p.shift(3).shift(-3),
        p.shift(half).shift(-half),
    ]
    for w in ways:
        assert w == p and hash(w) == hash(p)
        assert type(w.coeffs) is tuple
        assert all(type(c) is Fraction for c in w.coeffs)
        assert w.coeffs == (half, 0, 3)
    assert len(set(ways + [p])) == 1
    assert {p: "p"}[ways[-1]] == "p"
    assert Poly((2, 1)) == Poly((Fraction(2), Fraction(1))) == X + ONE + ONE
    assert hash(Poly((2, 1))) == hash(X + ONE + ONE)
    assert Poly(()) == Poly((0, Fraction(0))) == X - X and not (X - X).coeffs
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(1),)

    f = RatFunc(p, q)
    rat_ways = [
        RatFunc(p * lin(3), q * lin(3)),
        RatFunc(p.scale(Fraction(-2, 7)), q.scale(Fraction(-2, 7))),
        RatFunc(Poly((1, 0, 6)), Poly((10, -2, 4))),
        RatFunc(p, q.monic()).__mul__(RatFunc.from_const(Fraction(1, 2))),
        RatFunc.from_poly(p) / RatFunc.from_poly(q),
        (f + RatFunc.from_const(3)) - 3,
        (f * RatFunc(q, lin(3))) / RatFunc(q, lin(3)),
    ]
    for g in rat_ways:
        assert g == f and hash(g) == hash(f)
        assert all(type(c) is Fraction for c in g.num.coeffs + g.den.coeffs)
    assert len(set(rat_ways + [f])) == 1
    assert RatFunc.from_const(3) == RatFunc.from_const(Fraction(3)) == 3
    assert hash(RatFunc.from_const(3)) == hash(RatFunc(Poly((6,)), Poly((2,))))
    assert RatFunc.from_const(Fraction(-2, 3)).constant_value() == Fraction(-2, 3)


def test_parsed_base_node_copies_and_pickles_its_integer_form():
    import copy
    import pickle

    from nsopt.expr import Base, parse

    e = parse("sum(i,1,n,(2*i+1)/(3*(i+1)*(i+5/2)))")
    base = e.body
    assert isinstance(base, Base)
    for clone in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert clone == e and hash(clone) == hash(e)
        rf = clone.body.rf
        assert rf == base.rf and hash(rf) == hash(base.rf)
        assert rf.num.coeffs == base.rf.num.coeffs
        assert rf.eval_at(Fraction(7, 2)) == base.rf.eval_at(Fraction(7, 2))
        assert rf.eval_at(Fraction(-5, 2)) is None


def test_tower_coefficients_take_the_generic_path(monkeypatch):
    # Gauss-Jordan over tower elements divides by monomials only; their
    # coefficients normalize over Q, so the integer gcd may run, but only
    # ever on constants
    int_gcd = nsopt.algebra._int_gcd
    seen = []

    def recorded(a, b):
        seen.append((len(a), len(b)))
        return int_gcd(a, b)

    monkeypatch.setattr(nsopt.algebra, "_int_gcd", recorded)
    h = TowerElem.gen(0)
    one = TowerElem.const(Fraction(1))
    basis = gauss_jordan_nullspace([[h, one], [h * h, h]], 2)
    assert len(basis) == 1
    v = basis[0]
    assert (h * v[0] + one * v[1]).is_zero()
    assert all(sizes == (1, 1) for sizes in seen)


def test_integer_roots_use_the_root_bound():
    # the constant term is past 10^12, and the root bound, to which the
    # roots are lifted, is small for these coefficients
    big = 10**12 + 39
    p = lin(3) * lin(7) * Poly.from_ints(big, 0, 0, 0, 1)
    assert nonneg_integer_roots(p) == {3, 7}
    # Fujiwara's bound is 1.2 * 10^6 here and the Cauchy bound 900002
    wide = Poly.from_ints(9 * 10**12 + 7, 6 * 10**12, 10**7)
    assert nonneg_integer_roots(wide) == set()


def test_integer_roots_take_the_squarefree_part_when_needed(monkeypatch):
    # a repeated factor is a multiple root mod every prime, so it is
    # divided out rather than skipped past; a squarefree input whose first
    # usable prime shows no multiple root takes no gcd at all
    roots = nsopt.algebra._integer_roots
    assert sorted(roots((lin(3) ** 2 * lin(-5))._ints)) == [-5, 3]
    assert roots((Poly.from_ints(1, 0, 1) ** 2 * lin(2))._ints) == [2]
    calls = []
    int_gcd = nsopt.algebra._int_gcd
    monkeypatch.setattr(nsopt.algebra, "_int_gcd", lambda a, b: calls.append(1) or int_gcd(a, b))
    assert sorted(roots((lin(-1) * lin(-2))._ints)) == [-2, -1]
    assert calls == []


def test_gcd_shifts_match_brute_force_randomized():
    rng = random.Random(1017)
    for trial in range(10):
        a = Poly.from_ints(rng.randint(1, 900), rng.randint(-9, 9), 1)
        j, k = rng.randint(0, 400), rng.randint(0, 400)
        other = a.shift(-k) if trial % 2 else Poly.from_ints(rng.randint(1, 9), 1, 1)
        b = a.shift(-j) * other
        got = gcd_shifts(a, b)
        assert j in got and (k in got or not trial % 2)
        brute = {i: poly_gcd(a, b.shift(i)) for i in range(max(got) + 300)}
        assert got == {i: g for i, g in brute.items() if g.degree >= 1}


def test_gcd_shifts_skip_shifts_coprime_mod_p(monkeypatch):
    # a shift whose gcd modulo 2^61 - 1 is constant takes no integer gcd;
    # when that prime divides a leading coefficient the images may lose a
    # common root, so every shift takes the integer gcd
    calls = [0]
    int_gcd = nsopt.algebra._int_gcd

    def counted(a, b):
        calls[0] += 1
        return int_gcd(a, b)

    monkeypatch.setattr(nsopt.algebra, "_int_gcd", counted)
    a = Poly.from_ints(1, *[0] * 39, 1)
    assert gcd_shifts(a, a) == {0: a}
    assert calls[0] == 1
    p = 2**61 - 1
    a, b = Poly.from_ints(1, p), Poly.from_ints(1 - 2 * p, p)  # b(x+2) = a(x)
    lo, hi = nsopt.algebra._shift_window(a._ints, b._ints)
    calls[0] = 0
    got = gcd_shifts(a, b)
    # one integer gcd per shift of the searched window
    assert calls[0] == hi - max(lo, 0) + 1
    # every shift that can share a root is at most the sum of the root bounds
    window = nsopt.algebra._root_bound(a._ints) + nsopt.algebra._root_bound(b._ints)
    brute = {i: poly_gcd(a, b.shift(i)) for i in range(window + 1)}
    assert got == {i: g for i, g in brute.items() if g.degree >= 1} == {2: a.monic()}


def test_gcd_shifts_search_around_the_root_centroids(monkeypatch):
    # x^40 + 1 against its copy moved by 30: the roots of each lie within 2
    # of their centroid, so the window holds the 9 shifts around 30, not
    # the 2400 up to the sum of the root bounds
    calls = [0]
    mod_p, int_gcd = nsopt.algebra._gcd_degree_mod_p, nsopt.algebra._int_gcd

    def counted(fn):
        def wrapped(a, b):
            calls[0] += 1
            return fn(a, b)
        return wrapped

    monkeypatch.setattr(nsopt.algebra, "_gcd_degree_mod_p", counted(mod_p))
    monkeypatch.setattr(nsopt.algebra, "_int_gcd", counted(int_gcd))
    a = Poly.from_ints(1, *[0] * 39, 1)
    b = a.shift(-30)  # b(x+30) = a(x)
    got = gcd_shifts(a, b)
    assert calls[0] <= 10
    # a's roots are on the unit circle and b's on the circle of radius 1
    # around 30, so a shared root needs a shift between 28 and 32
    brute = {i: poly_gcd(a, b.shift(i)) for i in range(61)}
    assert got == {i: g for i, g in brute.items() if g.degree >= 1} == {30: a}
    assert gcd_shifts(b, a) == {}


def test_gcd_shifts_refuse_a_window_past_the_limit(monkeypatch):
    # the roots of x^3 + 10^30*x + 1 reach 10^15 in modulus: no shift of
    # that window is tried.  The cubic has no rational root, so it is
    # irreducible and factor_atoms keeps it whole without a shift search;
    # the quartic x^4 + 10^30*x + 1 may be composite, so factor_atoms
    # passes the refusal on
    cubic = Poly.from_ints(1, 10**30, 0, 1)
    quartic = Poly.from_ints(1, 10**30, 0, 0, 1)
    calls = [0]
    int_gcd = nsopt.algebra._int_gcd

    def counted(a, b):
        calls[0] += 1
        return int_gcd(a, b)

    monkeypatch.setattr(nsopt.algebra, "_int_gcd", counted)
    with pytest.raises(RootSearchLimit, match="shift search out of range"):
        gcd_shifts(cubic, cubic)
    with pytest.raises(RootSearchLimit, match="shift search out of range"):
        factor_atoms(quartic)
    assert calls[0] < 10
    assert factor_atoms(cubic) == [(cubic, 1)]
    # a window inside the limit is tried in full
    small = Poly.from_ints(10**6 + 1, 0, 0, 1)
    assert gcd_shifts(small, small) == {0: small}


def test_quartic_with_a_distant_shift_splits():
    # (x^2+1)((x+45)^2+1): the shift 45 between its two factors lies far
    # past a fixed window of 36, but inside the proven one
    q = Poly.from_ints(1, 0, 1)
    atoms = factor_atoms(q * q.shift(45))
    assert atoms == [(q, 1), (Poly.from_ints(2026, 90, 1), 1)]


def test_factor_shifted_backwards_splits():
    # ((x+1)^2+1) * (x^2+1)(x^2+2): once the first factor is split off, the
    # quartic holds it shifted by -1, a gcd seen only from the quadratic's
    # side, and the quadratic itself is never split
    q1, q2 = Poly.from_ints(1, 0, 1), Poly.from_ints(2, 0, 1)
    atoms = factor_atoms(q1.shift(1) * q1 * q2)
    assert atoms == [(q1, 1), (q2, 1), (q1.shift(1), 1)]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def rand_poly(rng, maxdeg):
    return Poly(tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, maxdeg + 1))))


def rand_ratfunc(rng):
    num = rand_poly(rng, 3)
    den = Poly(())
    while den.is_zero():
        den = rand_poly(rng, 3)
    return RatFunc(num, den)
