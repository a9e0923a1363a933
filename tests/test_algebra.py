import random
from fractions import Fraction

import pytest

from nsopt.algebra import (
    Poly,
    RatFunc,
    ZeroDenominator,
    ZeroPolynomial,
    equal_degree_shift,
    factor_atoms,
    nonneg_integer_roots,
    nullspace,
    poly_gcd,
    rational_roots,
    shift_class,
    squarefree_decomposition,
)

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
    for _ in range(40):
        a, b, c = (rand_ratfunc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == RatFunc.from_const(Fraction(0))
        if not a.is_zero():
            assert a * a.inverse() == RatFunc.from_const(Fraction(1))


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
