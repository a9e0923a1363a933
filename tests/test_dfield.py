"""Tower elements: normal form, arithmetic, the shift map, depth."""

import json
import random
from fractions import Fraction

import pytest

from nsopt.algebra import Poly, RatFunc
from nsopt.dfield import (
    ElemPoly,
    Generator,
    NotPolynomialPart,
    Tower,
    TowerElem,
    _adjoin_sigma_star_unchecked,
    _lift_rf,
    constant_component,
    depth,
    elem_to_str,
    monomials,
    occurring_generators,
    sigma,
    tower_to_json,
)

from nsopt.expr import EvalSpec, ProductSpec, compile, parse, reinterpret
from nsopt.telescope import adjoin_pi

from conftest import X, ONE, harmonic_tower, nested_tower, rand_elem


def test_demotion_to_minimal_level():
    t, h = harmonic_tower()
    assert (h + 1 - h).level == 0
    assert (h + 1 - h) == 1
    assert ((h * h) / h) == h
    assert (h - h).is_zero()
    assert (h / h) == 1
    # x stays at level 0 even combined with h transiently
    assert ((h + X) - h) == X


def test_equality_and_hash():
    t, h = harmonic_tower()
    a = (h + X) * (h - X)
    b = h * h - X * X
    assert a == b
    assert hash(a) == hash(b)
    assert a != h
    assert TowerElem.const(Fraction(3, 2)) == Fraction(3, 2)


def test_field_laws_random():
    t, h, s = nested_tower()
    rng = random.Random(2001)
    for _ in range(40):
        a = rand_elem(rng, t)
        b = rand_elem(rng, t)
        c = rand_elem(rng, t)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a
        assert a - a == 0
        assert a * ONE == a


def _sums_and_product_tower():
    """Q(x)(h)(h2)(p): sigma(h2) = h2 + 1/(x+1)^2 and sigma(p) = (x+1)*p."""
    t, h = harmonic_tower()
    t = _adjoin_sigma_star_unchecked(t, ONE / (X + 1) ** 2, "h2", "test fixture")
    return t.extended(Generator("p", "pi", X + 1, 2, "test fixture"))


def _unit_or_not(rng, tower):
    """A random element whose top-level denominator is 1 (a polynomial in
    x and the generators) or, half the time, a random quotient."""
    if rng.random() < 0.5:
        return rand_elem(rng, tower)
    vars_ = [X] + [TowerElem.gen(i) for i in range(len(tower))]
    acc = TowerElem.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    for _ in range(rng.randint(0, 3)):
        term = TowerElem.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(vars_)
        acc = acc + term
    return acc


def test_unit_fast_paths_keep_the_normal_form():
    # products by 1, sums of unit-denominator elements and products by a
    # single-coefficient polynomial take shortcuts; the results must be
    # the normal form, demoted to the minimal level
    t = _sums_and_product_tower()
    rng = random.Random(1906)
    levels = set()
    for _ in range(60):
        a, b, c = (_unit_or_not(rng, t) for _ in range(3))
        levels.update((a.level, b.level))
        for one in (ONE, TowerElem.const(1), 1, Fraction(1)):
            assert a * one == one * a == a
        s = (a + b) - b
        assert s == a and hash(s) == hash(a)
        left, right = a * (b + c), a * b + a * c
        assert left == right and hash(left) == hash(right)
        if not b.is_zero():
            q = (a * b) / b
            assert q == a and hash(q) == hash(a)
    assert levels >= {0, 1, 2, 3}


def test_pow():
    t, h = harmonic_tower()
    assert h ** 0 == 1
    assert h ** 3 == h * h * h
    assert (h ** -2) * h * h == 1


def test_sigma_on_base():
    from nsopt.algebra import Poly

    t = Tower()
    f = TowerElem.base(RatFunc(Poly.from_ints(0, 1), Poly.from_ints(1, 1)))  # x/(x+1)
    g = sigma(t, f)
    assert g == TowerElem.base(RatFunc(Poly.from_ints(1, 1), Poly.from_ints(2, 1)))
    assert sigma(t, g, -1) == f


def test_sigma_harmonic_generator():
    t, h = harmonic_tower()
    assert sigma(t, h) == h + ONE / (X + 1)
    assert sigma(t, h, -1) == h - ONE / X
    assert sigma(t, h, 3) == h + ONE / (X + 1) + ONE / (X + 2) + ONE / (X + 3)


def test_sigma_is_automorphism():
    t, h, s = nested_tower()
    rng = random.Random(2002)
    for _ in range(25):
        a = rand_elem(rng, t)
        b = rand_elem(rng, t)
        assert sigma(t, a + b) == sigma(t, a) + sigma(t, b)
        assert sigma(t, a * b) == sigma(t, a) * sigma(t, b)
        assert sigma(t, sigma(t, a), -1) == a
        assert sigma(t, sigma(t, a, -1)) == a


def test_sigma_depends_only_on_the_generators_up_to_its_level():
    t, h = harmonic_tower()
    f = h * h / (X + 3)
    g = sigma(t, f)
    # another tower grown from the same root by the same generator, and a
    # taller one, give the same shift; a same-named generator with another
    # shift part is a different field and shifts differently
    assert sigma(Tower(t.gens, t._solve_cache), f) == g
    t2 = _adjoin_sigma_star_unchecked(t, h / (X + 1), "s", "test fixture")
    assert sigma(t2, f) == g
    other = _adjoin_sigma_star_unchecked(Tower(solve_cache=t._solve_cache),
                                         ONE / (X + 2), "h", "test fixture")
    assert sigma(other, f) == h * h / (X + 4) + 2 * h / ((X + 2) * (X + 4)) \
        + ONE / ((X + 2) ** 2 * (X + 4))
    # a fresh root gives the same shift
    assert sigma(Tower(t.gens), f) == g


def test_depth_values():
    t, h, s = nested_tower()
    assert depth(t, TowerElem.const(7)) == 0
    assert depth(t, X) == 1
    assert depth(t, h) == 2
    assert depth(t, s) == 3
    assert t.gens[0].depth == 2
    assert t.gens[1].depth == 3
    # depth is the max over occurring generators, not the element's level
    assert depth(t, h * h + X) == 2
    assert depth(t, s + h) == 3
    assert depth(t, (s - s) + h) == 2


def test_occurrence_uses_reduced_form():
    t, h, s = nested_tower()
    assert occurring_generators(t, (s * h) / s) == {0}
    assert occurring_generators(t, h - h) == set()
    assert occurring_generators(t, X + h) == {-1, 0}


def test_polynomial_part_detection():
    t, h, s = nested_tower()
    assert len(monomials(t, h * h + s * X)) == 2
    assert len(monomials(t, ONE / (X + 2) + h)) == 2  # x may sit below
    for f in (ONE / h, s / (h + 1), ONE / (s + h)):
        with pytest.raises(NotPolynomialPart):
            monomials(t, f)


def test_monomials_over_a_product_and_a_sum():
    # Q(x)(b)(h) with sigma(b) = 2*b and sigma(h) = h + 1/(x+1); vectors
    # list the exponents of (b, h)
    tb = adjoin_pi(Tower(), TowerElem.const(2), name="b")
    t = _adjoin_sigma_star_unchecked(tb, ONE / (X + 1), "h")
    b, h = TowerElem.gen(0), TowerElem.gen(1)
    inv = RatFunc(Poly.from_ints(1), Poly.from_ints(1, 1))
    assert monomials(t, 3 * b * h + ONE / (X + 1)) == {
        (1, 1): RatFunc.from_const(Fraction(3)),
        (0, 0): inv,
    }
    assert monomials(t, h / b) == {(-1, 1): RatFunc.from_const(Fraction(1))}
    # the constant summand is read off the all-zero vector, also when b
    # sits in a denominator
    assert constant_component(t, b + 2 + ONE / b) == 2
    # a sum-like generator, and a product-like one that is not a monomial,
    # in a denominator: the element leaves the class
    for f in (ONE / h, ONE / (b + 1)):
        with pytest.raises(NotPolynomialPart):
            monomials(t, f)
        with pytest.raises(NotPolynomialPart):
            reinterpret(t, EvalSpec(), f)


def test_constant_component():
    t, h, s = nested_tower()
    assert constant_component(t, s + h + 5) == 5
    assert constant_component(t, s * h) == 0
    assert constant_component(t, TowerElem.const(Fraction(-2, 3))) == Fraction(-2, 3)
    assert constant_component(t, X + 4) == 4
    assert constant_component(t, ONE / (X + 1)) == 0


def test_elem_to_str_reads_back_sanely():
    t, h, s = nested_tower()
    assert elem_to_str(t, h * h - X * X) == "h^2 - x^2"
    assert elem_to_str(t, ONE / (X + 1)) == "1/(x + 1)"
    assert elem_to_str(t, s) == "s"


def test_tower_json_deterministic():
    t, h, s = nested_tower()
    d1 = json.dumps(tower_to_json(t))
    d2 = json.dumps(tower_to_json(t))
    assert d1 == d2
    parsed = json.loads(d1)
    assert [g["name"] for g in parsed["generators"]] == ["h", "s"]
    assert [g["depth"] for g in parsed["generators"]] == [2, 3]
    assert parsed["generators"][0]["shift_part"] == "1/(x + 1)"


def test_tower_validation():
    t, h = harmonic_tower()
    with pytest.raises(ValueError):
        Tower(t.gens + t.gens)  # duplicate names
    assert t.fresh_name() == "t2"
    assert t.gen_index("h") == 0
    with pytest.raises(KeyError):
        t.gen_index("nope")


def test_zero_division():
    t, h = harmonic_tower()
    with pytest.raises(ZeroDivisionError):
        h / (h - h)
    with pytest.raises(ZeroDivisionError):
        (h - h).inverse()


def test_generator_kind_is_checked():
    with pytest.raises(ValueError):
        Generator("d", "delta", ONE, 1)


def test_lift_rejects_element_at_or_above_level():
    t, h = harmonic_tower()
    assert _lift_rf(X, 1).num.coeffs == (X,)
    with pytest.raises(ArithmeticError):
        _lift_rf(h, 1)


def _walk_normal_form(f: TowerElem, levels: list):
    """Assert the stored form of f and every coefficient below it: Q[x]
    polynomials at level 0, ElemPolys over lower-level TowerElems with a
    monic denominator above it."""
    levels.append(f.level)
    num, den = f.rf.num, f.rf.den
    if f.level == 0:
        assert type(num) is Poly and type(den) is Poly
        return
    assert type(num) is ElemPoly and type(den) is ElemPoly
    assert den.lc() == ONE
    for c in num.coeffs + den.coeffs:
        assert type(c) is TowerElem and c.level < f.level
        _walk_normal_form(c, levels)


def test_compiled_fixtures_keep_elem_poly_form():
    import test_acceptance as acc

    products = (ProductSpec("b", acc.BINOM_RATIO, 1),)
    levels = []
    for name in ("FLAGSHIP", "A4", "A5", "B_DEPTH7", "BINOM_A1", "BINOM_A2", "BINOM_B"):
        res = compile(parse(getattr(acc, name)),
                      products=products if name.startswith("BINOM") else ())
        _walk_normal_form(res.elem, levels)
        for g in res.tower.gens:
            _walk_normal_form(g.shift_part, levels)
    assert max(levels) >= 3 and levels.count(0) > 0
