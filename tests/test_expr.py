"""Surface language: parsing, printing, evaluation, compile, reinterpret."""

import random
from fractions import Fraction

import pytest

import nsopt.telescope
from nsopt.algebra import Poly, RatFunc
from nsopt.dfield import Tower, TowerElem, depth, sigma
from nsopt.expr import (
    Base,
    Const,
    EvalSpec,
    Evaluator,
    NotPolynomialPart,
    ParseError,
    Plus,
    ProductSpec,
    ScopeError,
    Sum,
    ZeroElement,
    compile,
    eval_field,
    evaluate,
    expr_depth,
    o_function,
    parse,
    reinterpret,
    to_src,
    z_function_base,
    _leaf,
    _plus,
    _power,
    _times,
)
from nsopt.telescope import UnsupportedShape

from conftest import X, ONE, harmonic_tower, nested_tower, rand_fraction

FLAGSHIP = "sum(r,1,n,(sum(l,1,r,(H(l)^2+H(2,l))/l)+sum(l,1,r,H(l)/l))/r)"

HALF = Fraction(1, 2)


def rf(num, den=(1,)):
    return RatFunc(Poly.from_ints(*num), Poly.from_ints(*den))


def harm(n, o=1):
    return sum(Fraction(1, k**o) for k in range(1, n + 1))


# -- parsing ------------------------------------------------------------------


def test_parse_rational_folding():
    # a pure rational subtree collapses into a single leaf
    e = parse("(n+1)*(n-1) - n^2")
    assert e == Const(Fraction(-1))
    e2 = parse("2/3 * n / (n+1)")
    assert isinstance(e2, Base) and e2.var == "n"
    assert e2.rf == rf((0, 2), (3, 3))


def test_parse_sum_shape():
    e = parse("sum(i,1,n,1/i)")
    assert isinstance(e, Sum)
    assert (e.idx, e.lower, e.upper) == ("i", 1, "n")
    assert e.body == Base(rf((1,), (0, 1)), "i")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse("1 + * 2")
    assert ei.value.pos == 4
    with pytest.raises(ParseError):
        parse("sum(i,1,n,1/i")
    with pytest.raises(ParseError):
        parse("n^0")
    with pytest.raises(ParseError):
        parse("n 2")


def test_scope_rules():
    with pytest.raises(ScopeError):
        parse("k + 1")
    # binders may not shadow an enclosing binder
    with pytest.raises(ScopeError):
        parse("sum(i,1,n,sum(i,1,i,1/i))")
    # the upper bound resolves in the enclosing scope
    with pytest.raises(ScopeError):
        parse("sum(i,1,n,sum(j,1,j,1/j))")
    parse("sum(i,1,n,sum(j,1,i,1/j))")  # and this one is fine
    with pytest.raises(ParseError):
        parse("sum(H,1,n,1)")


def test_division_needs_rational_divisor():
    with pytest.raises(ParseError):
        parse("1/sum(i,1,n,1/i)")
    with pytest.raises(ParseError):
        parse("n/0")
    with pytest.raises(ParseError):
        parse("n/(n - n)")


def test_harmonic_sugar():
    # the fresh inner binder is deterministic
    assert parse("H(n)") == parse("sum(i1,1,n,1/i1)")
    assert parse("H(3,n)") == parse("sum(i1,1,n,1/i1^3)")
    # shifted arguments expand into sum plus rational tail
    assert evaluate(parse("H(n+2)"), 3) == harm(5)
    assert evaluate(parse("H(n-1)"), 3) == harm(2)
    assert evaluate(parse("H(2,n+1)"), 4) == harm(5, 2)
    assert evaluate(parse("H(n-1)"), 0) == 0


# -- printing -----------------------------------------------------------------


def _rand_rf(rng):
    while True:
        num = Poly(tuple(rand_fraction(rng) for _ in range(rng.randint(1, 3))))
        den = Poly(tuple(rand_fraction(rng) for _ in range(rng.randint(1, 3))))
        if not den.is_zero() and not num.is_zero():
            rfv = RatFunc(num, den)
            if not rfv.is_constant():
                return rfv


def _rand_expr(rng, scope, d):
    roll = rng.random()
    if d == 0 or roll < 0.3:
        if roll < 0.1:
            return Const(rand_fraction(rng))
        return _leaf(rng.choice(scope), _rand_rf(rng))
    if roll < 0.55:
        idx = f"k{len(scope)}"
        body = _rand_expr(rng, scope + [idx], d - 1)
        return Sum(idx, rng.randint(0, 3), rng.choice(scope), body)
    if roll < 0.75:
        return _plus([_rand_expr(rng, scope, d - 1) for _ in range(2)])
    if roll < 0.9:
        return _times([_rand_expr(rng, scope, d - 1) for _ in range(2)])
    return _power(_rand_expr(rng, scope, d - 1), rng.randint(2, 3))


def test_print_parse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(300):
        e = _rand_expr(rng, ["n"], 3)
        assert parse(to_src(e)) == e, to_src(e)


def test_print_parse_roundtrip_fixtures():
    for src in (
        FLAGSHIP,
        "sum(i,2,n,sum(j,2,i,1/(j*(2*j-1)))/i)",
        "-sum(i,1,n,1/i) + 2/3",
        "prod(k,1,n,k/(2*(2*k-1)))",
    ):
        e = parse(src)
        assert parse(to_src(e)) == e


def test_sugar_printing_evaluates_equal():
    e = parse(FLAGSHIP)
    sugared = to_src(e, h_sugar=True)
    assert "H(" in sugared
    e2 = parse(sugared)
    for k in range(0, 8):
        assert evaluate(e, k) == evaluate(e2, k)


# -- depth and evaluation -----------------------------------------------------


def test_expr_depth_examples():
    assert expr_depth(Const(Fraction(3))) == 0
    assert expr_depth(parse("1/n")) == 1
    assert expr_depth(parse("H(n)")) == 2
    assert expr_depth(parse(FLAGSHIP)) == 4
    assert expr_depth(parse("prod(k,1,n,k/(2*(2*k-1)))")) == 2


def test_evaluate_oracles():
    assert evaluate(parse("H(n)"), 3) == Fraction(11, 6)
    assert evaluate(parse("1/(n-2)"), 2) == 0  # pole convention
    assert evaluate(parse("sum(i,3,n,i)"), 2) == 0  # empty sum
    assert evaluate(parse("prod(k,5,n,k)"), 3) == 1  # empty product
    assert evaluate(parse("prod(k,1,n,k)"), 5) == 120


SWEEP_INPUTS = (
    "sum(i,1,n,H(i)/i)",
    "sum(i,0,n,1/(i-3))+1/(n-2)",  # poles give zero
    "sum(i,3,n,i)+prod(k,5,n,k)",  # empty sum and product below their bounds
    "prod(t,1,n,t/(2*(2*t-1)))",  # the inverse central binomial product
    "sum(i,2,n,sum(j,2,i,1/(j*(2*j-1)))/i)",
    # bodies that read an outer binder take the path without the memo
    "sum(i,1,n,sum(j,1,i,(i+j)/j))",
    "sum(i,1,n,(n+i)/i)",
)


def test_evaluator_prefix_is_consistent():
    # sweeping n upward through one Evaluator must agree with fresh ones,
    # also when the sweep starts above 0
    for src in SWEEP_INPUTS:
        e = parse(src)
        for start in (0, 4):
            ev = Evaluator()
            swept = [evaluate(e, k, ev) for k in range(start, start + 15)]
            fresh = [evaluate(e, k) for k in range(start, start + 15)]
            assert swept == fresh, (src, start)


@pytest.mark.parametrize(
    "src, products",
    [
        ("sum(i,5,n,1/i)", ()),  # lambda = 4
        # prints prod(...) nodes for the declared product, one inside a sum
        ("sum(k,1,n,prod(t,1,k,t/(2*(2*t-1)))/k)",
         (ProductSpec("b", rf((1, 1), (2, 4)), 1),)),
    ],
)
def test_shared_evaluator_sweeps_compiled_output(src, products):
    # the CLI sweep: one Evaluator per side from lambda upward
    e = parse(src)
    res = compile(e, products=products)
    out = reinterpret(res.tower, res.spec, res.elem)
    ev_in, ev_out = Evaluator(), Evaluator()
    for k in range(res.lam, res.lam + 20):
        lhs = evaluate(e, k, ev_in)
        rhs = evaluate(out, k, ev_out)
        assert lhs == evaluate(e, k) == rhs == evaluate(out, k), k


# -- o- and z-functions -------------------------------------------------------


def test_o_function_base_examples():
    t = Tower()
    spec = EvalSpec()
    assert o_function(t, spec, TowerElem.base(rf((1,), (-3, 1)))) == 4
    assert o_function(t, spec, TowerElem.base(rf((1, 0, 1)))) == 0


def test_o_function_tower_example():
    t, h = harmonic_tower()
    from nsopt.dfield import _adjoin_sigma_star_unchecked

    t = _adjoin_sigma_star_unchecked(
        t, TowerElem.base(rf((1,), (1, 2, 1))), "h2",
        "test fixture",
    )
    spec = EvalSpec()
    f = h / (X - 3) + TowerElem.gen(1)
    assert o_function(t, spec, f) == 4


def test_z_function_examples():
    assert z_function_base(rf((-5, 1), (-2, 1))) == 6
    assert z_function_base(rf((1,))) == 0
    assert z_function_base(rf((0, 1))) == 1
    with pytest.raises(ZeroElement):
        z_function_base(rf(()))


def test_z_contract_random():
    rng = random.Random(3)
    for _ in range(50):
        f = _rand_rf(rng)
        z = z_function_base(f)
        for k in range(z, z + 25):
            v = f.eval_at(Fraction(k))
            assert v is not None and v != 0


# -- canonical evaluation of tower elements -----------------------------------


def test_gen_value_harmonic():
    t, h = harmonic_tower()
    spec = EvalSpec()
    for k in range(0, 30):
        assert eval_field(t, spec, h, k) == harm(k)


def test_gen_value_product():
    from math import comb

    alpha = RatFunc(Poly((Fraction(1), Fraction(1))),
                    Poly((HALF, Fraction(1))) * Poly.from_ints(4))
    res = compile(parse("prod(k,1,n,k/(2*(2*k-1)))"),
                  products=(ProductSpec("b", alpha, 1),))
    assert [g.name for g in res.tower.gens] == ["b"]
    assert res.elem == TowerElem.gen(0)
    for k in range(0, 25):
        assert eval_field(res.tower, res.spec, res.elem, k) == \
            Fraction(1, comb(2 * k, k))


def test_product_spec_validation():
    alpha = RatFunc(Poly((Fraction(1), Fraction(1))),
                    Poly((HALF, Fraction(1))) * Poly.from_ints(4))
    with pytest.raises(UnsupportedShape):
        compile(parse("prod(k,1,n,k/(2*(2*k-1)))"),
                products=(ProductSpec("b", alpha, 0),))
    with pytest.raises(UnsupportedShape):
        compile(parse("prod(k,1,n,k)"),
                products=(ProductSpec("b", alpha, 1),))
    with pytest.raises(UnsupportedShape):
        compile(parse("prod(k,1,n,k/(2*(2*k-1)))"))


def test_ev_homomorphism_and_shift_beyond_L():
    # polynomial-part elements over Q(x)(h)(s): ring operations and the
    # shift must commute with evaluation past the o-bound
    t, h, s = nested_tower()
    spec = EvalSpec()
    rng = random.Random(11)

    def rand_polypart():
        acc = TowerElem.const(rand_fraction(rng))
        for _ in range(rng.randint(1, 3)):
            term = TowerElem.base(_rand_rf(rng))
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice((h, s))
            acc = acc + term
        return acc

    for _ in range(500):
        f = rand_polypart()
        g = rand_polypart()
        j = rng.randint(-2, 2)
        lf, lg = o_function(t, spec, f), o_function(t, spec, g)
        k = max(lf, lg) + max(0, -j) + rng.randint(0, 4)
        fv = eval_field(t, spec, f, k)
        gv = eval_field(t, spec, g, k)
        assert eval_field(t, spec, f + g, k) == fv + gv
        assert eval_field(t, spec, f * g, k) == fv * gv
        assert eval_field(t, spec, sigma(t, f, j), k) == \
            eval_field(t, spec, f, k + j)


# -- compile ------------------------------------------------------------------


def test_compile_constant():
    res = compile(parse("5 - 2/3"))
    assert len(res.tower) == 0
    assert res.elem == TowerElem.const(Fraction(13, 3))
    assert res.lam == 0


def test_compile_harmonic():
    res = compile(parse("H(n)"))
    assert [g.name for g in res.tower.gens] == ["h"]
    assert res.elem == TowerElem.gen(0)
    assert res.lam == 0
    assert res.optimality_certified


def test_compile_shifted_lower_bound():
    res = compile(parse("sum(i,5,n,1/i)"))
    assert res.elem == TowerElem.gen(0) + TowerElem.const(Fraction(-25, 12))
    assert res.lam == 4
    e = parse("sum(i,5,n,1/i)")
    for k in range(res.lam, 40):
        assert eval_field(res.tower, res.spec, res.elem, k) == evaluate(e, k)


def test_compile_flagship_exact():
    res = compile(parse(FLAGSHIP))
    assert [g.name for g in res.tower.gens] == ["h", "h2", "h3", "h4"]
    h, h2, h3, h4 = (TowerElem.gen(i) for i in range(4))
    expected = (
        h**4 + 2 * h**3 + TowerElem.const(6) * (h + ONE) * h2 * h
        + TowerElem.const(3) * h2**2
        + (TowerElem.const(8) * h + TowerElem.const(4)) * h3
        + TowerElem.const(6) * h4
    ) * TowerElem.const(Fraction(1, 12))
    assert res.elem == expected
    assert res.lam == 0
    assert res.optimality_certified
    assert depth(res.tower, res.elem) == 2


def test_compile_rejects_foreign_index():
    with pytest.raises(UnsupportedShape):
        compile(parse("sum(i,1,n,1/n)"))
    with pytest.raises(UnsupportedShape):
        compile(parse("sum(i,1,n,sum(j,1,n,1/j))"))


def test_compile_soundness_sweep():
    for src in (
        "H(n)",
        "sum(i,2,n,sum(j,2,i,1/(j*(2*j-1)))/i)",
        "sum(l,1,n,H(l)/l)",
        "sum(i,1,n,(4*i-3)/(i*(2*i-1)))",
    ):
        e = parse(src)
        res = compile(e)
        for k in range(res.lam, res.lam + 40):
            assert evaluate(e, k) == \
                eval_field(res.tower, res.spec, res.elem, k), (src, k)


def test_compile_is_deterministic():
    a = compile(parse(FLAGSHIP))
    b = compile(parse(FLAGSHIP))
    assert a.elem == b.elem and a.lam == b.lam
    assert [g.name for g in a.tower.gens] == [g.name for g in b.tower.gens]
    assert to_src(reinterpret(a.tower, a.spec, a.elem)) == \
        to_src(reinterpret(b.tower, b.spec, b.elem))


def test_compile_rejects_illegal_product():
    # alpha = -1 passes the check at power 1, but sigma(g) = g at power 2
    # has the solution g = 1, whatever the search's atom power
    spec = ProductSpec("p", RatFunc.from_const(Fraction(-1)))
    for power in (6, 1, 0):
        with pytest.raises(UnsupportedShape, match="not a legal product-like"):
            compile(parse("prod(t,1,n,-1)^2"), products=(spec,),
                    max_atom_power=power)


def test_compile_starts_cold(monkeypatch):
    # no solve is carried from one compile to the next, so the second
    # compile of the same input does the same work as the first
    calls = []
    solve = nsopt.telescope.solve_first_order

    def counted(*args):
        calls[-1] += 1
        return solve(*args)

    monkeypatch.setattr(nsopt.telescope, "solve_first_order", counted)
    e = parse("sum(i,1,n,sum(j,1,i,1/(j+2))*1/(i+1))")
    for _ in range(2):
        calls.append(0)
        compile(e)
    assert calls[0] == calls[1] > 0


# -- reinterpret --------------------------------------------------------------


def test_reinterpret_harmonic():
    res = compile(parse("H(n)"))
    out = reinterpret(res.tower, res.spec, res.elem)
    assert to_src(out) == "sum(i1,1,n,1/i1)"
    assert to_src(out, h_sugar=True) == "H(n)"


def test_reinterpret_depth_matches_element_depth():
    for src in (FLAGSHIP, "sum(l,1,n,H(l)/l)", "H(n)",
                "sum(i,2,n,sum(j,2,i,1/(j*(2*j-1)))/i)"):
        res = compile(parse(src))
        out = reinterpret(res.tower, res.spec, res.elem)
        assert expr_depth(out) == depth(res.tower, res.elem), src


def test_reinterpret_values_and_roundtrip():
    e = parse(FLAGSHIP)
    res = compile(e)
    out = reinterpret(res.tower, res.spec, res.elem)
    # the printed output parses back to the identical tree
    assert parse(to_src(out)) == out
    for k in range(0, 30):
        assert evaluate(out, k) == evaluate(e, k)


def test_reinterpret_rejects_generator_denominator():
    t, h = harmonic_tower()
    with pytest.raises(NotPolynomialPart):
        reinterpret(t, EvalSpec(), ONE / h)


def test_end_to_end_depth_never_increases():
    for src in (FLAGSHIP, "H(n)", "sum(l,1,n,H(l)/l)",
                "sum(i,1,n,(4*i-3)/(i*(2*i-1)))"):
        e = parse(src)
        res = compile(e)
        out = reinterpret(res.tower, res.spec, res.elem)
        assert expr_depth(out) <= expr_depth(e), src
