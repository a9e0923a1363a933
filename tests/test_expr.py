"""Surface language: parsing, printing, evaluation, compile, reinterpret."""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

import nsopt.expr
import nsopt.telescope
from nsopt.algebra import Poly, RatFunc
from nsopt.cli import main
from nsopt.dfield import NotPolynomialPart, Tower, TowerElem, depth, sigma
from nsopt.expr import (
    Base,
    Const,
    EvalSpec,
    Evaluator,
    ParseError,
    Plus,
    Power,
    Prod,
    ProductSpec,
    ScopeError,
    Sum,
    Times,
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
    _fraction,
    _leaf,
    _plus,
    _power,
    _times,
)
from nsopt.telescope import UnsupportedShape

from conftest import X, ONE, harmonic_tower, nested_tower, rand_fraction, run_python

FLAGSHIP = "sum(r,1,n,(sum(l,1,r,(H(l)^2+H(2,l))/l)+sum(l,1,r,H(l)/l))/r)"

HALF = Fraction(1, 2)


def rf(num, den=(1,)):
    return RatFunc(Poly.from_ints(*num), Poly.from_ints(*den))


def harm(n, o=1):
    return sum(Fraction(1, k**o) for k in range(1, n + 1))


# -- syntax nodes -------------------------------------------------------------


def test_syntax_node_hashes_once(monkeypatch):
    e = parse("sum(i,1,n,sum(j,1,i,1/(j+2))*1/(i+1))")
    assert isinstance(e, Sum)
    calls = [0]
    rf_hash = RatFunc.__hash__

    def counted(self):
        calls[0] += 1
        return rf_hash(self)

    monkeypatch.setattr(RatFunc, "__hash__", counted)
    h = hash(e)
    assert hash(e) == h and {e: 1}[e] == 1
    assert calls[0] == 0
    # building a node hashes its leaf, so the counter counts; equal nodes
    # hash alike
    leaf = Base(rf((1,), (2, 1)), "j")
    assert calls[0] == 1
    assert hash(leaf) == hash(Base(rf((1,), (2, 1)), "j"))


def test_syntax_nodes_compare_by_type_and_fields():
    a = Base(rf((0, 1)), "i")
    b = Base(rf((1,), (1, 1)), "i")
    assert Plus((a, b)) == Plus((a, b))
    assert Plus((a, b)) != Times((a, b))
    assert Plus((a, b)) != Plus((b, a))
    assert Sum("i", 1, "n", a) != Prod("i", 1, "n", a)
    assert Sum("i", 1, "n", a) != Sum("i", 2, "n", a)
    assert len({Sum("i", 1, "n", a), Prod("i", 1, "n", a), Sum("i", 1, "n", a)}) == 2


def test_syntax_nodes_are_immutable():
    e = Const(Fraction(1, 2))
    with pytest.raises(AttributeError):
        e.value = Fraction(1)
    with pytest.raises(AttributeError):
        del e.value
    with pytest.raises(AttributeError):
        e.extra = 1
    assert e.value == HALF
    f = parse("sum(i,1,n,1/(i+1))")
    assert copy.deepcopy(f) == f and pickle.loads(pickle.dumps(f)) == f


def test_syntax_node_repr_names_class_and_fields():
    assert repr(Const(HALF)) == "Const(value=Fraction(1, 2))"
    s = repr(Sum("i", 1, "n", Const(HALF)))
    assert s == "Sum(idx='i', lower=1, upper='n', body=Const(value=Fraction(1, 2)))"


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


def test_parse_keeps_a_power_past_the_degree_limit():
    # a leaf's power folds only up to degree 500; past it the power stays a
    # node, so (n+1)^100000 is never expanded, and it still evaluates
    leaf, inv = parse("n+1"), parse("1/(n+1)")
    assert isinstance(parse("(n+1)^500"), Base)
    assert isinstance(parse("(n^2+1)^250"), Base)
    assert parse("(n+1)^501") == Power(leaf, 501)
    assert parse("(n^2+1)^251") == Power(parse("n^2+1"), 251)
    assert parse("1/(n+1)^100000") == Power(inv, 100000)
    assert parse("2/(n+1)^501") == Times((Const(Fraction(2)), Power(inv, 501)))
    for src in ("(n+1)^100000", "1/(n+1)^501", "3*(n+1)^600 - 1/(n^2+1)^300"):
        e = parse(src)
        assert parse(to_src(e)) == e
    assert evaluate(parse("(n+1)^100000"), 2) == 3**100000
    assert evaluate(parse("1/(n+1)^501"), 3) == Fraction(1, 4**501)
    # compile refuses both, in a child killed at a bound, so a refusal that
    # stops refusing fails here instead of hanging the suite
    refuse = (
        "import sys\n"
        "from nsopt.algebra import RootSearchLimit\n"
        "from nsopt.expr import compile, parse\n"
        "for src in sys.argv[1:]:\n"
        "    try:\n"
        "        compile(parse(src))\n"
        "    except RootSearchLimit as exc:\n"
        "        print(exc)\n"
    )
    code, out, err = run_python(
        ["-c", refuse, "sum(i,1,n,(i+1)^100000)", "sum(i,1,n,prod(t,1,i,t^600))"],
        timeout=10,
    )
    assert (code, err) == (0, "")
    assert out == (
        "degree 100000 past the limit of 500\n"
        "degree 600 past the limit of 500\n"
    )


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


class _FractionEvaluator:
    """The recursive Fraction evaluator that the compiled Evaluator
    replaced, kept here as its reference: one Fraction operation per node
    visit, the same prefix memo for bodies in their own index only, poles
    zero, empty sums zero and empty products one."""

    def __init__(self):
        self._prefix = {}

    def eval(self, e, env):
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
        ub = int(env[e.upper])
        empty = Fraction(0) if isinstance(e, Sum) else Fraction(1)
        if ub < e.lower:
            return empty
        if _free_vars(e.body) <= {e.idx}:
            vals = self._prefix.setdefault(e, [])
            while len(vals) <= ub - e.lower:
                prev = vals[-1] if vals else empty
                step = self.eval(e.body, {e.idx: Fraction(e.lower + len(vals))})
                vals.append(prev + step if isinstance(e, Sum) else prev * step)
            return vals[ub - e.lower]
        out = empty
        for k in range(e.lower, ub + 1):
            val = self.eval(e.body, {**env, e.idx: Fraction(k)})
            out = out + val if isinstance(e, Sum) else out * val
        return out


def _free_vars(e):
    if isinstance(e, Const):
        return set()
    if isinstance(e, Base):
        return {e.var}
    if isinstance(e, (Plus, Times)):
        return set().union(*map(_free_vars, e.terms if isinstance(e, Plus) else e.factors))
    if isinstance(e, Power):
        return _free_vars(e.base)
    return (_free_vars(e.body) - {e.idx}) | {e.upper}


def _differential_inputs():
    """SWEEP_INPUTS, the seven acceptance fixtures with their compiled
    outputs, and 200 seeded random trees."""
    import test_acceptance as acc

    out = [parse(src) for src in SWEEP_INPUTS]
    products = (ProductSpec("b", acc.BINOM_RATIO, 1),)
    for name in ("FLAGSHIP", "A4", "A5", "B_DEPTH7", "BINOM_A1", "BINOM_A2", "BINOM_B"):
        e = parse(getattr(acc, name))
        res = compile(e, products=products if name.startswith("BINOM") else ())
        out += [e, reinterpret(res.tower, res.spec, res.elem)]
    rng = random.Random(18)
    out += [_rand_expr(rng, ["n"], 3) for _ in range(200)]
    return out


def _same(got, want):
    return type(got) is Fraction and got == want and str(got) == str(want)


def test_evaluator_matches_recursive_fraction_evaluator():
    for e in _differential_inputs():
        for start in (0, 4):
            ev, ref = Evaluator(), _FractionEvaluator()
            for k in range(start, start + 10):
                got, want = evaluate(e, k, ev), ref.eval(e, {"n": Fraction(k)})
                assert _same(got, want), (to_src(e), start, k)
        for k in range(8):
            got, want = evaluate(e, k), _FractionEvaluator().eval(e, {"n": Fraction(k)})
            assert _same(got, want), (to_src(e), k)


@pytest.mark.parametrize("src", ["1/(n+1)", "sum(i,1,n,i)", "sum(i,1,n,(n+i)/i)"])
def test_evaluator_refuses_a_non_integral_index(src):
    with pytest.raises(ValueError):
        evaluate(parse(src), Fraction(5, 2))
    with pytest.raises(ValueError):
        Evaluator().eval(parse(src), {"n": Fraction(7, 3)})


def test_canonical_pair_fraction_equals_public_constructor():
    # Evaluator.eval wraps its canonical pairs without Fraction's gcd
    rng = random.Random(20)
    pairs = [(0, 1), (1, 1), (-1, 1), (-7, 1), (-1, 2)]
    for _ in range(500):
        d = rng.choice((1, rng.randint(1, 10**20)))
        f = Fraction(rng.randint(-10**20, 10**20), d)
        pairs.append((f.numerator, f.denominator))
    for n, d in pairs:
        got, want = _fraction(n, d), Fraction(n, d)
        assert _same(got, want) and hash(got) == hash(want), (n, d)
        assert (got.numerator, got.denominator) == (n, d)
        assert got + HALF == want + HALF


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


def test_eval_field_is_printed_form_value():
    # poles included: 1/(x - 2) zeroes only its own term at k = 2
    t, h = harmonic_tower()
    spec = EvalSpec()
    f = h + ONE / (X - 2)
    out = reinterpret(t, spec, f)
    for k in range(0, 11):
        assert eval_field(t, spec, f, k) == evaluate(out, k)
    assert eval_field(t, spec, f, 2) == harm(2)


def test_spec_owns_the_unfolding_and_the_evaluator(monkeypatch):
    # a second eval_field over the same tower and spec unfolds no
    # generator again: the spec keeps each generator's printed form
    t, h, s = nested_tower()
    spec = EvalSpec()
    f = h * s + s / (X + 1)
    unfolded, real_sigma = [], nsopt.expr.sigma

    def counting_sigma(*args):
        unfolded.append(args)
        return real_sigma(*args)

    monkeypatch.setattr(nsopt.expr, "sigma", counting_sigma)
    first = eval_field(t, spec, f, 6)
    assert unfolded
    unfolded.clear()
    assert eval_field(t, spec, f, 7) != first
    assert eval_field(t, spec, f, 6) == first
    assert unfolded == []
    monkeypatch.undo()

    # and one compile evaluates through one Evaluator, the spec's
    built = []

    class CountingEvaluator(Evaluator):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(nsopt.expr, "Evaluator", CountingEvaluator)
    compile(parse("sum(r,1,n,sum(l,1,r,H(l)/l)/r) + prod(k,1,n,2)"),
            products=(ProductSpec("p", RatFunc.from_const(Fraction(2))),))
    assert len(built) == 1


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


def test_compile_rejects_illegal_product(monkeypatch):
    # alpha = -1 passes the check at power 1, but sigma(g) = g at power 2
    # has the solution g = 1, whatever the search's atom power
    spec = ProductSpec("p", RatFunc.from_const(Fraction(-1)))
    for power in (6, 1, 0):
        monkeypatch.setattr(nsopt.telescope, "_MAX_ATOM_POWER", power)
        with pytest.raises(UnsupportedShape, match="not a legal product-like"):
            compile(parse("prod(t,1,n,-1)^2"), products=(spec,))


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


# `simplify --json --verify-range 2` reports of inputs that repeat a sum
# body.  A repeated body compiles again, and its shifted summand then
# solves in the tower the first occurrence grew: that answer is unique up
# to a constant, which the telescoper drops, so the report is the same as
# when the body is telescoped once
REPEATED_BODY_REPORTS = {
    "H(n)*H(n)": {
        "output_text": "sum(i1,1,n,1/i1)^2",
        "lambda": 0, "input_depth": 2,
        "output_depth": 2, "optimality_certified": True,
        "generators": [
            {"name": "h", "kind": "sigma", "shift_part": "1/(x + 1)", "depth": 2},
        ],
        "verification": [[0, "0", "0", True], [1, "1", "1", True], [2, "9/4", "9/4", True]],
    },
    "H(n)^2": {
        "output_text": "sum(i1,1,n,1/i1)^2",
        "lambda": 0, "input_depth": 2,
        "output_depth": 2, "optimality_certified": True,
        "generators": [
            {"name": "h", "kind": "sigma", "shift_part": "1/(x + 1)", "depth": 2},
        ],
        "verification": [[0, "0", "0", True], [1, "1", "1", True], [2, "9/4", "9/4", True]],
    },
    "sum(i,1,n,H(i))*sum(j,1,n,H(j))": {
        "output_text": "(n^2 + 2*n + 1)*sum(i1,1,n,1/i1)^2"
                       " + (-2*n^2 - 2*n)*sum(i1,1,n,1/i1) + n^2",
        "lambda": 0, "input_depth": 3,
        "output_depth": 2, "optimality_certified": True,
        "generators": [
            {"name": "h", "kind": "sigma", "shift_part": "1/(x + 1)", "depth": 2},
        ],
        "verification": [[0, "0", "0", True], [1, "1", "1", True], [2, "25/4", "25/4", True]],
    },
    "sum(i,1,n,H(i)/i)+sum(j,1,n,H(j)/j)": {
        "output_text": "sum(i1,1,n,1/i1)^2 + sum(i2,1,n,1/i2^2)",
        "lambda": 0, "input_depth": 3,
        "output_depth": 2, "optimality_certified": True,
        "generators": [
            {"name": "h", "kind": "sigma", "shift_part": "1/(x + 1)", "depth": 2},
            {"name": "h2", "kind": "sigma", "shift_part": "1/(x^2 + 2*x + 1)", "depth": 2},
        ],
        "verification": [[0, "0", "0", True], [1, "2", "2", True], [2, "7/2", "7/2", True]],
    },
}


@pytest.mark.parametrize("src", sorted(REPEATED_BODY_REPORTS))
def test_repeated_sum_bodies_keep_their_reports(src, capsys):
    assert main(["simplify", "--json", "--verify-range", "2", src]) == 0
    rep = json.loads(capsys.readouterr().out)
    want = dict(REPEATED_BODY_REPORTS[src])
    tower = {"base": "Q(x)", "shift": "x -> x + 1", "generators": want.pop("generators")}
    assert rep == {"input_text": src, **want, "tower_summary": tower}


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
