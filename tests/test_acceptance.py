"""End-to-end acceptance gates.

One test per shipping criterion; run with -v to get one pass/fail line
each.  Expected values are computed by independent Fraction loops (or
checked against hand-verified closed forms), never read back from the
engine.
"""

import json
import math
import random
import time
from fractions import Fraction

from nsopt.algebra import Poly, RatFunc
from nsopt.cli import main as cli_main
from nsopt.dfield import Tower, TowerElem, depth, monomials, sigma
from nsopt.expr import (
    EvalSpec,
    ProductSpec,
    compile,
    eval_field,
    evaluate,
    expr_depth,
    o_function,
    parse,
    reinterpret,
)
from nsopt.telescope import telescope_depth_optimal, telescope_tower

from conftest import harmonic_tower, nested_tower, rand_elem

# ---------------------------------------------------------------------------
# Fixture sources and value oracles
# ---------------------------------------------------------------------------

FLAGSHIP = "sum(r,1,n,(sum(l,1,r,(H(l)^2+H(2,l))/l)+sum(l,1,r,H(l)/l))/r)"

A4 = "sum(i,2,n,sum(j,2,i,(2*j-1)*sum(k,1,j,1/((2*k-3)*(2*k-1)))/((j-1)*j))/i)"
A5 = (
    "sum(i,3,n,sum(j,3,i,(2*j-1)*sum(k,3,j,(2*(k-2)*(k-1)*k*H(k)"
    "-(2*k-1)*(3*k^2-6*k+2))/((k-2)*(k-1)*k*(2*k-3)*(2*k-1)))/((j-1)*j))/i)"
)
_B_CORE = (
    "sum(r,3,l,-2*(2*r^6-27*r^5+117*r^4-254*r^3+398*r^2"
    "+2*(r-3)*(r-2)*(r-1)*(r+2)*H(r)*r-446*r+204)"
    "/((r-2)*(r-1)*r*(r^2-5*r+10)*(r^2-3*r+6)))"
)
B_DEPTH7 = (
    "sum(i,4,n,sum(j,4,i,(2*j-1)*sum(k,4,j,sum(l,4,k,(2*l-3)*(l^2-3*l+6)*"
    + _B_CORE
    + "/((l-3)*(l-2)*(l-1)*l))/((2*k-3)*(2*k-1)))/((j-1)*j))/i)"
)

BINOM_A1 = "sum(i,1,n,(4*i-3)/(i*(2*i-1)))"
BINOM_A2 = (
    "sum(i,2,n,(4*i-3)*sum(j,2,i,(64*j^4-288*j^3+468*j^2-323*j+84)"
    "/((j-1)*j*(2*j-3)*(4*j-7)*(4*j-3)))/(i*(2*i-1)))"
)
_B62_CORE = (
    "sum(k,1,j,-3*(2*k-3)*(2*k-1)*(4*k-7)*(576*k^6-5472*k^5+20980*k^4"
    "-41559*k^3+44882*k^2-25113*k+5760)*prod(t,1,k,t/(2*(2*t-1)))"
    "/(k*(64*k^4-544*k^3+1716*k^2-2379*k+1227)"
    "*(64*k^4-288*k^3+468*k^2-323*k+84)))"
)
BINOM_B = (
    "-sum(i,2,n,(4*i-3)*sum(j,2,i,(64*j^4-288*j^3+468*j^2-323*j+84)*"
    + _B62_CORE
    + "/((j-1)*j*(2*j-3)*(4*j-7)*(4*j-3)))/(i*(2*i-1)))"
)

# inverse central binomial: b(k) = 1/binom(2k,k), ratio (x+1)/(2(2x+1))
BINOM_RATIO = RatFunc(
    Poly((Fraction(1), Fraction(1))),
    Poly((Fraction(1, 2), Fraction(1))) * Poly.from_ints(4),
)


def _H(n, order=1):
    return sum((Fraction(1, k**order) for k in range(1, n + 1)), Fraction(0))


def _H2n(n, order=1):
    return sum((Fraction(1, k**order) for k in range(1, 2 * n + 1)), Fraction(0))


def _weighted_harmonic_sum(n):
    """sum_{k=1}^n H_k / k^2"""
    acc, h = Fraction(0), Fraction(0)
    for k in range(1, n + 1):
        h += Fraction(1, k)
        acc += h / Fraction(k * k)
    return acc


def _inv_binom_sum(n):
    """sum_{i=1}^n 1 / (i^2 binom(2i,i))"""
    return sum(
        (Fraction(1, i * i * math.comb(2 * i, i)) for i in range(1, n + 1)),
        Fraction(0),
    )


def rhs_a4(n):
    return (_H(n, 2) - _H(n) ** 2) / 2


def rhs_a5(n):
    return (-_H(n) ** 2 + 2 * _H(n, 2) * _H(n) - _H(n)) / 2


def rhs_b7(n):
    h, h2, h4 = _H(n), _H(n, 2), _H(n, 4)
    return (
        Fraction(1, 24) * h**2
        - 2 * h * _weighted_harmonic_sum(n)
        + Fraction(16, 3) * h
        - Fraction(1, 2) * h2**2
        + (h / 2 - Fraction(69, 24)) * h2
        - Fraction(1, 2) * h4
    )


def rhs_binom_a1(n):
    return 2 * (2 * _H(n) - _H2n(n))


def rhs_binom_a2(n):
    h, g = _H(n), _H2n(n)
    return 2 * (4 * h**2 + 4 * h + g**2 + (-4 * h - 2) * g - _H2n(n, 2))


def rhs_binom_b(n):
    h, g = _H(n), _H2n(n)
    return Fraction(3, 14) * (
        44 * h**2
        + 16 * h
        + 11 * g**2
        - (44 * h + 8) * g
        - 11 * _H2n(n, 2)
        + 14 * _inv_binom_sum(n)
    )


def run_cli(argv, capsys):
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def rf(n, d=1):
    np = Poly.from_ints(*n) if isinstance(n, tuple) else Poly.from_ints(n)
    dp = Poly.from_ints(*d) if isinstance(d, tuple) else Poly.from_ints(d)
    return RatFunc(np, dp)


# ---------------------------------------------------------------------------
# 1. Flagship: depth 4 -> 2, exact canonical form, lambda 0, < 5 s
# ---------------------------------------------------------------------------


def test_criterion_1_flagship(capsys):
    t0 = time.monotonic()

    e = parse(FLAGSHIP)
    res = compile(e)
    assert res.tower.names() == ["h", "h2", "h3", "h4"]
    h, h2, h3, h4 = (TowerElem.gen(i) for i in range(4))
    expected = (
        h**4 + 2 * h**3 + 6 * (h + 1) * h2 * h + 3 * h2**2 + (8 * h + 4) * h3 + 6 * h4
    ) * Fraction(1, 12)
    assert res.elem == expected  # term for term in (h, h2, h3, h4)
    assert res.lam == 0
    assert res.optimality_certified

    code, out, _ = run_cli(
        ["simplify", FLAGSHIP, "--verify-range", "100", "--json"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["input_depth"] == 4
    assert rep["output_depth"] == 2
    assert rep["lambda"] == 0
    assert len(rep["verification"]) == 101
    assert all(entry[3] is True for entry in rep["verification"])

    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. Telescoping fixtures, with and without tower growth, < 1 s each
# ---------------------------------------------------------------------------


def test_criterion_2_telescoping_fixtures():
    # g = 2s - h^2 for 1/(x+1)^2, inside the nested tower (no growth)
    t0 = time.monotonic()
    tower, h, s = nested_tower()
    f = TowerElem.base(rf(1, (1, 2, 1)))
    r = telescope_tower(tower, f)
    assert r.solved
    assert (r.g - (2 * s - h * h)).is_constant()
    assert time.monotonic() - t0 < 1.0

    # sum of sigma(h)/(x+1) = (h^2 + h2)/2, growing by h2
    t0 = time.monotonic()
    tower, h = harmonic_tower()
    f = sigma(tower, h) * TowerElem.base(rf(1, (1, 1)))
    r = telescope_depth_optimal(tower, f)
    assert r.solved and r.optimality_certified
    assert r.adjoined == ("h2",)
    h2 = TowerElem.gen(1)
    assert (r.g - (h * h + h2) * Fraction(1, 2)).is_constant()
    assert time.monotonic() - t0 < 1.0

    # sum of sigma(h^2 + h2)/(x+1) = (h^3 + 3 h h2 + 2 h3)/3, growing by h3
    t0 = time.monotonic()
    grown = r.tower
    f = sigma(grown, h * h + h2) * TowerElem.base(rf(1, (1, 1)))
    r = telescope_depth_optimal(grown, f)
    assert r.solved and r.optimality_certified
    assert r.adjoined == ("h3",)
    h3 = TowerElem.gen(2)
    assert (r.g - (h**3 + 3 * h * h2 + 2 * h3) * Fraction(1, 3)).is_constant()
    assert time.monotonic() - t0 < 1.0

    # harmonic summand: no solution over Q(x) alone
    t0 = time.monotonic()
    r = telescope_tower(Tower(), TowerElem.base(rf(1, (1, 1))))
    assert not r.solved
    assert time.monotonic() - t0 < 1.0

    # sigma(h)/(x+1) has no solution without growing past (h)
    t0 = time.monotonic()
    tower, h = harmonic_tower()
    f = sigma(tower, h) * TowerElem.base(rf(1, (1, 1)))
    r = telescope_tower(tower, f)
    assert not r.solved
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3. Triangular double-sum fixtures at depths 4, 5, 7
# ---------------------------------------------------------------------------


def test_criterion_3_triangular_fixtures():
    for src, d_in, oracle in (
        (A4, 4, rhs_a4),
        (A5, 5, rhs_a5),
    ):
        e = parse(src)
        assert expr_depth(e) == d_in
        res = compile(e)
        out = reinterpret(res.tower, res.spec, res.elem)
        assert expr_depth(out) == 2
        assert res.optimality_certified
        for n in range(0, 61):
            v = evaluate(out, n)
            assert v == oracle(n), (src, n)
            assert evaluate(e, n) == v, (src, n)

    e = parse(B_DEPTH7)
    assert expr_depth(e) == 7
    res = compile(e)
    out = reinterpret(res.tower, res.spec, res.elem)
    assert expr_depth(out) == 3

    # the depth-3 answer must run through the weighted harmonic generator
    # sum_{k} H_k / k^2, i.e. some generator's shift part is
    # sigma(h / x^2) = h/(x+1)^2 + 1/(x+1)^3
    ih = res.tower.names().index("h")
    target_found = False
    weight = TowerElem.base(rf(1, (0, 0, 1)))
    for i, g in enumerate(res.tower.gens):
        if g.kind != "sigma" or i <= ih:
            continue
        prefix = res.tower.prefix(i)
        if g.shift_part == sigma(prefix, TowerElem.gen(ih) * weight):
            target_found = True
    assert target_found

    for n in range(0, 61):
        v = evaluate(out, n)
        assert v == rhs_b7(n), n
        assert evaluate(e, n) == v, n


# ---------------------------------------------------------------------------
# 4. Central-binomial fixtures over the product generator b
# ---------------------------------------------------------------------------


def test_criterion_4_binomial_fixtures():
    products = (ProductSpec("b", BINOM_RATIO, 1),)

    for src, oracle in ((BINOM_A1, rhs_binom_a1), (BINOM_A2, rhs_binom_a2)):
        e = parse(src)
        res = compile(e, products=products)
        out = reinterpret(res.tower, res.spec, res.elem)
        assert expr_depth(out) == 2
        assert depth(res.tower, res.elem) == 2
        assert res.optimality_certified
        for n in range(0, 61):
            v = evaluate(out, n)
            assert v == oracle(n), (src, n)
            assert evaluate(e, n) == v, (src, n)

    # stretch fixture: must complete; certification may honestly fail, in
    # which case the fallback result still has to evaluate exactly
    e = parse(BINOM_B)
    res = compile(e, products=products)
    out = reinterpret(res.tower, res.spec, res.elem)
    assert res.lam == 0
    assert expr_depth(out) == 3
    for n in range(0, 61):
        v = evaluate(out, n)
        assert v == rhs_binom_b(n), n
        assert evaluate(e, n) == v, n


# ---------------------------------------------------------------------------
# 5. Property suites
# ---------------------------------------------------------------------------


def test_criterion_5_property_suites():
    rng = random.Random(20240817)

    # shift automorphism: sigma then sigma^-1 is the identity
    tower, h, s = nested_tower()
    for _ in range(1000):
        e = rand_elem(rng, tower)
        assert sigma(tower, sigma(tower, e, -1)) == e

    # telescoping battery: residual, depth bounds, polynomial closure
    # towers here are depth-optimally presented, which is what the depth
    # bound presumes (and what the compiler always produces)
    battery = []
    battery.append((Tower(), TowerElem.base(rf(1, (0, 1, 1)))))  # 1/(x(x+1))
    battery.append((Tower(), TowerElem.base(rf(1, (1, 1)))))  # grows by h
    battery.append((Tower(), TowerElem.base(rf(1, (1, 2, 1)))))  # grows by h2
    ht, hh = harmonic_tower()
    battery.append((ht, sigma(ht, hh) * TowerElem.base(rf(1, (1, 1)))))
    for _ in range(10):
        num = Poly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(3)))
        den = Poly.from_ints(1, 1) * Poly.from_ints(rng.randint(1, 5), 1)
        if num.is_zero():
            continue
        battery.append((Tower(), TowerElem.base(RatFunc(num, den))))

    for tw, f in battery:
        res = telescope_depth_optimal(tw, f)
        if not res.solved:
            continue
        assert sigma(res.tower, res.g) - res.g - f == 0  # exact residual
        df, dg = depth(res.tower, f), depth(res.tower, res.g)
        assert df <= dg <= df + 1
        # f lies in the monomial class, and so must g: neither raises
        monomials(res.tower, f)
        monomials(res.tower, res.g)

    # evaluation respects + and * and shifts once past the o-bound, over
    # elements whose denominators stay at the base (the evaluable class
    # the solver and compiler produce)
    tower, h, s = nested_tower()
    spec = EvalSpec()

    def rand_polypart():
        acc = TowerElem.const(Fraction(rng.randint(-4, 4)))
        for _ in range(rng.randint(1, 3)):
            num = Poly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(2)))
            den = Poly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(2)))
            if num.is_zero() or den.is_zero():
                continue
            term = TowerElem.base(RatFunc(num, den))
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice((h, s))
            acc = acc + term
        return acc

    for _ in range(500):
        f = rand_polypart()
        g = rand_polypart()
        j = rng.randint(-2, 2)
        L = max(o_function(tower, spec, f), o_function(tower, spec, g))
        k = L + max(0, -j) + rng.randint(0, 3)
        fv = eval_field(tower, spec, f, k)
        gv = eval_field(tower, spec, g, k)
        assert eval_field(tower, spec, f + g, k) == fv + gv
        assert eval_field(tower, spec, f * g, k) == fv * gv
        assert eval_field(tower, spec, sigma(tower, f, j), k) == eval_field(
            tower, spec, f, k + j
        )

    # reinterpretation preserves depth on all compiled fixtures
    fixtures = [
        (FLAGSHIP, ()),
        (A4, ()),
        (A5, ()),
        (B_DEPTH7, ()),
        (BINOM_A1, (ProductSpec("b", BINOM_RATIO, 1),)),
        (BINOM_A2, (ProductSpec("b", BINOM_RATIO, 1),)),
    ]
    for src, products in fixtures:
        res = compile(parse(src), products=products)
        out = reinterpret(res.tower, res.spec, res.elem)
        assert expr_depth(out) == depth(res.tower, res.elem), src


# ---------------------------------------------------------------------------
# 6. Base-solver completeness against brute force
# ---------------------------------------------------------------------------


def _nullspace_basis(rows, ncols):
    """Basis of the right nullspace of a Fraction matrix (local, naive)."""
    m = [row[:] for row in rows]
    pivots = {}
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                fac = m[i][c]
                m[i] = [a - fac * b for a, b in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for pc, pr in pivots.items():
            vec[pc] = -m[pr][c]
        basis.append(vec)
    return basis


def _rational_fit_exists(points, deg=8):
    """Is there p/q with deg p, deg q <= deg matching all (n, v) pairs?"""
    ncols = 2 * (deg + 1)
    rows = []
    for n, v in points:
        pw = [Fraction(n) ** i for i in range(deg + 1)]
        rows.append(pw + [-v * w for w in pw])
    basis = _nullspace_basis(rows, ncols)
    rng = random.Random(5)
    combos = [b[:] for b in basis]
    for _ in range(3):
        if len(basis) > 1:
            combo = [
                sum((Fraction(rng.randint(1, 9)) * b[i] for b in basis), Fraction(0))
                for i in range(ncols)
            ]
            combos.append(combo)
    for vec in combos:
        q = vec[deg + 1 :]
        if all(v == 0 for v in q):
            continue
        ok = True
        for n, v in points:
            qv = sum((q[i] * Fraction(n) ** i for i in range(deg + 1)), Fraction(0))
            if qv == 0:
                ok = False
                break
        if ok:
            return True  # the cross-multiplied fit holds by construction
    return False


def test_criterion_6_base_solver_completeness():
    rng = random.Random(61)

    # exact telescopers of planted solutions, recovered up to a constant
    done = 0
    while done < 200:
        num = Poly(tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))))
        den = Poly(tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))))
        if num.is_zero() or den.is_zero():
            continue
        w = RatFunc(num, den)
        f = w.shift(1) - w
        if f.is_zero():
            continue
        res = telescope_tower(Tower(), TowerElem.base(f))
        assert res.solved
        assert (res.g.rf - w).is_constant()
        done += 1

    # certified failures really are not summable in closed rational form:
    # their partial sums admit no low-degree rational interpolation
    checked = 0
    while checked < 50:
        num = Poly(tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))))
        den = Poly(tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 4))))
        if num.is_zero() or den.degree < 1:
            continue
        w = RatFunc(num, den)
        if w.den.degree < 1:
            continue
        if any(w.den.eval_at(Fraction(k)) == 0 for k in range(0, 42)):
            continue
        res = telescope_tower(Tower(), TowerElem.base(w))
        if res.solved:
            continue
        acc = Fraction(0)
        points = []
        for n in range(0, 41):
            acc += w.eval_at(Fraction(n))
            points.append((n, acc))
        assert not _rational_fit_exists(points, deg=8)
        checked += 1
