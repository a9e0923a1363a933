"""First-order solver and telescoping, base field and towers."""

import json
import random
from fractions import Fraction

import pytest

from nsopt.algebra import Poly, RatFunc
from nsopt.dfield import (
    Generator,
    Tower,
    TowerElem,
    _adjoin_sigma_star_unchecked,
    depth,
    sigma,
)
import nsopt.cli
import nsopt.telescope
from nsopt.expr import _prune_tower
from nsopt.telescope import (
    DepthOptResult,
    NotYetSupported,
    PiCriterionFails,
    ResidualCheckFailed,
    UnsupportedShape,
    _atoms,
    _shift_gcd_candidates,
    _solve_by_slots,
    adjoin_pi,
    homogeneous_first_order,
    solve_first_order,
    telescope_depth_optimal,
    telescope_tower,
    universal_denominator,
)

from conftest import X, ONE, harmonic_tower, nested_tower


def rf(num, den=(1,)):
    return RatFunc(Poly.from_ints(*num), Poly.from_ints(*den))


# -- base engine --------------------------------------------------------------


def test_universal_denominator_chain():
    # telescoping with rhs 1/(x(x+1)) clears to a = x(x+1), b = -x(x+1);
    # the bound must cover the pole of the known solution -1/x
    e = Poly.from_ints(0, 1) * Poly.from_ints(1, 1)
    D = universal_denominator(e, -e, _atoms(e), _atoms(-e))
    assert D % Poly.from_ints(0, 1) == Poly(())


def test_dispersion_beyond_a_fixed_window():
    # E = (x^2+1)((x+45)^2+1): E(x-1) and E(x) share a factor at shift 44
    q = Poly.from_ints(1, 0, 1)
    E = q * q.shift(45)
    assert _shift_gcd_candidates(_atoms(E.shift(-1)), _atoms(E)) == {44}
    # (-90x - 2025)/E telescopes: it is u(x+1) - u(x) with u = 1/(x^2+1)
    # summed over the 45 shifts between the two factors
    f = RatFunc(Poly.from_ints(-2025, -90), E)
    res = telescope_tower(Tower(), TowerElem.base(f))
    assert res.solved


def test_telescope_sum_of_shifts():
    # f = 1/(x(x+1)) telescopes with g = -1/x
    f = rf((1,), (0, 1)) * rf((1,), (1, 1))
    res = telescope_tower(Tower(), TowerElem.base(f))
    assert res.solved
    assert res.g.rf == -rf((1,), (0, 1))


def test_residual_check_raises(monkeypatch):
    # a rational f is solved in Q(x), where the residual check is the only
    # user of nsopt.telescope.sigma, so no broken solve gets cached
    monkeypatch.setattr(
        nsopt.telescope, "sigma", lambda tower, g: sigma(tower, g) + ONE
    )
    f = TowerElem.base(rf((1,), (0, 1)) * rf((1,), (1, 1)))
    with pytest.raises(ResidualCheckFailed):
        telescope_tower(Tower(), f)


def test_uncleared_right_hand_side_raises(monkeypatch):
    # with the common denominator broken, 1/x is left uncleared
    monkeypatch.setattr(nsopt.telescope, "poly_lcm", lambda a, b: a)
    with pytest.raises(ArithmeticError):
        solve_first_order(rf((1,)), [rf((1,), (0, 1))])


def test_right_hand_side_outside_tower_raises():
    _, h = harmonic_tower()
    with pytest.raises(ValueError):
        telescope_tower(Tower(), h)


def test_harmonic_summand_is_refuted():
    res = telescope_tower(Tower(), TowerElem.base(rf((1,), (1, 1))))
    assert not res.solved
    res2 = telescope_tower(Tower(), TowerElem.base(rf((1,), (1, 2, 1))))  # 1/(x+1)^2
    assert not res2.solved


def test_random_telescopable(seed=3001, count=40):
    rng = random.Random(seed)
    t0 = Tower()
    done = 0
    while done < count:
        num = Poly(tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))))
        den = Poly.from_ints(rng.randint(-3, 3), 1)
        if num.is_zero():
            continue
        w = TowerElem.base(RatFunc(num, den))
        f = sigma(t0, w) - w
        if f.is_zero():
            continue
        res = telescope_tower(Tower(), f)
        assert res.solved
        diff = res.g - w
        assert diff.level == 0 and diff.rf.is_constant()
        done += 1


def test_homogeneous_first_order():
    # sigma(w) * x/(x+2) = w  <=>  sigma(w)/w = (x+2)/x: w = x(x+1)
    gamma = rf((0, 1), (2, 1))
    w = homogeneous_first_order(gamma)
    assert w is not None
    assert w.shift(1) * gamma == w
    # and gamma = 2 has no rational eigenfunction
    assert homogeneous_first_order(rf((2,))) is None


def test_solve_first_order_parameterized():
    # sigma(u) - u = c1*(1/(x(x+1))) + c2*(1/(x+1)): only c2 = 0 works
    phis = [rf((1,), (0, 1)) * rf((1,), (1, 1)), rf((1,), (1, 1))]
    basis = solve_first_order(rf((1,)), phis)
    for u, c in basis:
        assert c[1] == 0
    assert any(c[0] != 0 for _, c in basis)
    # the constant solution (u=1, c=0) is present
    assert any(u.is_constant() and not u.is_zero() and c == (0, 0) for u, c in basis)


# -- towers -------------------------------------------------------------------


def test_tower_fixture_two_s_minus_h_squared():
    t2, h, s = nested_tower()
    f = ONE / ((X + 1) * (X + 1))
    res = telescope_tower(t2, f)
    assert res.solved
    assert res.g == 2 * s - h * h


def test_tower_refutations():
    t1, h = harmonic_tower()
    assert not telescope_tower(Tower(), ONE / (X + 1)).solved
    assert not telescope_tower(t1, sigma(t1, h) / (X + 1)).solved


def test_unsupported_shape_denominator():
    t1, h = harmonic_tower()
    with pytest.raises(UnsupportedShape):
        telescope_tower(t1, ONE / h)


def test_depth_optimal_s_prime():
    t1, h = harmonic_tower()
    res = telescope_depth_optimal(t1, sigma(t1, h) / (X + 1))
    assert res.solved and res.optimality_certified
    assert res.tower.names() == ["h", "h2"]
    assert res.adjoined == ("h2",)
    h2 = TowerElem.gen(1)
    assert res.g == (h * h + h2) / 2
    assert depth(res.tower, res.g) == 2


def test_depth_optimal_t_prime_and_top():
    t1, h = harmonic_tower()
    r2 = telescope_depth_optimal(t1, sigma(t1, h) / (X + 1))
    T2, sp = r2.tower, r2.g
    h2 = TowerElem.gen(1)

    f4 = sigma(T2, h * h + h2) / (X + 1)
    r4 = telescope_depth_optimal(T2, f4)
    T3, tp = r4.tower, r4.g
    h3 = TowerElem.gen(2)
    assert r4.adjoined == ("h3",)
    assert tp == (h ** 3 + 3 * h * h2 + 2 * h3) / 3

    f5 = sigma(T3, tp + sp) / (X + 1)
    r5 = telescope_depth_optimal(T3, f5)
    T4, ap = r5.tower, r5.g
    h4 = TowerElem.gen(3)
    assert r5.adjoined == ("h4",)
    expected = (
        h ** 4 + 2 * h ** 3 + 6 * (h + 1) * h2 * h + 3 * h2 ** 2 + (8 * h + 4) * h3 + 6 * h4
    ) / 12
    assert ap == expected
    assert T4.names() == ["h", "h2", "h3", "h4"]
    assert depth(T4, ap) == 2


def test_depth_bounds_on_solved():
    # delta(f) <= delta(g) <= delta(f) + 1 for depth-optimal results
    t1, h = harmonic_tower()
    cases = [
        (Tower(), ONE / (X + 1)),
        (t1, sigma(t1, h) / (X + 1)),
        (t1, sigma(t1, h * h) / (X + 1)),
    ]
    for tower, f in cases:
        res = telescope_depth_optimal(tower, f)
        assert res.solved
        df = depth(tower, f)
        dg = depth(res.tower, res.g)
        assert df <= dg <= df + 1


def test_depth_optimal_fallback_uncertified(monkeypatch):
    # with the candidate family cut down to nothing useful, the search must
    # still terminate by adjoining the input itself
    monkeypatch.setattr(nsopt.telescope, "_MAX_ATOM_POWER", 1)
    t1, h = harmonic_tower()
    f = sigma(t1, h) / (X + 1)
    res = telescope_depth_optimal(t1, f)
    assert res.solved
    assert not res.optimality_certified
    assert len(res.adjoined) == 1
    new = res.tower.gens[-1]
    assert new.shift_part == f
    assert new.depth == depth(t1, f) + 1


def test_depth_optimal_base_fallback_is_certified():
    # over Q(x) the base engine is complete, so the naive adjunction is
    # simultaneously the depth-optimal one
    res = telescope_depth_optimal(Tower(), ONE / (X + 1))
    assert res.solved and res.optimality_certified
    assert res.adjoined == ("h",)
    assert res.g == TowerElem.gen(0)


def test_search_shifts_each_atom_power_once_per_pass(monkeypatch):
    # the candidates sigma(x^j/atom^e), j < 4, of a quartic atom share one
    # shifted denominator; the search over 1/((x+1)^4+2) ends in the
    # fallback after two passes over every e
    atom = Poly.from_ints(2, 0, 0, 0, 1)
    powers = {atom ** e: e for e in range(1, nsopt.telescope._MAX_ATOM_POWER + 1)}
    shifts = {}
    shift = Poly.shift

    def counted(p, j):
        if j == 1 and p in powers:
            shifts[powers[p]] = shifts.get(powers[p], 0) + 1
        return shift(p, j)

    monkeypatch.setattr(Poly, "shift", counted)
    f = ONE / ((X + 1) ** 4 + 2)
    res = telescope_depth_optimal(Tower(), f)
    assert res.note.startswith("fallback")
    assert set(shifts) == set(powers.values())
    assert max(shifts.values()) <= 2


def test_solve_memo_is_shared_along_a_lineage(monkeypatch):
    calls = [0]
    solve = nsopt.telescope.solve_first_order

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(nsopt.telescope, "solve_first_order", counted)

    def base_solves(tower, f):
        before = calls[0]
        telescope_tower(tower, f)
        return calls[0] - before

    root = Tower()
    beta = ONE / (X + 1)
    assert not telescope_tower(root, beta).solved  # certifies beta on root
    grown = _adjoin_sigma_star_unchecked(root, beta, "h")
    f = sigma(grown, TowerElem.gen(0)) / (X + 1)
    assert base_solves(grown, f) > 0
    assert base_solves(grown, f) == 0
    # a second tower grown from the root by the same generator
    assert base_solves(root.extended(grown.gens[0]), f) == 0
    assert base_solves(grown.prefix(0), beta) == 0
    res = telescope_depth_optimal(grown, f)
    assert res.adjoined == ("h2",)
    assert res.tower._solve_cache is root._solve_cache  # pruning keeps it
    # a fresh root starts empty
    assert base_solves(Tower(), beta) > 0


def test_denominator_analysis_once_per_gamma_and_denominator(monkeypatch):
    # a weighted outer level (WEIGHTED[1] of the search benchmark) poses 12
    # base solves over 11 distinct (gamma, E), once zero right-hand sides
    # are dropped; the denominator analysis runs once for each, and a
    # second compile starts from an empty memo
    from nsopt.expr import compile, parse

    T = nsopt.telescope
    solve, bound = T.solve_first_order, T.universal_denominator
    solves, bounds = [0], []

    def counted_solve(*args):
        solves[0] += 1
        return solve(*args)

    def counted_bound(a, b, *atoms):
        bounds.append((a, b))
        return bound(a, b, *atoms)

    monkeypatch.setattr(T, "solve_first_order", counted_solve)
    monkeypatch.setattr(T, "universal_denominator", counted_bound)
    e = parse("sum(i,0,n,sum(j,0,i,(2*j+1)/(j+2)^2)*3/(i+1))")
    for _ in range(2):
        solves[0], bounds[:] = 0, []
        compile(e)
        # (a, b) = (gn*E, -gd*E) determines (gamma, E)
        assert len(bounds) == len(set(bounds)) == 11
        assert solves[0] == 12


# -- the relation-space search against the one-at-a-time loop ---------------


def _one_at_a_time(tower, f):
    """Reference: the generator search that adjoins each legal candidate
    after a certification solve, then re-solves f in the taller tower."""
    T = nsopt.telescope
    first = telescope_tower(tower, f)
    d = depth(tower, f)
    if first.solved:
        return T.DepthOptResult(True, first.g, tower, (), True,
                                "solved in the given tower")
    atoms = T._candidate_atoms(tower, f)
    # numerators x^j, j < deg atom, of the shift parts sigma(mu*x^j/atom^e)
    numerators = [(atom, j) for atom in atoms for j in range(atom.degree)]
    pi_idx = tuple(i for i, g in enumerate(tower.gens) if g.kind == "pi")
    supp = T._pi_degree_support(tower, f, pi_idx)
    cur, budget = tower, T._ADJOIN_BUDGET

    def search():
        nonlocal cur, budget
        for cap, preserving in ((d - 1, True), (d, False)):
            for mono_deg in range(T._MAX_MONOMIAL_DEGREE + 1):
                for mu, degvec in T._occurring_monomials(
                        tower, f, mono_deg, cap, pi_idx):
                    if degvec not in supp:
                        continue
                    for e in range(1, T._MAX_ATOM_POWER + 1):
                        for atom, j in numerators:
                            if budget <= 0:
                                return None
                            part = TowerElem.base(RatFunc(Poly.x_power(j), atom ** e))
                            beta = sigma(cur, mu * part)
                            if depth(cur, beta) > cap or beta == f:
                                continue
                            if any(g.kind == "sigma" and g.shift_part == beta
                                   for g in cur.gens):
                                continue
                            cert = telescope_tower(cur, beta)
                            if cert.solved:
                                continue
                            named = mu == ONE and j == 0
                            name = T._series_name(cur.names(), atom, e) if named else None
                            cur = _adjoin_sigma_star_unchecked(
                                cur, beta, name or cur.fresh_name(), cert.note)
                            budget -= 1
                            attempt = telescope_tower(cur, f)
                            if attempt.solved:
                                dg = depth(cur, attempt.g)
                                ok = (preserving and dg <= d) or (d <= 1 and dg <= d + 1)
                                note = (
                                    "solved after adjoining depth-preserving generator(s)"
                                    if ok else "solved one level above the summand depth"
                                )
                                pruned, g2, kept = _prune_tower(cur, attempt.g, len(tower))
                                return T.DepthOptResult(True, g2, pruned, kept, ok, note)
        return None

    if d >= 1 and atoms:
        hit = search()
        if hit is not None:
            return hit
    name = T._fallback_name(tower, f) or tower.fresh_name()
    grown = _adjoin_sigma_star_unchecked(tower, f, name, first.note)
    return T.DepthOptResult(True, TowerElem.gen(len(tower)), grown, (name,), d <= 1,
                            "fallback: adjoined the input as a new generator")


def _outcome(res):
    return (
        res.solved, res.g, res.adjoined, res.optimality_certified, res.note,
        [(g.name, g.kind, g.shift_part, g.depth) for g in res.tower.gens],
    )


def _search_case(case, monkeypatch):
    """(tower, f, note of the result at the default budget); the fallback
    case cuts the candidate class to atom power 1."""
    t1, h = harmonic_tower()
    if case == "pass-1 hit":
        # sigma(1/x) is h's own shift part, so the first candidate is dropped
        return t1, sigma(t1, h) / (X + 1), "solved after adjoining depth-preserving"
    if case == "uncertified pass-2 hit":
        # pass 2 repeats every pass-1 candidate, and one candidate is illegal
        return (t1, sigma(t1, h) / ((X + 2) * (X + 2)),
                "solved one level above the summand depth")
    if case == "product-like level":
        tb = adjoin_pi(Tower(), (X + 1) / (2 * (2 * X + 1)), name="b")
        return (tb, TowerElem.gen(0) / (4 * X + 2),
                "solved one level above the summand depth")
    if case == "two legal candidates":
        return (Tower(), ONE / (X + 1) + ONE / ((X + 1) * (X + 1)),
                "solved after adjoining depth-preserving")
    if case == "numerator-x hit":
        # QUADRATIC_ATOM's outer node: the sum of t needs the sum of
        # sigma(x/(x^2 + 1)), whose numerator is x
        tq = _adjoin_sigma_star_unchecked(Tower(), 3 / ((X + 1) * (X + 1) + 1), "t",
                                          "test fixture")
        return (tq, sigma(tq, TowerElem.gen(0)),
                "solved after adjoining depth-preserving")
    if case == "fallback":
        monkeypatch.setattr(nsopt.telescope, "_MAX_ATOM_POWER", 1)
        return t1, sigma(t1, h) / (X + 1), "fallback"
    raise KeyError(case)


SEARCH_CASES = ("pass-1 hit", "uncertified pass-2 hit", "product-like level",
                "two legal candidates", "numerator-x hit", "fallback")


@pytest.mark.parametrize("budget", [None, 1, 2])
@pytest.mark.parametrize("case", SEARCH_CASES)
def test_relation_search_matches_one_at_a_time(case, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(nsopt.telescope, "_ADJOIN_BUDGET", budget)
    tower, f, note = _search_case(case, monkeypatch)
    got = telescope_depth_optimal(tower, f)
    assert _outcome(got) == _outcome(_one_at_a_time(tower, f))
    if budget is None:
        assert got.note.startswith(note)


def test_fallback_adjoins_the_input_certified_by_its_refutation(monkeypatch):
    # only the fallback adjoins the input itself, which is how `nsopt
    # telescope` tells it from a hit; the generator's certificate is the
    # in-tower refutation
    tower, f, _ = _search_case("fallback", monkeypatch)
    refuted = telescope_tower(tower, f)
    assert not refuted.solved and refuted.note.startswith("no telescoper in")
    new = telescope_depth_optimal(tower, f).tower.gens[-1]
    assert new.shift_part == f
    assert new.certificate == refuted.note


def test_budget_counts_legal_candidates(monkeypatch):
    tower, f, _ = _search_case("two legal candidates", monkeypatch)
    monkeypatch.setattr(nsopt.telescope, "_ADJOIN_BUDGET", 2)
    assert telescope_depth_optimal(tower, f).adjoined == ("h", "h2")
    monkeypatch.setattr(nsopt.telescope, "_ADJOIN_BUDGET", 1)
    assert telescope_depth_optimal(tower, f).note.startswith("fallback")


def test_adjoined_generator_states_its_relation_certificate(monkeypatch):
    tower, f, _ = _search_case("pass-1 hit", monkeypatch)
    res = telescope_depth_optimal(tower, f)
    assert res.tower.gens[-1].certificate.startswith("no relation sigma(g) - g")


def test_search_adjoins_only_what_its_answer_uses(monkeypatch):
    # the hit relation's nonzero entries name the generators g needs, so
    # each search adjoins exactly those: every adjunction is reported, and
    # every new generator occurs in g
    from nsopt.dfield import occurring_generators
    from nsopt.expr import compile, parse

    T = nsopt.telescope
    adjoin, search = T._adjoin_sigma_star_unchecked, T.telescope_depth_optimal
    calls, adjoined = [0], []

    def counted_adjoin(*args):
        calls[0] += 1
        return adjoin(*args)

    def checked_search(tower, f):
        calls[0] = 0
        res = search(tower, f)
        assert calls[0] == len(res.adjoined)
        new = set(range(len(tower), len(res.tower)))
        assert new <= occurring_generators(res.tower, res.g)
        adjoined.extend(res.adjoined)
        return res

    monkeypatch.setattr(T, "_adjoin_sigma_star_unchecked", counted_adjoin)
    tower, f, _ = _search_case("two legal candidates", monkeypatch)
    assert checked_search(tower, f).adjoined == ("h", "h2")
    # a weighted outer level whose hit comes after many legal candidates
    monkeypatch.setattr(nsopt.expr, "telescope_depth_optimal", checked_search)
    adjoined.clear()
    compile(parse("sum(i,1,n,sum(j,2,i,sum(k,1,j,1/k^2)/j)/(i+1))"))
    assert "t23" in adjoined


def test_quadratic_atom_search_work(monkeypatch, capsys):
    # the outer summand t needs the sum of j/(j^2 + 1), a numerator-x
    # candidate over the quadratic atom: the search finds it in the first
    # pass, so the answer is certified at depth 2, and the inner and outer
    # searches take 6 first-order solves
    calls = [0]
    solve = nsopt.telescope.solve_first_order

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(nsopt.telescope, "solve_first_order", counted)
    code = nsopt.cli.main(["simplify", "--json", "--verify-range", "5",
                           "sum(i,0,n,sum(j,1,i,3/(j^2+1)))"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [g["name"] for g in report["tower_summary"]["generators"]] == ["t1", "t2"]
    assert (report["input_depth"], report["output_depth"]) == (3, 2)
    assert report["optimality_certified"] is True
    assert calls[0] <= 12


def test_quadratic_atom_relation_solves(monkeypatch, capsys):
    # the search solves its relations once per doubling of the candidate
    # list and at the end of each pass, not after every block: the weight
    # 1/(i+1) keeps the outer search going for 13 blocks until it falls back
    T = nsopt.telescope
    solve_param = T._solve_param
    sizes = []

    def counted(tw, level, gamma, phis):
        if level == len(tw) and len(phis) > 1:
            sizes.append(len(phis) - 1)
        return solve_param(tw, level, gamma, phis)

    monkeypatch.setattr(T, "_solve_param", counted)
    code = nsopt.cli.main(["simplify", "--json", "--verify-range", "5",
                           "sum(i,0,n,sum(j,1,i,3/(j^2+1))/(i+1))"])
    capsys.readouterr()
    assert code == 0
    assert 0 < len(sizes) <= 10


def test_relation_ending_at_the_input_raises(monkeypatch):
    # f telescopes in the given tower; if the in-tower solve missed that,
    # the relation solve finds a relation ending at f itself, which must
    # not be read as a candidate
    t1, h = harmonic_tower()
    f = sigma(t1, h * h) - h * h
    monkeypatch.setattr(
        nsopt.telescope, "telescope_tower",
        lambda tower, f: DepthOptResult(False, None, tower, (), False, "refuted"),
    )
    with pytest.raises(ResidualCheckFailed, match="in-tower solve refuted"):
        telescope_depth_optimal(t1, f)


def test_telescoper_is_read_off_the_relation(monkeypatch, capsys):
    # a weighted outer level whose search adjoins many candidates: the
    # telescoper comes from the relation solves over the input tower, with
    # no second solve of f in the grown tower
    calls = [0]
    solve = nsopt.telescope.solve_first_order

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(nsopt.telescope, "solve_first_order", counted)
    code = nsopt.cli.main(["simplify", "--json", "--verify-range", "5",
                           "sum(i,1,n,sum(j,2,i,sum(k,1,j,1/k^2)/j)/(i+1))"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert ([g["name"] for g in report["tower_summary"]["generators"]]
            == ["h2", "t2", "h", "h4", "t23"])
    assert (report["input_depth"], report["output_depth"]) == (4, 4)
    assert report["optimality_certified"] is False
    assert calls[0] <= 200


def test_read_off_clears_illegal_candidates_from_the_hit_row(monkeypatch):
    # relation bases come back with the hit row already clear of illegal
    # candidates; mixing the relation that ends at the illegal candidate 6
    # into every relation with c_0 != 0 leaves that entry for the search
    # to clear before it reads the telescoper off the row
    tower, f, _ = _search_case("uncertified pass-2 hit", monkeypatch)
    want = _outcome(_one_at_a_time(tower, f))
    T = nsopt.telescope
    solve_param, echelon = T._solve_param, T._echelon_by_last
    seen = []

    def mixed(tw, level, gamma, phis):
        basis = solve_param(tw, level, gamma, phis)
        illegal = [(g, c) for g, c in basis if len(c) > 6 and not c[0] and c[6]]
        if level < len(tw) or phis[0] != f or not illegal:
            return basis
        gi, ci = illegal[0]
        return [
            (g + gi, tuple(a + b for a, b in zip(c, ci))) if c[0] else (g, c)
            for g, c in basis
        ]

    def recorded(basis):
        rows = echelon(basis)
        seen.append(rows)
        return rows

    monkeypatch.setattr(T, "_solve_param", mixed)
    monkeypatch.setattr(T, "_echelon_by_last", recorded)
    got = telescope_depth_optimal(tower, f)
    rows = seen[-1]
    hit = min(i for i, (_, c) in rows.items() if c[0])
    assert hit == 7 and rows[6][1][0] == 0
    assert rows[hit][1][6] != 0
    assert _outcome(got) == want


# -- what makes an adjunction legal -----------------------------------------


def test_harmonic_shift_telescopes_over_h():
    # 1/(x+1) is a legal sum-like shift part over Q(x), and its shift is
    # not over Q(x)(h): sigma(h) telescopes it
    assert not telescope_tower(Tower(), ONE / (X + 1)).solved
    t1, h = harmonic_tower()
    res = telescope_tower(t1, sigma(t1, ONE / (X + 1)))
    assert res.solved
    assert (res.g - sigma(t1, h)).is_constant()


def test_zero_telescopes_over_base():
    res = telescope_tower(Tower(), TowerElem.const(0))
    assert res.solved and res.g == 0


def test_adjoin_pi_criterion():
    t0 = Tower()
    t1 = adjoin_pi(t0, TowerElem.const(2), name="b")
    assert t1.gens[0].kind == "pi"
    with pytest.raises(PiCriterionFails):
        adjoin_pi(t0, TowerElem.const(1))
    with pytest.raises(PiCriterionFails):
        adjoin_pi(t0, (X + 1) / X)  # sigma(x)/x: witness g = x


def test_adjoin_pi_checks_earlier_products():
    tp = adjoin_pi(Tower(), X + 1, name="p")  # p = n!
    p = TowerElem.gen(0)
    # sigma(p^2/(x+1)) = (x+1)^3/(x+2) * p^2/(x+1): the witness needs both a
    # rational factor and a power of p
    with pytest.raises(PiCriterionFails) as exc:
        adjoin_pi(tp, (X + 1) ** 3 / (X + 2), name="q")
    assert exc.value.m == 1
    assert (exc.value.g / (p * p / (X + 1))).is_constant()
    assert "declared product 'q' is not a legal" in str(exc.value)
    assert adjoin_pi(tp, TowerElem.const(3), name="q").names() == ["p", "q"]
    # sign: (-2)^n is no power of 2^n, but its square is 4^n = (2^n)^2
    t2 = adjoin_pi(Tower(), TowerElem.const(2), name="p")
    with pytest.raises(PiCriterionFails) as exc:
        adjoin_pi(t2, TowerElem.const(-2), name="q")
    assert exc.value.m == 2
    assert exc.value.g == p * p
    # composite atoms: (x^2+1)((x+3)^2+1) has one shift class, in which
    # it has exponent 2 against 1 for x^2+1
    sq = X * X + 1
    tq = adjoin_pi(Tower(), sq, name="p")
    with pytest.raises(PiCriterionFails) as exc:
        adjoin_pi(tq, sq * sigma(tq, sigma(tq, sigma(tq, sq))), name="q")
    assert exc.value.m == 1
    u = sq * sigma(tq, sq) * sigma(tq, sigma(tq, sq))  # s(u)/u = sq(x+3)/sq
    assert (exc.value.g / (u * p * p)).is_constant()
    # factor_atoms leaves (x^2+1)(x^2+2) whole; only the atoms of all
    # three ratios refined together see q = p*r
    t12 = adjoin_pi(tq, X * X + 2, name="r")
    with pytest.raises(PiCriterionFails) as exc:
        adjoin_pi(t12, sq * (X * X + 2), name="q")
    assert exc.value.m == 1
    assert (exc.value.g / (p * TowerElem.gen(1))).is_constant()
    # the same with both earlier ratios shifted by 1: a factor of the
    # quartic is then a backward shift of an earlier atom
    t12 = adjoin_pi(Tower(), sigma(tq, sq), name="p")
    t12 = adjoin_pi(t12, sigma(tq, X * X + 2), name="r")
    with pytest.raises(PiCriterionFails) as exc:
        adjoin_pi(t12, sq * (X * X + 2), name="q")
    assert exc.value.m == 1
    assert (exc.value.g * sq * (X * X + 2) / (p * TowerElem.gen(1))).is_constant()
    # over a sum-like generator the criterion would need more than Q(x)
    t1, _ = harmonic_tower()
    with pytest.raises(NotYetSupported):
        adjoin_pi(t1, TowerElem.const(2))


def test_adjoin_pi_solves_no_first_order_equation_when_legal(monkeypatch):
    # the exponent relation solve decides legality alone; the capped loop
    # it replaced made 6*13^r first-order solves for the (r+1)-th product
    calls = [0]
    solve = nsopt.telescope.solve_first_order

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(nsopt.telescope, "solve_first_order", counted)
    tower = Tower()
    for i, c in enumerate((2, 3, 5, 7, 11, 13)):
        tower = adjoin_pi(tower, TowerElem.const(c), name=f"c{i}")
    assert len(tower) == 6
    tower = Tower()
    for name, alpha in (("a", X + 1), ("b", (X + 1) / (2 * (2 * X + 1))),
                        ("c", (2 * X + 1) / (X + 3))):
        tower = adjoin_pi(tower, alpha, name=name)
    assert tower.names() == ["a", "b", "c"]
    assert calls[0] == 0


def test_telescope_with_pi_generator():
    t0 = Tower()
    tb = adjoin_pi(t0, TowerElem.const(2), name="b")
    b = TowerElem.gen(0)
    # sigma(b) - b = 2b - b = b
    res = telescope_tower(tb, b)
    assert res.solved and res.g == b
    # the harmonic refutation still holds with b around
    res2 = telescope_tower(tb, ONE / (X + 1))
    assert not res2.solved


def test_pi_above_sigma_unsupported():
    t1, h = harmonic_tower()
    bad = Tower(
        t1.gens
        + (Generator("b", "pi", TowerElem.const(2), 1, "test fixture"),)
    )
    b = TowerElem.gen(1)
    with pytest.raises(UnsupportedShape):
        telescope_tower(bad, b * h)


# -- parameter bookkeeping of the level solvers ------------------------------


def _dense_rewrite(level, k, steps):
    """Reference for telescope._solve_by_slots: replays the (slot, sub)
    steps of a level solve with a dense product over every parameter,
    zeros included.  Returns the (cmap, umap) before each step and the
    level's basis."""
    zero = TowerElem.const(0)
    cmap = [tuple(Fraction(int(i == j)) for j in range(k)) for i in range(k)]
    umap = {}
    states = []
    for slot, sub in steps:
        states.append((cmap, umap))
        P = len(cmap)
        cmap_next = [
            tuple(
                sum((d[p] * cmap[p][k0] for p in range(P)), Fraction(0))
                for k0 in range(k)
            )
            for _, d in sub
        ]
        umap_next = {
            j: [sum((d[p] * vec[p] for p in range(P)), zero) for _, d in sub]
            for j, vec in umap.items()
        }
        umap_next[slot] = [w for w, _ in sub]
        cmap, umap = cmap_next, umap_next
    t = TowerElem.gen(level - 1)
    basis = [
        (sum((vec[q] * t ** j for j, vec in umap.items()), zero), c)
        for q, c in enumerate(cmap)
    ]
    return states, basis


def _check_against_dense(level, k, slots, solve_slot, seen):
    """Run _solve_by_slots, then compare every state it handed to
    solve_slot, and its basis, with the dense reference."""
    steps, states = [], []

    def recording(slot, cmap, umap):
        states.append((list(cmap), {j: list(v) for j, v in umap.items()}))
        sub = solve_slot(slot, cmap, umap)
        steps.append((slot, sub))
        return sub

    basis = _solve_by_slots(level, k, slots, recording)
    ref_states, ref_basis = _dense_rewrite(level, k, steps)
    assert states == ref_states
    assert basis == ref_basis
    assert all(type(c) is Fraction for _, row in basis for c in row)
    seen.append((states, steps))
    return basis


def _holds_zeros(seen):
    """Some weight d[p] is zero, and some cmap holds zeros off the identity."""
    zero_weight = any(
        not dp for _, steps in seen for _, sub in steps for _, d in sub for dp in d
    )

    def identity(cmap):
        return all(
            c == (i == j) for i, row in enumerate(cmap) for j, c in enumerate(row)
        )

    rewritten = any(
        not identity(cmap) and any(0 in row for row in cmap)
        for states, _ in seen for cmap, _ in states
    )
    return zero_weight and rewritten


def _dense_checked(monkeypatch):
    seen = []
    check = _check_against_dense
    monkeypatch.setattr(
        nsopt.telescope,
        "_solve_by_slots",
        lambda level, k, slots, solve_slot: check(level, k, slots, solve_slot, seen),
    )
    return seen


def test_rewrite_matches_dense_at_sum_level(monkeypatch):
    seen = _dense_checked(monkeypatch)
    t2, h, s = nested_tower()
    phis = [s / (X + 1), h * h, h / (X + 1), ONE / (X + 1), s * h]
    basis = nsopt.telescope._solve_sigma_level(t2, 2, phis)
    assert len(basis) == 5
    assert _holds_zeros(seen)


def test_rewrite_matches_dense_at_product_level(monkeypatch):
    seen = _dense_checked(monkeypatch)
    tb = adjoin_pi(Tower(), TowerElem.const(2), name="b")
    b = TowerElem.gen(0)
    phis = [b, X * b, ONE / (X + 1), b * b / X, 2 * b, b * b]
    basis = nsopt.telescope._solve_pi_level(tb, 1, ONE, phis)
    assert len(basis) == 5
    assert _holds_zeros(seen)


def test_rewrite_matches_dense_on_fixed_subs():
    # dense weights into a cmap that stops being the identity after the
    # first slot; zero rows, zero weights and zero coefficients w
    w = [X, ONE / (X + 1), TowerElem.const(0), X * X]
    F = Fraction
    subs = {
        2: [(w[0], (F(1), F(0), F(2))), (w[1], (F(0), F(0), F(1))),
            (w[2], (F(0), F(0), F(0)))],
        1: [(w[3], (F(1, 2), F(0), F(3))), (w[2], (F(0), F(-1), F(0)))],
        0: [(w[1], (F(2), F(5))), (w[0], (F(0), F(0))), (w[3], (F(1), F(0)))],
    }
    seen = []
    basis = _check_against_dense(
        1, 3, (2, 1, 0), lambda slot, cmap, umap: subs[slot], seen
    )
    assert len(basis) == 3
    assert _holds_zeros(seen)


def test_product_level_rewrite_skips_zero_weights(monkeypatch):
    # the dense rewrite multiplied every weight d[p] into every entry of
    # cmap[p] and umap[j][p], zeros included
    count = {"weights": 0, "zero_weights": 0, "zero_products": 0}

    class Weight(Fraction):
        def __mul__(self, other):
            count["zero_products"] += not self
            return Fraction.__mul__(self, other)

        __rmul__ = __mul__

    solve_param = nsopt.telescope._solve_param

    def weighted(*args):
        sub = solve_param(*args)
        for _, d in sub:
            count["weights"] += len(d)
            count["zero_weights"] += sum(not dp for dp in d)
        return [(w, tuple(Weight(dp) for dp in d)) for w, d in sub]

    monkeypatch.setattr(nsopt.telescope, "_solve_param", weighted)
    tb = adjoin_pi(Tower(), TowerElem.const(2), name="b")
    b = TowerElem.gen(0)
    phis = [b, X * b, ONE / (X + 1), b * b / X, 2 * b, b * b]
    basis = nsopt.telescope._solve_pi_level(tb, 1, ONE, phis)
    assert len(basis) == 5
    assert count["zero_weights"] > count["weights"] // 2
    assert count["zero_products"] == 0


# -- zero right-hand sides ----------------------------------------------------


def _base_rhs(rng):
    """A random Q(x) element, sometimes with a pole."""
    num = TowerElem.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    for _ in range(rng.randint(0, 2)):
        num = num * (X + rng.randint(-2, 3)) + rng.randint(-2, 2)
    if rng.random() < 0.5:
        return num
    return num / (X + rng.randint(1, 3)) ** rng.randint(1, 2)


def _with_zeros(rng, phis):
    """phis with zeros put in at random places, at least one."""
    out = list(phis)
    for _ in range(rng.randint(1, 3)):
        out.insert(rng.randint(0, len(out)), TowerElem.const(0))
    return out


def _zero_cases():
    """(tower, level, gamma, phis) at level 0, at a sum-like level and at a
    product-like level, each with an all-zero list among them."""
    rng = random.Random(1919)
    t1, h = harmonic_tower()
    tp = adjoin_pi(Tower(), X + 1, name="p")
    p = TowerElem.gen(0)
    zeros = [TowerElem.const(0)] * 3
    cases = []
    for gamma in (ONE, (X + 2) / (X + 1), TowerElem.const(2)):
        cases.append((Tower(), 0, gamma, zeros))
        for _ in range(4):
            phis = [_base_rhs(rng) for _ in range(rng.randint(1, 3))]
            cases.append((Tower(), 0, gamma, _with_zeros(rng, phis)))
    cases.append((t1, 1, ONE, zeros))
    for _ in range(5):
        phis = [sum((_base_rhs(rng) * h ** j for j in range(rng.randint(1, 3))),
                    TowerElem.const(0))
                for _ in range(rng.randint(1, 3))]
        cases.append((t1, 1, ONE, _with_zeros(rng, phis)))
    for gamma in (ONE, TowerElem.const(Fraction(1, 2))):
        cases.append((tp, 1, gamma, zeros))
        for _ in range(4):
            phis = [_base_rhs(rng) * p ** rng.randint(-1, 2)
                    for _ in range(rng.randint(1, 3))]
            cases.append((tp, 1, gamma, _with_zeros(rng, phis)))
    return cases


def test_zero_right_hand_sides_keep_the_solution_space():
    # _solve_param drops zero phis before solving; against the level
    # solver on the unpruned list, the space has the same dimension and
    # the same echelon keys, and every pair solves the equation exactly
    T = nsopt.telescope
    for tower, level, gamma, phis in _zero_cases():
        assert any(phi.is_zero() for phi in phis)
        pruned = T._solve_param(tower, level, gamma, phis)
        full = T._solve_param_impl(tower, level, gamma, phis)
        assert len(pruned) == len(full)
        assert T._echelon_by_last(pruned).keys() == T._echelon_by_last(full).keys()
        for g, c in pruned:
            assert len(c) == len(phis)
            rhs = sum((ck * phi for ck, phi in zip(c, phis)), TowerElem.const(0))
            assert sigma(tower, g) * gamma - g == rhs
