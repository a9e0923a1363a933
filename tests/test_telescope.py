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
from nsopt.telescope import (
    NotYetSupported,
    PiCriterionFails,
    ResidualCheckFailed,
    UnsupportedShape,
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
    D = universal_denominator(e, -e)
    assert D % Poly.from_ints(0, 1) == Poly(())


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


def test_depth_optimal_fallback_uncertified():
    # with the candidate family cut down to nothing useful, the search must
    # still terminate by adjoining the input itself
    t1, h = harmonic_tower()
    f = sigma(t1, h) / (X + 1)
    res = telescope_depth_optimal(t1, f, max_atom_power=1)
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


# -- the relation-space search against the one-at-a-time loop ---------------


def _one_at_a_time(tower, f, max_atom_power=6, max_monomial_degree=3,
                   allow_fallback=True):
    """Reference: the generator search that adjoins each legal candidate
    after a certification solve, then re-solves f in the taller tower."""
    T = nsopt.telescope
    first = telescope_tower(tower, f)
    d = depth(tower, f)
    if first.solved:
        return T.DepthOptResult(True, first.g, tower, (), True,
                                "solved in the given tower")
    atoms = T._candidate_atoms(f)
    pi_idx = tuple(i for i, g in enumerate(tower.gens) if g.kind == "pi")
    supp = T._pi_degree_support(tower, f, pi_idx) if pi_idx else None
    cur, budget = tower, T._ADJOIN_BUDGET

    def search():
        nonlocal cur, budget
        for cap, preserving in ((d - 1, True), (d, False)):
            for mono_deg in range(max_monomial_degree + 1):
                for mu, degvec in T._occurring_monomials(
                        tower, f, mono_deg, cap, pi_idx):
                    if supp is not None and degvec not in supp:
                        continue
                    for e in range(1, max_atom_power + 1):
                        for atom in atoms:
                            if budget <= 0:
                                return None
                            inv_pow = TowerElem.base(RatFunc(Poly.from_ints(1), atom ** e))
                            beta = sigma(cur, mu * inv_pow)
                            if depth(cur, beta) > cap or beta == f:
                                continue
                            if any(g.kind == "sigma" and g.shift_part == beta
                                   for g in cur.gens):
                                continue
                            cert = telescope_tower(cur, beta)
                            if cert.solved:
                                continue
                            name = T._series_name(cur, atom, e) if mu == ONE else None
                            cur = _adjoin_sigma_star_unchecked(
                                cur, beta, name or cur.fresh_name(), cert.certificate)
                            budget -= 1
                            attempt = telescope_tower(cur, f)
                            if attempt.solved:
                                dg = depth(cur, attempt.g)
                                ok = (preserving and dg <= d) or (d <= 1 and dg <= d + 1)
                                note = (
                                    "solved after adjoining depth-preserving generator(s)"
                                    if ok else "solved one level above the summand depth"
                                )
                                pruned, g2, kept = T._prune_tower(cur, attempt.g, len(tower))
                                return T.DepthOptResult(True, g2, pruned, kept, ok, note)
        return None

    if d >= 1 and atoms:
        hit = search()
        if hit is not None:
            return hit
    if not allow_fallback:
        return T.DepthOptResult(False, None, tower, (), False, first.certificate)
    name = T._fallback_name(tower, f) or tower.fresh_name()
    grown = _adjoin_sigma_star_unchecked(tower, f, name, first.certificate)
    return T.DepthOptResult(True, TowerElem.gen(len(tower)), grown, (name,), d <= 1,
                            "fallback: adjoined the input as a new generator")


def _outcome(res):
    return (
        res.solved, res.g, res.adjoined, res.optimality_certified, res.note,
        [(g.name, g.kind, g.shift_part, g.depth) for g in res.tower.gens],
    )


def _search_case(case):
    """(tower, f, knobs, note of the result at the default budget)."""
    t1, h = harmonic_tower()
    if case == "pass-1 hit":
        # sigma(1/x) is h's own shift part, so the first candidate is dropped
        return t1, sigma(t1, h) / (X + 1), {}, "solved after adjoining depth-preserving"
    if case == "uncertified pass-2 hit":
        # pass 2 repeats every pass-1 candidate, and one candidate is illegal
        return (t1, sigma(t1, h) / ((X + 2) * (X + 2)), {},
                "solved one level above the summand depth")
    if case == "product-like level":
        tb = adjoin_pi(Tower(), (X + 1) / (2 * (2 * X + 1)), name="b")
        return (tb, TowerElem.gen(0) / (4 * X + 2), {},
                "solved one level above the summand depth")
    if case == "two legal candidates":
        return (Tower(), ONE / (X + 1) + ONE / ((X + 1) * (X + 1)), {},
                "solved after adjoining depth-preserving")
    if case == "fallback":
        return t1, sigma(t1, h) / (X + 1), {"max_atom_power": 1}, "fallback"
    if case == "no fallback":
        return (t1, sigma(t1, h) / (X + 1),
                {"max_atom_power": 1, "allow_fallback": False}, "no telescoper")
    raise KeyError(case)


SEARCH_CASES = ("pass-1 hit", "uncertified pass-2 hit", "product-like level",
                "two legal candidates", "fallback", "no fallback")


@pytest.mark.parametrize("budget", [None, 1, 2])
@pytest.mark.parametrize("case", SEARCH_CASES)
def test_relation_search_matches_one_at_a_time(case, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(nsopt.telescope, "_ADJOIN_BUDGET", budget)
    tower, f, knobs, note = _search_case(case)
    got = telescope_depth_optimal(tower, f, **knobs)
    assert _outcome(got) == _outcome(_one_at_a_time(tower, f, **knobs))
    if budget is None:
        assert got.note.startswith(note)


def test_budget_counts_legal_candidates(monkeypatch):
    tower, f, _, _ = _search_case("two legal candidates")
    monkeypatch.setattr(nsopt.telescope, "_ADJOIN_BUDGET", 2)
    assert telescope_depth_optimal(tower, f).adjoined == ("h", "h2")
    monkeypatch.setattr(nsopt.telescope, "_ADJOIN_BUDGET", 1)
    assert telescope_depth_optimal(tower, f).note.startswith("fallback")


def test_adjoined_generator_states_its_relation_certificate():
    tower, f, _, _ = _search_case("pass-1 hit")
    res = telescope_depth_optimal(tower, f)
    assert res.tower.gens[-1].certificate.startswith("no relation sigma(g) - g")


def test_quadratic_atom_search_work(monkeypatch, capsys):
    # the candidate class holds no generator that lowers this input, so the
    # search spends its budget and falls back; relation solves over the
    # input tower keep that cheap
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
    assert (report["input_depth"], report["output_depth"]) == (3, 3)
    assert report["optimality_certified"] is False
    assert calls[0] <= 120


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
    tower, f, knobs, _ = _search_case("uncertified pass-2 hit")
    want = _outcome(_one_at_a_time(tower, f, **knobs))
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
    got = telescope_depth_optimal(tower, f, **knobs)
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
    # over a sum-like generator the criterion would need more than Q(x)
    t1, _ = harmonic_tower()
    with pytest.raises(NotYetSupported):
        adjoin_pi(t1, TowerElem.const(2))


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
