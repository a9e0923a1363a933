"""Telescoping and first-order difference equations over towers.

The base engine solves the parameterized equation

    sigma(u) * gamma - u = c_1*phi_1 + ... + c_m*phi_m

for u in Q(x) and rational constants c_k, returning a basis of the full
solution space.  It is complete: a universal denominator (built from the
shift-gcd structure of the equation's coefficients) reduces the problem
to a polynomial unknown, a degree bound caps the ansatz, and an exact
nullspace finishes.  Homogeneous solutions fall out of the same path, so
the engine both finds telescopers and refutes their existence.

On towers the equation is solved level by level.  At a sum-like level the
unknown is a polynomial in the top generator of degree at most one more
than the input's; comparing coefficients turns each degree slot into a
parameterized subproblem one level down, with the parameter space rewritten
after every slot.  At a product-like level the equation is diagonal in the
generator's power, one first-order subproblem per power.  Inputs whose
shape escapes this scheme (a sum-like generator in a denominator, a
non-monomial denominator at a product-like level) raise UnsupportedShape.

telescope_depth_optimal searches for a telescoper of *small depth*: it
tries the given tower first, then lists candidate shift parts built from
the input's pole structure (1/atom^e, then times monomials in existing
generators) and solves, over the given tower, for the linear relations
between the input and the candidates.  Those relations decide which
candidates are legal new sum-like generators and the first one after
which the input telescopes.  The relation that reaches that one holds the
telescoper and names the candidates it uses, so only those are adjoined;
the telescoper is read off and residual-checked, never solved again in the
grown tower.  Failing that it falls back to adjoining the input itself,
which raises the depth by one; the new generator's certificate is then the
in-tower refutation.

Adjunction is guarded here: a sum-like generator is only added after the
telescoping equation for its summand has been shown unsolvable in the
current field (by the search's relation solve, or the in-tower solve of
the fallback), and a product-like generator only after adjoin_pi has
checked Karr's first-order criterion.  The certificate is stored on the
generator, so a tower is auditable after the fact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb

from .algebra import (
    Poly,
    RatFunc,
    RootSearchLimit,
    _DISPERSION_LIMIT,
    _check_degree,
    _int_rows,
    _primitive,
    _refine_by_shift_gcd,
    _to_ints,
    equal_degree_shift,
    factor_atoms,
    gcd_shifts,
    nullspace,
    poly_gcd,
    poly_lcm,
    shift_class,
)
from .dfield import (
    ONE,
    ZERO,
    Generator,
    Tower,
    TowerElem,
    _adjoin_sigma_star_unchecked,
    constant_component,
    depth,
    elem_to_str,
    fresh_name,
    monomials,
    occurring_generators,
    sigma,
)

__all__ = [
    "UnsupportedShape",
    "PiCriterionFails",
    "NotYetSupported",
    "ResidualCheckFailed",
    "DepthOptResult",
    "solve_first_order",
    "homogeneous_first_order",
    "adjoin_pi",
    "telescope_tower",
    "telescope_depth_optimal",
]


class UnsupportedShape(Exception):
    """The input leaves the class this solver is complete for."""


class PiCriterionFails(UnsupportedShape):
    """s(g) = alpha^m * g has a nonzero solution g in the current field;
    the product-like extension would change the constants."""

    def __init__(self, name, m, g, text):
        super().__init__(
            f"declared product {name!r} is not a legal product-like extension:"
            f" sigma(g) = alpha^{m} * g is solved by g = {text}"
        )
        self.m = m
        self.g = g


class NotYetSupported(Exception):
    """The argument lies outside the certified class of this operation."""


class ResidualCheckFailed(ArithmeticError):
    """A telescoper g, solved in a tower or read off a relation over its
    prefix, fails sigma(g) - g == f there, or a relation solve telescopes
    an input the in-tower solve refuted; never expected."""


class DepthOptResult:
    __slots__ = ("solved", "g", "tower", "adjoined", "optimality_certified", "note")

    def __init__(self, solved: bool, g: TowerElem, tower: Tower, adjoined: tuple,
                 optimality_certified: bool, note: str = ""):
        self.solved, self.g, self.tower, self.adjoined = solved, g, tower, adjoined
        self.optimality_certified, self.note = optimality_certified, note


# ---------------------------------------------------------------------------
# Base field: sigma(u)*gamma - u = sum c_k phi_k over Q(x)
# ---------------------------------------------------------------------------

_PONE = Poly.from_ints(1)


def _atoms(p: Poly, memo: dict = None) -> list:
    """p's atoms without multiplicities; `memo` keeps them under the key p."""
    if p.degree < 1:
        return []
    memo = {} if memo is None else memo
    hit = memo.get(p)
    if hit is None:
        hit = memo[p] = [q for q, _ in factor_atoms(p)]
    return hit


def _shift_gcd_candidates(atoms_a: list, atoms_b: list) -> set:
    """All j >= 0 with gcd(A(x), B(x+j)) nontrivial, for A and B given by
    their atoms."""
    out = set()
    for p in atoms_a:
        for q in atoms_b:
            if p.degree != q.degree:
                continue
            j = equal_degree_shift(q, p)  # p(x) == q(x+j)
            if j is not None and j >= 0 and j == int(j):
                out.add(int(j))
    # degree <= 3 atoms are irreducible, so the pairwise test above is
    # complete for them; a pair with an atom the factorizer may have left
    # composite is tried by gcds over its whole shift window
    for p in atoms_a:
        for q in atoms_b:
            if p.degree > 3 or q.degree > 3:
                out.update(gcd_shifts(p, q))
    return out


def universal_denominator(a: Poly, b: Poly, atoms_a: list, atoms_b: list) -> Poly:
    """Denominator bound for rational solutions of a*u(x+1) + b*u(x) = C
    with polynomial C (Abramov's construction on a(x-1) and b(x)).  A
    dispersion past _DISPERSION_LIMIT raises RootSearchLimit.

    atoms_a (atoms_b) lists the atoms of factors whose product has the
    irreducible factors of a (b).  The shift candidates are then those of
    a's and b's own atoms, since atoms of degree <= 3 are irreducible and
    any other pair is tried by gcds."""
    A = a.shift(-1)
    B = b
    D = _PONE
    # the atoms of a(x-1) are a's atoms shifted
    atoms_a = [p.shift(-1) for p in atoms_a]
    shifts = sorted(_shift_gcd_candidates(atoms_a, atoms_b), reverse=True)
    if shifts and shifts[0] > _DISPERSION_LIMIT:
        raise RootSearchLimit(
            f"dispersion {shifts[0]} past the limit of {_DISPERSION_LIMIT}"
        )
    for j in shifts:
        d = poly_gcd(A, B.shift(j))
        if d.degree < 1:
            continue
        A = A.exact_div(d)
        B = B.exact_div(d.shift(-j))
        for i in range(j + 1):
            D = D * d.shift(-i)
    return D


def _degree_bound(A2: Poly, B2: Poly, rhs_deg: int) -> int:
    """Max degree of polynomial solutions z of A2*z(x+1) + B2*z(x) = C,
    deg C <= rhs_deg (rhs_deg = -1 for the homogeneous problem)."""
    p, q = A2.degree, B2.degree
    s = max(p, q)
    if s < 0:
        return -1
    cands = [-1]
    if p != q or A2.lc() + B2.lc() != 0:
        cands.append(rhs_deg - s)
    else:
        cands.append(rhs_deg - (s - 1))
        tau = A2.coeff(s - 1) + B2.coeff(s - 1)
        n1 = -tau / A2.lc()
        if n1.denominator == 1 and n1 >= 0:
            cands.append(int(n1))
    return max(cands)


def solve_first_order(gamma: RatFunc, phis, memo: dict = None) -> list:
    """Basis of the (u, c) solution space of sigma(u)*gamma - u = sum c_k phi_k
    with u in Q(x); entries are (RatFunc, tuple-of-Fraction) pairs.

    The denominator analysis depends only on gamma and the right-hand
    sides' common denominator E; `memo` (a tower lineage's solve memo)
    keeps it under the key (gamma, E) for the later solves that share it,
    and the atoms of each right-hand side's denominator and of gamma under
    the polynomial itself, so E is never factored as a whole.
    A polynomial unknown of degree past _DEGREE_LIMIT raises
    RootSearchLimit before its ansatz is built."""
    if gamma.is_zero():
        raise ValueError("gamma must be nonzero")
    phis = list(phis)
    k = len(phis)
    gn, gd = gamma.num, gamma.den

    # clear denominators: gn*u(x+1) - gd*u = gd * sum c_k phi_k, then * E
    rhs = [phi * RatFunc.from_poly(gd) for phi in phis]
    E = _PONE
    for den in dict.fromkeys(r.den for r in rhs):
        E = poly_lcm(E, den)
    Cs = []
    for r in rhs:
        q, rem = divmod(E, r.den)
        if not rem.is_zero():
            raise ArithmeticError("common denominator failed to clear a right-hand side")
        Cs.append(q * r.num)

    memo = {} if memo is None else memo
    key = (gamma, E)
    hit = memo.get(key)
    if hit is None:
        a = gn * E
        b = -(gd * E)
        # every irreducible factor of E divides some right-hand side's
        # denominator, and each of those divides E
        atoms_e = list(dict.fromkeys(
            p for den in dict.fromkeys(r.den for r in rhs) for p in _atoms(den, memo)
        ))
        D = universal_denominator(a, b, _atoms(gn, memo) + atoms_e,
                                  _atoms(gd, memo) + atoms_e)
        Dup = D.shift(1)
        L = poly_lcm(D, Dup)
        hit = memo[key] = (D, L, a * L.exact_div(Dup), b * L.exact_div(D))
    D, L, A2, B2 = hit
    C2 = [c * L for c in Cs]

    rhs_deg = max([c.degree for c in C2], default=-1)
    N = _degree_bound(A2, B2, rhs_deg)
    _check_degree(N)

    # columns: z_0..z_N then c_1..c_k
    cols = []
    for i in range(N + 1):
        # (x+1)^i by the binomial theorem
        shifted = Poly.from_ints(*[comb(i, j) for j in range(i + 1)])
        cols.append(A2 * shifted + B2 * Poly.x_power(i))
    for c in C2:
        cols.append(-c)
    nz = N + 1
    basis = nullspace(_int_rows(cols), nz + k)

    out = []
    for vec in basis:
        z = Poly(tuple(vec[:nz]))
        u = RatFunc(z, D)
        out.append((u, tuple(vec[nz:])))
    return out


def homogeneous_first_order(gamma: RatFunc):
    """A nonzero u with sigma(u)*gamma = u, or None."""
    for u, _ in solve_first_order(gamma, []):
        if not u.is_zero():
            return u
    return None


def _multiplicity(p, b) -> int:
    """The largest e with b^e dividing p: polynomials or positive integers."""
    e = 0
    while True:
        q, r = divmod(p, b)
        if r:
            return e
        p, e = q, e + 1


def _coprime_basis(ns) -> list:
    """Pairwise coprime integers > 1 of which every n in ns is a product:
    two members with a gcd g > 1 are replaced by g and their cofactors."""
    basis, todo = set(), list(ns)
    while todo:
        a = todo.pop()
        b = next((b for b in basis if math.gcd(a, b) > 1), None)
        if b is None:
            basis.add(a)
        else:
            basis.remove(b)
            g = math.gcd(a, b)
            todo += [g, a // g, b // g]
    return sorted(basis - {1})


def _exponent_rows(ratios: list) -> list:
    """Rows e with sum_j e[j]*v_j = 0 exactly when prod ratios[j]^v_j is
    s(u)/u times a constant +-1, for u in Q(x): one row per shift class of
    the ratios' factors, refined together until any two are coprime under
    every shift unless they are shifts of one another, and one row per
    element of a coprime basis of the ratios' constant factors."""
    atoms = dict.fromkeys(
        a for r in ratios for p in (r.num, r.den) if p.degree >= 1
        for a, _ in factor_atoms(p)
    )
    classes = {}
    for atom in dict.fromkeys(_refine_by_shift_gcd(list(atoms))):
        classes.setdefault(shift_class(atom)[0], []).append(atom)
    rows = [
        [Fraction(sum(_multiplicity(r.num, a) - _multiplicity(r.den, a) for a in cls))
         for r in ratios]
        for cls in classes.values()
    ]
    # the denominators are monic, so a ratio's constant factor is its
    # numerator's leading coefficient
    consts = [r.num.lc() for r in ratios]
    for b in _coprime_basis([n for c in consts for n in (abs(c.numerator), c.denominator)]):
        rows.append([
            Fraction(_multiplicity(abs(c.numerator), b) - _multiplicity(c.denominator, b))
            for c in consts
        ])
    return rows


def adjoin_pi(tower: Tower, alpha: TowerElem, name: str = None) -> Tower:
    """Extend the tower by t with s(t) = alpha * t after checking Karr's
    criterion: no nonzero g in the current field solves s(g) = alpha^m * g
    for any m != 0.

    Only a base-level alpha over a tower of product-like generators p_i
    with base-level ratios alpha_i is certified; anything else raises
    NotYetSupported.  Each p_i was adjoined through this check, so every
    such g is u * prod p_i^k_i with u in Q(x), and s(g) = alpha^m * g says
    that alpha^m * prod alpha_i^-k_i = s(u)/u.  A rational function is some
    s(u)/u exactly when its constant factor is 1 and, in every shift class
    of its irreducible factors, the exponents sum to 0.  Both conditions
    are linear in (m, k_1, ..., k_r) (_exponent_rows), so one integer
    nullspace decides every m and every k_i at once; a solution whose
    constant comes out -1 is doubled.  A solution with m != 0 is a
    witness: one homogeneous first-order solve gives its u, and
    PiCriterionFails prints g.
    """
    if alpha.is_zero():
        raise ValueError("pi generator needs alpha != 0")
    if alpha.level != 0:
        raise NotYetSupported("pi adjunction only certified for base-level alpha")
    if any(g.kind != "pi" or g.shift_part.level != 0 for g in tower.gens):
        raise NotYetSupported(
            "pi adjunction only certified over base-level product-like generators"
        )
    name = name or tower.fresh_name("p")
    ratios = [alpha.rf] + [g.shift_part.rf for g in tower.gens]
    rows = _exponent_rows(ratios)
    vec = next((v for v in nullspace(rows, len(ratios)) if v[0]), None)
    if vec is not None:
        v = _primitive(_to_ints(vec)[0])
        if v[0] < 0:
            v = [-e for e in v]
        if sum(e for e, r in zip(v, ratios) if r.num.lc() < 0) % 2:
            v = [2 * e for e in v]
        m, ks = v[0], [-e for e in v[1:]]
        gamma = alpha.rf ** (-m)
        for r, k in zip(ratios[1:], ks):
            gamma = gamma * r ** k
        u = homogeneous_first_order(gamma)
        if u is None:
            raise ResidualCheckFailed(
                f"the relation solve for {name!r} gave m = {m}, but no u in Q(x)"
                " solves sigma(u) * gamma = u"
            )
        g = TowerElem.base(u)
        for i, k in enumerate(ks):
            g = g * TowerElem.gen(i) ** k
        raise PiCriterionFails(name, m, g, elem_to_str(tower, g))
    gen = Generator(
        name,
        "pi",
        alpha,
        depth(tower, alpha) + 1,
        "sigma(g) = alpha^m * g has no solution g != 0 for any m != 0"
        " (integer relation solve over the exponents of alpha and"
        f" {len(tower)} earlier product(s), {len(rows)} rows)",
    )
    return tower.extended(gen)


# ---------------------------------------------------------------------------
# Tower levels
# ---------------------------------------------------------------------------


def _sigma_level_coeffs(phi: TowerElem, level: int, gen_name: str):
    """phi as a polynomial in the level's generator; UnsupportedShape if
    the generator occurs in phi's denominator."""
    if phi.level < level:
        return [phi]
    if phi.rf.den.degree >= 1:
        raise UnsupportedShape(f"sum-like generator {gen_name} occurs in a denominator")
    return phi.rf.num.coeffs


def _pi_laurent(phi: TowerElem, level: int, gen_name: str) -> dict:
    """phi as a Laurent polynomial in the product-like generator."""
    if phi.level < level:
        return {0: phi}
    den = phi.rf.den
    nonzero = [i for i, c in enumerate(den.coeffs) if c]
    if len(nonzero) != 1:
        raise UnsupportedShape(
            f"denominator at product-like level {gen_name} is not a monomial"
        )
    m = nonzero[0]
    out = {}
    for i, c in enumerate(phi.rf.num.coeffs):
        if not c.is_zero():
            out[i - m] = c / den.coeffs[m]
    return out


def _solve_param(tower: Tower, level: int, gamma: TowerElem, phis: list) -> list:
    # a zero phi_k leaves c_k free: the space is the solutions over the
    # nonzero phis, placed back in their positions, plus (0, e_k) for each
    # zero one.  Zeros are dropped before the memo lookup, and the nonzero
    # phis are always solved, even when there are none, so the homogeneous
    # solutions stay in the basis.  Level subproblems recur identically
    # across the search's relation solves, one per doubling of the
    # candidate list, and the later sum nodes of one compile, so memoize on
    # (generator prefix, gamma, nonzero phis) in the memo every tower of one
    # lineage shares; generators hash by identity and the key holds them,
    # so no id is recycled under it
    nonzero = [i for i, phi in enumerate(phis) if phi]
    sub = [phis[i] for i in nonzero]
    cache = tower._solve_cache
    key = (tower.gens[:level], gamma, tuple(sub))
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _solve_param_impl(tower, level, gamma, sub)
    k = len(phis)
    if len(sub) == k:
        return hit
    zero, one = Fraction(0), Fraction(1)
    out = []
    for g, c in hit:
        row = [zero] * k
        for i, ci in zip(nonzero, c):
            row[i] = ci
        out.append((g, tuple(row)))
    for i, phi in enumerate(phis):
        if not phi:
            out.append((ZERO, tuple(one if j == i else zero for j in range(k))))
    return out


def _solve_param_impl(tower: Tower, level: int, gamma: TowerElem, phis: list) -> list:
    """Basis of (g, c) with sigma(g)*gamma - g = sum c_k phi_k, g in the
    subfield up to `level`.  gamma is a tower element (1 for telescoping);
    at sum-like levels gamma must be 1."""
    if level == 0:
        if gamma.level != 0:
            raise UnsupportedShape("first-order ratio not in the base field")
        base_phis = []
        for phi in phis:
            if phi.level != 0:
                raise ValueError(f"right-hand side {phi!r} is not in the tower")
            base_phis.append(phi.rf)
        res = solve_first_order(gamma.rf, base_phis, tower._solve_cache)
        return [(TowerElem.base(u), c) for u, c in res]

    gen = tower.gens[level - 1]
    if gen.kind == "pi":
        return _solve_pi_level(tower, level, gamma, phis)
    if gamma != ONE:
        raise UnsupportedShape(
            "product-like ratio above a sum-like generator is not supported"
        )
    return _solve_sigma_level(tower, level, phis)


def _solve_by_slots(level: int, k: int, slots, solve_slot) -> list:
    """Parameter bookkeeping shared by the level solvers.

    Parameter p of the current space stands for the original constants
    cmap[p] and contributes umap[j][p] to the coefficient of t^j.  Each
    slot's subproblem, solve_slot(slot, cmap, umap), returns a basis of
    (w, d): w is the slot's coefficient and d combines the current
    parameters, so both maps are re-expressed in that basis.  Only the
    nonzero d[p] and cmap[p][k0] are combined: the parameter spaces are
    sparse, and exact sums do not depend on skipped zero terms."""
    zero, one = Fraction(0), Fraction(1)
    cmap = [tuple([one if i == j else zero for j in range(k)]) for i in range(k)]
    umap = {}
    for slot in slots:
        sub = solve_slot(slot, cmap, umap)
        if not sub:
            return []
        new_cmap = []
        new_umap = {j: [] for j in umap}
        for _, d in sub:
            nonzero = [(p, dp) for p, dp in enumerate(d) if dp]
            row = [zero] * k
            for p, dp in nonzero:
                for k0, c in enumerate(cmap[p]):
                    if c:
                        row[k0] += dp * c
            new_cmap.append(tuple(row))
            for j, vec in umap.items():
                acc = ZERO
                for p, dp in nonzero:
                    acc = acc + dp * vec[p]
                new_umap[j].append(acc)
        cmap = new_cmap
        umap = new_umap
        umap[slot] = [w for w, _ in sub]

    t = TowerElem.gen(level - 1)
    out = []
    for q, c in enumerate(cmap):
        g = ZERO
        for j, vec in umap.items():
            if not vec[q].is_zero():
                g = g + vec[q] * t ** j
        out.append((g, c))
    return out


def _solve_sigma_level(tower: Tower, level: int, phis: list) -> list:
    gen = tower.gens[level - 1]
    coeff_lists = [_sigma_level_coeffs(phi, level, gen.name) for phi in phis]
    n = max((len(cl) - 1 for cl in coeff_lists), default=-1)
    deg = n + 1  # ansatz degree: one more than the input's

    beta = gen.shift_part
    beta_pow = [ONE]
    for _ in range(deg):
        beta_pow.append(beta_pow[-1] * beta)

    def solve_slot(i, cmap, umap):
        psi = []
        for p, row in enumerate(cmap):
            val = ZERO
            for c, cl in zip(row, coeff_lists):
                if c and i < len(cl):
                    val = val + c * cl[i]
            for j in range(i + 1, deg + 1):
                if j in umap:
                    u_jp = umap[j][p]
                    if not u_jp.is_zero():
                        val = val - comb(j, i) * sigma(tower, u_jp) * beta_pow[j - i]
            psi.append(val)
        return _solve_param(tower, level - 1, ONE, psi)

    return _solve_by_slots(level, len(phis), range(deg, -1, -1), solve_slot)


def _solve_pi_level(tower: Tower, level: int, gamma: TowerElem, phis: list) -> list:
    gen = tower.gens[level - 1]
    alpha = gen.shift_part
    lau = [_pi_laurent(phi, level, gen.name) for phi in phis]
    degrees = sorted(set().union(*[set(l) for l in lau], {0}))

    def solve_slot(dgr, cmap, umap):
        psi = []
        for row in cmap:
            val = ZERO
            for c, coeffs in zip(row, lau):
                if c and dgr in coeffs:
                    val = val + c * coeffs[dgr]
            psi.append(val)
        return _solve_param(tower, level - 1, gamma * alpha ** dgr, psi)

    return _solve_by_slots(level, len(phis), degrees, solve_slot)


def _checked(tower: Tower, g: TowerElem, f: TowerElem) -> TowerElem:
    """g without its constant summand, once sigma(g) - g == f is confirmed
    exactly in the tower."""
    g = g - constant_component(tower, g)
    if not (sigma(tower, g) - g - f).is_zero():
        raise ResidualCheckFailed(f"telescoper failed residual check in {tower!r}")
    return g


def telescope_tower(tower: Tower, f: TowerElem) -> DepthOptResult:
    """sigma(g) - g = f with g anywhere in the given tower (no growth).

    A solution is certified depth-optimal: solutions are unique up to
    additive constants, and legal extensions keep the constant field fixed,
    so no extension can hold a shallower rewrite and the in-tower depth is
    the floor.  It exceeds depth(f) + 1 only when the supplied presentation
    is itself not depth-optimal, and then it is still the floor.  Without
    a solution, the note states the refutation."""
    basis = _solve_param(tower, len(tower), ONE, [f])
    for g, c in basis:
        if c[0]:
            g = _checked(tower, g / c[0], f)
            return DepthOptResult(True, g, tower, (), True, "solved in the given tower")
    return DepthOptResult(
        False, None, tower, (), False,
        f"no telescoper in {tower!r}: solution space (dim {len(basis)}) "
        "has no component along the input",
    )


# no caller in nsopt: perfbench/spans.py patches this name, so it stays
# until the engine records its own spans
telescope_any = telescope_tower


# ---------------------------------------------------------------------------
# Depth-optimal telescoping
# ---------------------------------------------------------------------------

_X_ATOM = Poly.from_ints(0, 1)
_HALF_ATOM = Poly((Fraction(1, 2), Fraction(1)))
_QUARTER_ATOM = Poly((Fraction(1, 4), Fraction(1)))


def _candidate_atoms(tower: Tower, f: TowerElem) -> list:
    """Shift-normalized atom representatives of the denominators of f's
    Q(x) coefficients, in a deterministic order."""
    reps = {
        shift_class(atom)[0]
        for rf in monomials(tower, f).values()
        for atom in _atoms(rf.den, tower._solve_cache)
    }
    return sorted(reps, key=lambda p: (p.degree, p.coeffs))


def _occurring_monomials(tower: Tower, f: TowerElem, total_deg: int,
                         max_depth: int, pi_idx: tuple) -> list:
    """(monomial, product-degree vector) pairs of the given total degree in
    generators that occur in f and have depth <= max_depth.  Restricting to
    occurring generators keeps the candidate family small on a compile's
    tower, which also holds the generators of the expression's other sums."""
    if total_deg == 0:
        return [(ONE, (0,) * len(pi_idx))]
    occ = sorted(
        i for i in occurring_generators(tower, f)
        if i >= 0 and tower.gens[i].depth <= max_depth
    )
    out = []
    for combo in itertools.combinations_with_replacement(occ, total_deg):
        mu = ONE
        for i in combo:
            mu = mu * TowerElem.gen(i)
        out.append((mu, tuple(map(combo.count, pi_idx))))
    return out


def _pi_degree_support(tower: Tower, f: TowerElem, pi_idx: tuple) -> set:
    """Product-degree vectors over pi_idx of f's monomials.

    sigma(g) - g = f splits per product degree, and a legal product
    generator admits no rational homogeneous solution, so a new sum-like
    generator can only contribute at the product degree of its shift part.
    Candidates outside the support are provably useless."""
    return {tuple(vec[i] for i in pi_idx) for vec in monomials(tower, f)}


def _series_name(names: list, atom: Poly, e: int):
    """h/h2/... for 1/x^e sums, o/o2/... for 1/(x+1/2)^e,
    q/q2/... for 1/(x+1/4)^e, unless names already holds it."""
    stem = None
    if atom == _X_ATOM:
        stem = "h"
    elif atom == _HALF_ATOM:
        stem = "o"
    elif atom == _QUARTER_ATOM:
        stem = "q"
    if stem is None:
        return None
    name = stem if e == 1 else f"{stem}{e}"
    return name if name not in names else None


def _fallback_name(tower: Tower, beta: TowerElem):
    """Recognize beta = sigma(1/atom^e) so the naive adjunction still gets
    a readable series name."""
    if beta.level != 0:
        return None
    inner = beta.rf.shift(-1)
    if not inner.num.is_one():
        return None
    atoms = factor_atoms(inner.den)
    if len(atoms) != 1:
        return None
    atom, e = atoms[0]
    rep, shift = shift_class(atom)
    if shift != 0:
        return None
    return _series_name(tower.names(), rep, e)


# the search gives up once this many legal candidates come before its hit;
# only the hit relation's candidates are adjoined, so it bounds the relation
# solve's reach, not the generators.  Lifted, the 103-invocation corpus of
# tools/corpus_reports.py took 8.9 and 10.7 s against 11.3 and 11.7 s (single
# runs on a shared 2-core machine), and only extra/3 and planted/17
# changed: their fallbacks became longer answers at the same depth and
# certification (219 -> 331 and 163 -> 804 characters), as the first hit
# in candidate order is not the sparsest
_ADJOIN_BUDGET = 24

# the search's candidate shift parts are sigma(mu*x^j/atom^e), j < deg atom;
# this bounds e, the power of an atom of f's base denominators
_MAX_ATOM_POWER = 6
# and this bounds the total degree of mu, a monomial in the generators
# that occur in f
_MAX_MONOMIAL_DEGREE = 3


def _last_nonzero(vec):
    return max((i for i, c in enumerate(vec) if c), default=None)


def _echelon_by_last(basis) -> dict:
    """Echelon form of a relation basis, (g, c) pairs with sigma(g) - g =
    sum c_k*phi_k, keyed by the last nonzero entry of c: the keys are
    exactly the last indices that nonzero combinations reach.  Rows are
    combined as whole (g, c) pairs, so each still states a relation."""
    rows = {}
    for g, vec in basis:
        last = _last_nonzero(vec)
        while last in rows:
            g, vec = _cancel(g, vec, rows[last], last)
            last = _last_nonzero(vec)
        if last is not None:
            rows[last] = (g, vec)
    return rows


def _cancel(g, vec, row, i):
    """The relation (g, vec) minus the multiple of row that zeroes entry i."""
    rg, rvec = row
    factor = vec[i] / rvec[i]
    return g - factor * rg, [a - factor * b for a, b in zip(vec, rvec)]


def _adjoin_support(tower: Tower, cands: list, rows: dict, hit: int,
                    legal: list, dim: int):
    """The tower grown by the candidates the hit relation uses, and the
    telescoper of f = phi_0 there, read off the echelon row that ends at hit.

    Every row below hit has c_0 = 0 and ends at an illegal candidate, so
    subtracting those rows from the highest down clears the hit row's
    illegal entries without touching c_0 or any entry above.  What is left,
    sigma(g_T) - g_T = c_0*f + sum over legal + [hit] of c_j*beta_j, gives
    g = (g_T - sum c_j*t_j) / c_0 once t_j is the generator for beta_j, so
    only the candidates with c_j != 0 are adjoined.  One that is legal over
    T and every legal candidate before it stays legal over the smaller
    tower, so its certificate still holds.  Each keeps the name that
    adjoining every candidate in legal + [hit] (1-based indices into
    cands) in order would give it; that replay runs over names alone."""
    g, vec = rows[hit]
    for j in sorted((j for j in rows if j < hit), reverse=True):
        if vec[j]:
            g, vec = _cancel(g, vec, rows[j], j)
    names, cur = tower.names(), tower
    for i in legal + [hit]:
        beta, series = cands[i - 1]
        name = (_series_name(names, *series) if series else None) or fresh_name(names)
        names.append(name)
        if not vec[i]:
            continue
        cur = _adjoin_sigma_star_unchecked(
            cur,
            beta,
            name,
            "no relation sigma(g) - g = c_0*f + sum c_j*beta_j"
            f" over {tower!r} ends at candidate {i}"
            f" (relation solve over {len(cands)} candidates, space dim {dim})",
        )
        g = g - vec[i] * TowerElem.gen(len(cur) - 1)
    return cur, g / vec[0]


def telescope_depth_optimal(tower: Tower, f: TowerElem) -> DepthOptResult:
    """Find g with sigma(g) - g = f of smallest available depth.

    Strategy: try the given tower, then look for sum-like generators t_i
    with sigma(t_i) = t_i + beta_i built from the input's pole structure
    (beta_i = sigma(mu*x^j/atom^e) with j < deg atom, e <= _MAX_ATOM_POWER
    and mu a monomial of degree <= _MAX_MONOMIAL_DEGREE in occurring
    generators), in a fixed candidate order.  Every beta_i lies in the
    given tower T, so by Karr's structure theorem f telescopes once the
    legal candidates up to i are adjoined exactly when some relation
    sigma(g) - g = c_0*f + sum c_j*beta_j with g in T has c_0 != 0 and c_j
    = 0 for j > i, and beta_i is illegal (telescopes in the grown tower)
    exactly when a relation with c_0 = 0 ends at i.  The search therefore solves these relations over T and
    adjoins nothing before the first success.  The candidates come in
    blocks, one per (monomial, atom power); the relations are solved only
    when the list has doubled since the last solve and at the end of each
    pass.  The relations over a prefix of the candidates are exactly those
    of the longer list that end inside the prefix, so one solve's echelon
    rows give the first hit and the legal candidates before it, as a solve
    after each block would.  A relation ending at f itself contradicts the
    in-tower solve and raises.  The hit relation also gives g: with t_j the
    generator for beta_j, g = (g_T - sum c_j*t_j) / c_0 once the illegal
    candidates are eliminated from it, so only the candidates with c_j != 0
    are adjoined (_adjoin_support), and g is residual-checked in that tower.
    An in-tower answer, telescope_tower's result, ends the search at once:
    no extension can present a shallower one.  The first pass only considers shift parts of depth < depth(f), so a hit
    there is depth-optimal; a second pass allows shift parts of depth equal
    to depth(f), whose solutions sit one level higher and are reported
    uncertified (except over depth-1 input, where one level up is provably
    the floor).  The search gives up once _ADJOIN_BUDGET legal candidates
    come before the first success.  An exhausted search adjoins f itself,
    certified by the in-tower refutation; only this fallback adjoins a
    generator whose shift part is f.  The tower passed in is never touched,
    so elements built on it stay valid on the returned tower."""
    first = telescope_tower(tower, f)
    if first.solved:
        return first
    d = depth(tower, f)

    atoms = _candidate_atoms(tower, f)
    pi_idx = tuple(i for i, g in enumerate(tower.gens) if g.kind == "pi")
    supp = _pi_degree_support(tower, f, pi_idx)
    taken = {g.shift_part for g in tower.gens if g.kind == "sigma"}

    def _blocks(cands):
        """Grow cands block by block, one block per (monomial, atom power);
        yield False after each block that adds candidates and True at the
        end of each pass."""
        for cap in (d - 1, d):
            for mono_deg in range(0, _MAX_MONOMIAL_DEGREE + 1):
                mus = _occurring_monomials(tower, f, mono_deg, cap, pi_idx)
                # low-weight monomials first, then increasing atom power,
                # so e.g. sums weighted by 1/k^2 win over heavier
                # coefficients at 1/k
                for mu, degvec in mus:
                    if degvec not in supp:
                        continue
                    shifted_mu = sigma(tower, mu)
                    for e in range(1, _MAX_ATOM_POWER + 1):
                        before = len(cands)
                        # Abramov's remainders over an atom of degree
                        # delta span x^j/atom^e for every j < delta
                        for atom in atoms:
                            # sigma(x^j/atom^e) = (x+1)^j/atom(x+1)^e is
                            # reduced and monic as built: j >= 1 only when
                            # deg atom >= 2, and factor_atoms splits off
                            # every linear factor, so x does not divide atom
                            den = (atom ** e).shift(1)
                            for j in range(atom.degree):
                                part = RatFunc(Poly.x_power(j).shift(1), den, _normalized=True)
                                beta = shifted_mu * TowerElem.base(part)
                                if depth(tower, beta) > cap or beta == f:
                                    continue
                                if beta not in taken:
                                    taken.add(beta)
                                    named = mu == ONE and j == 0
                                    cands.append((beta, (atom, e) if named else None))
                        if len(cands) > before:
                            yield False
            yield True

    def _search():
        cands = []  # (beta, (atom, e) for a series name, or None)
        solved = 0  # candidate count of the last relation solve
        for pass_end in _blocks(cands):
            # one relation solve per doubling of the candidate list keeps
            # the solves few when f does not telescope, and the list short
            # when it telescopes early
            if len(cands) == solved or (not pass_end and len(cands) < 2 * solved):
                continue
            solved = len(cands)
            basis = _solve_param(tower, len(tower), ONE, [f] + [b for b, _ in cands])
            rows = _echelon_by_last(basis)
            if 0 in rows:
                raise ResidualCheckFailed(
                    f"a relation solve over {tower!r} telescopes the input,"
                    " which the in-tower solve refuted"
                )
            hit = min((i for i, (_, c) in rows.items() if c[0]), default=None)
            end = solved if hit is None else hit - 1
            legal = [i for i in range(1, end + 1) if i not in rows]
            if len(legal) >= _ADJOIN_BUDGET:
                return None
            if hit is None:
                continue
            cur, g = _adjoin_support(tower, cands, rows, hit, legal, len(basis))
            g = _checked(cur, g, f)
            dg = depth(cur, g)
            # second-pass candidates are exactly those of depth d; depth-1
            # shift parts are never legal, so a depth-2 answer over a
            # depth-1 input is already as low as it can get
            first_pass = depth(tower, cands[hit - 1][0]) < d
            ok = (first_pass and dg <= d) or (d <= 1 and dg <= d + 1)
            note = (
                "solved after adjoining depth-preserving generator(s)"
                if ok
                else "solved one level above the summand depth"
            )
            return DepthOptResult(True, g, cur, tuple(cur.names()[len(tower):]), ok, note)
        return None

    if d >= 1 and atoms:
        hit = _search()
        if hit is not None:
            return hit

    # fallback: adjoin the input itself (depth rises by one)
    name = _fallback_name(tower, f) or tower.fresh_name()
    grown = _adjoin_sigma_star_unchecked(tower, f, name, first.note)
    g = TowerElem.gen(len(tower))
    return DepthOptResult(
        True,
        g,
        grown,
        (name,),
        d <= 1,  # over Q(x) the base engine's completeness certifies optimality
        "fallback: adjoined the input as a new generator",
    )
