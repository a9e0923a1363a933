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
which the input telescopes, so only those are adjoined, and the relation
that reaches that one already holds the telescoper: it is read off and
residual-checked, never solved again in the grown tower.  Failing that it
falls back to adjoining the input itself, which raises the depth by one.

Adjunction is guarded here: a sum-like generator is only added after the
telescoping equation for its summand has been shown unsolvable in the
current field (by the search's relation solve, or the in-tower solve of
the fallback), and a product-like generator only after adjoin_pi has
checked Karr's first-order criterion.  The certificate is stored on the
generator, so a tower is auditable after the fact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import (
    Poly,
    RatFunc,
    equal_degree_shift,
    factor_atoms,
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
    _coeff_elems,
    constant_component,
    depth,
    elem_to_str,
    occurring_generators,
    sigma,
)

__all__ = [
    "UnsupportedShape",
    "PiCriterionFails",
    "NotYetSupported",
    "ResidualCheckFailed",
    "TelescopeResult",
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
    prefix, fails sigma(g) - g == f there; never expected."""


@dataclass(frozen=True)
class TelescopeResult:
    solved: bool
    g: TowerElem = None
    certificate: str = ""


@dataclass(frozen=True)
class DepthOptResult:
    solved: bool
    g: TowerElem
    tower: Tower
    adjoined: tuple
    optimality_certified: bool
    note: str = ""


# ---------------------------------------------------------------------------
# Base field: sigma(u)*gamma - u = sum c_k phi_k over Q(x)
# ---------------------------------------------------------------------------

_PONE = Poly.from_ints(1)


def _shift_gcd_candidates(A: Poly, B: Poly) -> set:
    """All j >= 0 with gcd(A(x), B(x+j)) nontrivial."""
    out = set()
    atoms_a = [p for p, _ in factor_atoms(A)] if A.degree >= 1 else []
    atoms_b = [q for q, _ in factor_atoms(B)] if B.degree >= 1 else []
    for p in atoms_a:
        for q in atoms_b:
            if p.degree != q.degree:
                continue
            j = equal_degree_shift(q, p)  # p(x) == q(x+j)
            if j is not None and j >= 0 and j == int(j):
                out.add(int(j))
    # degree <= 2 atoms are certainly irreducible, so the pairwise test
    # above is complete; only fall back to brute gcds when the factorizer
    # may have left a composite atom behind
    if any(p.degree > 2 for p in atoms_a + atoms_b):
        for j in range(0, 41):
            if j in out:
                continue
            if poly_gcd(A, B.shift(j)).degree >= 1:
                out.add(j)
    return out


def universal_denominator(a: Poly, b: Poly) -> Poly:
    """Denominator bound for rational solutions of a*u(x+1) + b*u(x) = C
    with polynomial C (Abramov's construction on a(x-1) and b(x))."""
    A = a.shift(-1)
    B = b
    D = _PONE
    for j in sorted(_shift_gcd_candidates(A, B), reverse=True):
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


def solve_first_order(gamma: RatFunc, phis) -> list:
    """Basis of the (u, c) solution space of sigma(u)*gamma - u = sum c_k phi_k
    with u in Q(x); entries are (RatFunc, tuple-of-Fraction) pairs."""
    if gamma.is_zero():
        raise ValueError("gamma must be nonzero")
    phis = list(phis)
    k = len(phis)
    gn, gd = gamma.num, gamma.den

    # clear denominators: gn*u(x+1) - gd*u = gd * sum c_k phi_k, then * E
    rhs = [phi * RatFunc.from_poly(gd) for phi in phis]
    E = _PONE
    for r in rhs:
        E = poly_lcm(E, r.den)
    a = gn * E
    b = -(gd * E)
    Cs = []
    for r in rhs:
        q, rem = divmod(E, r.den)
        if not rem.is_zero():
            raise ArithmeticError("common denominator failed to clear a right-hand side")
        Cs.append(q * r.num)

    D = universal_denominator(a, b)
    Dup = D.shift(1)
    L = poly_lcm(D, Dup)
    A2 = a * L.exact_div(Dup)
    B2 = b * L.exact_div(D)
    C2 = [c * L for c in Cs]

    rhs_deg = max([c.degree for c in C2], default=-1)
    N = _degree_bound(A2, B2, rhs_deg)

    # columns: z_0..z_N then c_1..c_k
    cols = []
    for i in range(N + 1):
        xi = Poly.x_power(i)
        cols.append(A2 * xi.shift(1) + B2 * xi)
    for c in C2:
        cols.append(-c)
    nz = N + 1
    maxdeg = max([p.degree for p in cols], default=-1)
    rows = [[col.coeff(d) for col in cols] for d in range(maxdeg + 1)]
    basis = nullspace(rows, nz + k)

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


_PI_POWERS = 6


def adjoin_pi(tower: Tower, alpha: TowerElem, name: str = None) -> Tower:
    """Extend the tower by t with s(t) = alpha * t after checking Karr's
    criterion: no nonzero g in the current field solves s(g) = alpha^m * g.

    Only a base-level alpha over a tower of product-like generators p_i
    with base-level ratios alpha_i is certified; anything else raises
    NotYetSupported.  Each p_i was adjoined through this check, so every
    such g is u * prod p_i^k_i with u in Q(x), and s(g) = alpha^m * g
    becomes the first-order equation s(u) * alpha^-m * prod alpha_i^k_i = u.
    It is solved for m = 1.._PI_POWERS and every |k_i| <= _PI_POWERS; a
    witness raises PiCriterionFails, which prints g.  A relation whose m or
    some |k_i| exceeds _PI_POWERS goes unnoticed.
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
    alphas = [g.shift_part.rf for g in tower.gens]
    exponents = range(-_PI_POWERS, _PI_POWERS + 1)
    for m in range(1, _PI_POWERS + 1):
        for ks in itertools.product(exponents, repeat=len(alphas)):
            gamma = alpha.rf ** (-m)
            for a, k in zip(alphas, ks):
                gamma = gamma * a ** k
            u = homogeneous_first_order(gamma)
            if u is not None:
                g = TowerElem.base(u)
                for i, k in enumerate(ks):
                    g = g * TowerElem.gen(i) ** k
                raise PiCriterionFails(name, m, g, elem_to_str(tower, g))
    gen = Generator(
        name,
        "pi",
        alpha,
        depth(tower, alpha) + 1,
        f"sigma(g) = alpha^m * g has no solution g != 0 for m <= {_PI_POWERS}"
        f" and exponents of earlier products up to {_PI_POWERS}",
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
    return _coeff_elems(phi.rf.num)


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
    for i, c in enumerate(_coeff_elems(phi.rf.num)):
        if not c.is_zero():
            out[i - m] = c / _coeff_elems(den)[m]
    return out


def _solve_param(tower: Tower, level: int, gamma: TowerElem, phis: list) -> list:
    # level subproblems recur identically across the search's relation
    # solves, one per candidate block, and the later sum nodes of one
    # compile, so memoize on (generator prefix, gamma, phis) in the memo
    # every tower of one lineage shares; generators hash by identity and the
    # key holds them, so no id is recycled under it
    cache = tower._solve_cache
    key = (tower.gens[:level], gamma, tuple(phis))
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _solve_param_impl(tower, level, gamma, phis)
    return hit


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
        res = solve_first_order(gamma.rf, base_phis)
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
    cmap = [tuple(Fraction(int(i == j)) for j in range(k)) for i in range(k)]
    umap = {}
    for slot in slots:
        sub = solve_slot(slot, cmap, umap)
        if not sub:
            return []
        new_cmap = []
        new_umap = {j: [] for j in umap}
        for _, d in sub:
            nonzero = [(p, dp) for p, dp in enumerate(d) if dp]
            row = [Fraction(0)] * k
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


def telescope_tower(tower: Tower, f: TowerElem) -> TelescopeResult:
    """sigma(g) - g = f with g anywhere in the given tower (no growth)."""
    basis = _solve_param(tower, len(tower), ONE, [f])
    for g, c in basis:
        if c[0]:
            g = _checked(tower, g / c[0], f)
            return TelescopeResult(True, g, "residual verified")
    return TelescopeResult(
        False,
        None,
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


def _collect_base_dens(f: TowerElem, acc: list):
    if f.level == 0:
        if f.rf.den.degree >= 1:
            acc.append(f.rf.den)
        return
    for c in f.rf.num.coeffs:
        if isinstance(c, TowerElem):
            _collect_base_dens(c, acc)
    for c in f.rf.den.coeffs:
        if isinstance(c, TowerElem):
            _collect_base_dens(c, acc)


def _candidate_atoms(f: TowerElem) -> list:
    """Shift-normalized atom representatives of every base denominator
    occurring in f, in a deterministic order."""
    dens = []
    _collect_base_dens(f, dens)
    reps = set()
    for d in dens:
        for atom, _ in factor_atoms(d):
            rep, _ = shift_class(atom)
            reps.add(rep)
    return sorted(reps, key=lambda p: (p.degree, p.coeffs))


def _occurring_monomials(tower: Tower, f: TowerElem, total_deg: int,
                         max_depth: int, pi_idx: tuple) -> list:
    """(monomial, product-degree vector) pairs of the given total degree in
    generators that occur in f and have depth <= max_depth.  Restricting to
    occurring generators keeps the candidate family small on a compile's
    tower, which also holds the generators of the expression's other sums."""
    pos = {i: p for p, i in enumerate(pi_idx)}
    if total_deg == 0:
        return [(ONE, (0,) * len(pi_idx))]
    occ = sorted(
        i for i in occurring_generators(tower, f)
        if i >= 0 and tower.gens[i].depth <= max_depth
    )
    out = []
    for combo in itertools.combinations_with_replacement(occ, total_deg):
        mu = ONE
        vec = [0] * len(pi_idx)
        for i in combo:
            mu = mu * TowerElem.gen(i)
            if i in pos:
                vec[pos[i]] += 1
        out.append((mu, tuple(vec)))
    return out


def _pi_degree_support(tower: Tower, f: TowerElem, pi_idx: tuple):
    """Product-degree vectors over pi_idx realized by f's monomials, or
    None when a mixed denominator leaves them ambiguous.

    sigma(g) - g = f splits per product degree, and a legal product
    generator admits no rational homogeneous solution, so a new sum-like
    generator can only contribute at the product degree of its shift part.
    Candidates outside the support are provably useless."""
    pos = {i: p for p, i in enumerate(pi_idx)}
    zero = (0,) * len(pi_idx)

    def poly_set(p: Poly, li: int):
        out = set()
        for j, c in enumerate(p.coeffs):
            if not c:
                continue
            sub = elem_set(c) if isinstance(c, TowerElem) else {zero}
            if sub is None:
                return None
            if li in pos and j:
                sub = {
                    v[:pos[li]] + (v[pos[li]] + j,) + v[pos[li] + 1:]
                    for v in sub
                }
            out |= sub
        return out

    def elem_set(g: TowerElem):
        if g.level == 0:
            return {zero}
        li = g.level - 1
        nset = poly_set(g.rf.num, li)
        dset = poly_set(g.rf.den, li)
        if nset is None or dset is None or len(dset) != 1:
            return None
        d0 = next(iter(dset))
        return {tuple(a - b for a, b in zip(v, d0)) for v in nset}

    return elem_set(f)


def _series_name(tower: Tower, atom: Poly, e: int):
    """h/h2/... for 1/x^e sums, o/o2/... for 1/(x+1/2)^e,
    q/q2/... for 1/(x+1/4)^e."""
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
    return name if name not in tower.names() else None


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
    return _series_name(tower, rep, e)


def _dependency_closure(tower: Tower, indices: set) -> set:
    out = set()
    todo = list(indices)
    while todo:
        i = todo.pop()
        if i in out:
            continue
        out.add(i)
        for dep in occurring_generators(tower, tower.gens[i].shift_part):
            if dep >= 0 and dep not in out:
                todo.append(dep)
    return out


def _remap_poly(p: Poly, level_map: dict) -> Poly:
    return Poly(tuple(
        _remap_elem(c, level_map) if isinstance(c, TowerElem) else c
        for c in p.coeffs
    ))


def _remap_elem(f: TowerElem, level_map: dict) -> TowerElem:
    if f.level == 0:
        return f
    new_level = level_map[f.level]
    return TowerElem(
        new_level,
        RatFunc(
            _remap_poly(f.rf.num, level_map),
            _remap_poly(f.rf.den, level_map),
            _normalized=True,
        ),
    )


def _prune_tower(grown: Tower, g: TowerElem, base_len: int):
    """Drop adjoined generators that ended up unused by g; remap g and the
    kept generators into the smaller tower."""
    used = {i for i in occurring_generators(grown, g) if i >= base_len}
    keep = _dependency_closure(grown, used)
    keep = {i for i in keep if i >= base_len}
    kept_sorted = sorted(keep)
    old_to_new = {i: i for i in range(base_len)}
    for new_i, old_i in enumerate(kept_sorted, start=base_len):
        old_to_new[old_i] = new_i
    level_map = {old + 1: new + 1 for old, new in old_to_new.items()}

    gens = list(grown.gens[:base_len])
    for old_i in kept_sorted:
        gen = grown.gens[old_i]
        gens.append(
            Generator(
                gen.name,
                gen.kind,
                _remap_elem(gen.shift_part, level_map),
                gen.depth,
                gen.certificate,
            )
        )
    # the generators below base_len are the same objects, so their solves
    # stay in the shared memo
    pruned = Tower(gens, grown._solve_cache)
    return pruned, _remap_elem(g, level_map), tuple(grown.gens[i].name for i in kept_sorted)


_ADJOIN_BUDGET = 24


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


def _read_off(rows: dict, hit: int, adjoined: list, base_len: int) -> TowerElem:
    """The telescoper of f = phi_0 in the tower grown by the candidates
    `adjoined` (hit last), read off the echelon row that ends at hit.

    Every row below hit has c_0 = 0 and ends at an illegal candidate, so
    subtracting those rows from the highest down clears the hit row's
    illegal entries without touching c_0 or any entry above.  What is left,
    sigma(g_T) - g_T = c_0*f + sum over adjoined j of c_j*beta_j, gives
    g = (g_T - sum c_j*t_j) / c_0 once t_j is the generator for beta_j."""
    g, vec = rows[hit]
    for j in sorted((j for j in rows if j < hit), reverse=True):
        if vec[j]:
            g, vec = _cancel(g, vec, rows[j], j)
    for pos, j in enumerate(adjoined, start=base_len):
        if vec[j]:
            g = g - vec[j] * TowerElem.gen(pos)
    return g / vec[0]


def _adjoin_legal(tower: Tower, cands: list, legal: list, dim: int) -> Tower:
    """Adjoin the legal candidates (1-based indices into cands) in order,
    under the names the one-at-a-time search gave them."""
    cur = tower
    for i in legal:
        beta, series = cands[i - 1]
        name = _series_name(cur, *series) if series else None
        cur = _adjoin_sigma_star_unchecked(
            cur,
            beta,
            name or cur.fresh_name(),
            "no relation sigma(g) - g = c_0*f + sum c_j*beta_j"
            f" over {tower!r} ends at candidate {i}"
            f" (relation space dim {dim})",
        )
    return cur


def telescope_depth_optimal(
    tower: Tower,
    f: TowerElem,
    max_atom_power: int = 6,
    max_monomial_degree: int = 3,
    allow_fallback: bool = True,
) -> DepthOptResult:
    """Find g with sigma(g) - g = f of smallest available depth.

    Strategy: try the given tower, then look for sum-like generators
    t_i with sigma(t_i) = t_i + beta_i built from the input's pole
    structure (beta_i = sigma(mu/atom^e), mu a monomial in occurring
    generators), in a fixed candidate order.  Every beta_i lies in the
    given tower T, so by Karr's structure theorem f telescopes once the
    legal candidates up to i are adjoined exactly when some relation
    sigma(g) - g = c_0*f + sum c_j*beta_j with g in T has c_0 != 0 and
    c_j = 0 for j > i, and beta_i is illegal (telescopes in the grown
    tower) exactly when a relation with c_0 = 0 ends at i.  The search
    therefore solves these relations over T after each block of
    candidates and adjoins only the legal candidates up to the first
    success.  That relation also gives g: with t_j the generator for
    beta_j, g = (g_T - sum c_j*t_j) / c_0 once the illegal candidates are
    eliminated from it (_read_off), and g is then residual-checked in the
    grown tower.  An in-tower answer ends the search at once: solutions
    are unique up to additive constants, so no extension can present a
    shallower one.  The first pass only considers shift parts of depth
    < depth(f), so a hit there is depth-optimal; a second pass allows
    shift parts of depth equal to depth(f), whose solutions sit one level
    higher and are reported uncertified (except over depth-1 input, where
    one level up is provably the floor).  The search gives up once the
    first success would need more than _ADJOIN_BUDGET adjunctions.  With
    allow_fallback, an exhausted search adjoins f itself.  Pruning keeps
    only the adjoined generators g actually depends on; the tower prefix
    passed in is never touched, so elements built on it stay valid on the
    returned tower."""
    first = telescope_tower(tower, f)
    d = depth(tower, f)
    if first.solved:
        # solutions are unique up to additive constants, and legal
        # extensions keep the constant field fixed, so no extension can
        # hold a shallower rewrite: the in-tower depth is the floor.  It
        # exceeds depth(f) + 1 only when the supplied presentation is
        # itself not depth-optimal, and then it is still the floor.
        return DepthOptResult(
            True, first.g, tower, (), True,
            "solved in the given tower",
        )

    atoms = _candidate_atoms(f)
    pi_idx = tuple(i for i, g in enumerate(tower.gens) if g.kind == "pi")
    supp = _pi_degree_support(tower, f, pi_idx) if pi_idx else None
    taken = {g.shift_part for g in tower.gens if g.kind == "sigma"}

    def _search():
        cands = []  # (beta, (atom, e) for a series name, or None)
        for cap, preserving in ((d - 1, True), (d, False)):
            for mono_deg in range(0, max_monomial_degree + 1):
                mus = _occurring_monomials(tower, f, mono_deg, cap, pi_idx)
                # low-weight monomials first, then increasing atom power,
                # so e.g. sums weighted by 1/k^2 win over heavier
                # coefficients at 1/k
                for mu, degvec in mus:
                    if supp is not None and degvec not in supp:
                        continue
                    for e in range(1, max_atom_power + 1):
                        before = len(cands)
                        for atom in atoms:
                            inv_pow = TowerElem.base(RatFunc(_PONE, atom ** e))
                            beta = sigma(tower, mu * inv_pow)
                            if depth(tower, beta) > cap or beta == f:
                                continue
                            if beta not in taken:
                                taken.add(beta)
                                cands.append((beta, (atom, e) if mu == ONE else None))
                        if len(cands) == before:
                            continue
                        # one relation solve per (monomial, atom power)
                        # block keeps the candidate list short when f
                        # telescopes early and the solves few when it does not
                        basis = _solve_param(
                            tower, len(tower), ONE, [f] + [b for b, _ in cands]
                        )
                        rows = _echelon_by_last(basis)
                        hit = min((i for i, (_, c) in rows.items() if c[0]), default=None)
                        # earlier blocks had no hit, so a hit lies in this one
                        end = len(cands) if hit is None else hit - 1
                        legal = [i for i in range(1, end + 1) if i not in rows]
                        if len(legal) >= _ADJOIN_BUDGET:
                            return None
                        if hit is None:
                            continue
                        adjoined = legal + [hit]
                        cur = _adjoin_legal(tower, cands, adjoined, len(basis))
                        g = _read_off(rows, hit, adjoined, len(tower))
                        g = _checked(cur, g, f)
                        dg = depth(cur, g)
                        # depth-1 shift parts are never legal, so a depth-2
                        # answer over a depth-1 input is already as low as
                        # it can get
                        ok = (preserving and dg <= d) or (d <= 1 and dg <= d + 1)
                        note = (
                            "solved after adjoining depth-preserving generator(s)"
                            if ok
                            else "solved one level above the summand depth"
                        )
                        pruned, g2, kept = _prune_tower(cur, g, len(tower))
                        return DepthOptResult(True, g2, pruned, kept, ok, note)
        return None

    if d >= 1 and atoms:
        hit = _search()
        if hit is not None:
            return hit

    if not allow_fallback:
        return DepthOptResult(False, None, tower, (), False, first.certificate)

    # fallback: adjoin the input itself (depth rises by one)
    name = _fallback_name(tower, f) or tower.fresh_name()
    grown = _adjoin_sigma_star_unchecked(tower, f, name, first.certificate)
    g = TowerElem.gen(len(tower))
    return DepthOptResult(
        True,
        g,
        grown,
        (name,),
        d <= 1,  # over Q(x) the base engine's completeness certifies optimality
        "fallback: adjoined the input as a new generator",
    )
