"""Independent oracles the suite checks library output against.

Everything here is written straight from the raw definitions and shares no
code path with the library: plain enumeration, grid scans, and a second
reading of the distance formulas. Slow is fine, inputs are small.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from lotdist import Election, Lottery, Multiset


def beats_power_enum(e: Election, a, d: Lottery, k: int) -> Fraction:
    """Pr[a beats k i.i.d. draws from d], by summing over all k-tuples.

    Per voter and tuple T: a wins only when a is the voter's favourite among
    {a} union T, and then with probability 1/(1 + multiplicity of a in T),
    splitting the tie among equal copies.
    """
    supp = sorted(d.support())
    probs = {c: Fraction(d.prob(c)) for c in supp}
    total_weight = sum(v.weight for v in e.voters)
    positions = [
        (v.weight, {c: i for i, c in enumerate(v.ranking)}) for v in e.voters
    ]
    result = Fraction(0)
    for tup in itertools.product(supp, repeat=k):
        p_tuple = math.prod((probs[c] for c in tup), start=Fraction(1))
        if p_tuple == 0:
            continue
        won = Fraction(0)
        entrants = set(tup) | {a}
        for weight, pos in positions:
            best = min(entrants, key=pos.__getitem__)
            if best == a:
                won += Fraction(weight, (1 + tup.count(a)) * total_weight)
        result += p_tuple * won
    return result


def fraction_sampling(e: Election, base: Lottery, q: int, seed) -> Multiset:
    """q inversion draws from ``base``, one exact Fraction comparison per draw.

    Each uniform u is converted to its exact rational and scaled by the exact
    weight total, then compared against the cumulative weights in candidate
    order; candidates enter the multiset in order of first draw.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cands = [c for c in e.candidates if c in base.weights]
    cum = []
    acc = Fraction(0)
    for c in cands:
        acc += Fraction(base.weights[c])
        cum.append(acc)
    counts: dict = {}
    for u in rng.random(q):
        x = Fraction(float(u)) * acc
        c = next(c for c, bound in zip(cands, cum) if x < bound)
        counts[c] = counts.get(c, 0) + 1
    return Multiset(counts)


def definition_distances(e: Election, x: dict, i_star) -> dict:
    """Distance table of the pushed-apart pseudometric, from the definition.

    d(i*, v) = (1/2) max over ordered pairs i weakly-above j of (x_i - x_j),
    d(j, v)  = d(i*, v) + min of x over candidates weakly below j.
    The max scans all O(m^2) pairs rather than a prefix sweep, so it cannot
    share a bug with the library's single-pass version.
    """
    assert Fraction(x[i_star]) == 0
    table = {c: [] for c in e.candidates}
    for v in e.voters:
        r = v.ranking
        drop = max(
            Fraction(x[r[i]]) - Fraction(x[r[j]])
            for i in range(len(r))
            for j in range(i, len(r))
        )
        d_star = drop / 2
        for j in e.candidates:
            pos_j = r.index(j)
            suffix = min(Fraction(x[c]) for c in r[pos_j:])
            table[j].append(d_star + suffix)
    return table


def social_cost(e: Election, table: dict, c) -> Fraction:
    total = sum(v.weight for v in e.voters)
    return sum(
        Fraction(v.weight) * table[c][i] for i, v in enumerate(e.voters)
    ) / total


def direct_ratio(e: Election, x: dict, i_star, d: Lottery):
    """Expected-cost ratio under the bias vector's metric; None when SC(i*) = 0."""
    table = definition_distances(e, x, i_star)
    denom = social_cost(e, table, i_star)
    numer = sum(
        Fraction(d.prob(c)) * social_cost(e, table, c) for c in d.support()
    )
    if denom == 0:
        return None
    return numer / denom


def table_is_admissible(e: Election, table: dict, tol=0) -> bool:
    """Check a candidate-voter distance table against the metric constraints.

    Nonnegativity, per-voter ranking consistency, and the four-point
    inequality d(i,v) <= d(i,v') + d(j,v') + d(j,v) for all i, j, v, v'.
    """
    nv = len(e.voters)
    for c in e.candidates:
        for i in range(nv):
            if table[c][i] < -tol:
                return False
    for i, v in enumerate(e.voters):
        for hi in range(len(v.ranking) - 1):
            if table[v.ranking[hi]][i] > table[v.ranking[hi + 1]][i] + tol:
                return False
    for ci in e.candidates:
        for cj in e.candidates:
            for vi in range(nv):
                for vj in range(nv):
                    bound = table[ci][vj] + table[cj][vj] + table[cj][vi]
                    if table[ci][vi] > bound + tol:
                        return False
    return True


def grid_min_max_power(e: Election, k: int, steps: int = 200) -> float:
    """min over the simplex grid of max_a Pr[a beats D^k], three candidates.

    Floats; grid resolution 1/steps. Uses the tuple enumeration above on
    each grid point, so it is a wholly separate route to the game value.
    """
    assert e.m == 3
    cands = e.candidates
    best = math.inf
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            weights = (
                Fraction(i, steps),
                Fraction(j, steps),
                Fraction(steps - i - j, steps),
            )
            d = Lottery(
                {c: w for c, w in zip(cands, weights) if w > 0}
            )
            worst = max(float(beats_power_enum(e, a, d, k)) for a in cands)
            best = min(best, worst)
    return best


def lambda_grid_feasible(lam: float, theta: float, k: int, eps: float,
                         points: int = 10**4) -> bool:
    """Grid form of the pruning-constant constraint.

    Feasibility of lam means every p in (0, 1] satisfies
    p <= max((lam/theta)(1-theta), (lam/theta)(1 - (1/(k+1)+eps) p^-k)).
    """
    flat = (lam / theta) * (1 - theta)
    rate = 1 / (k + 1) + eps
    for i in range(1, points + 1):
        p = i / points
        curve = (lam / theta) * (1 - rate * p**-k)
        if p > max(flat, curve) + 1e-15:
            return False
    return True


def recursive_quasi_kernel(vertices: tuple, edges) -> tuple:
    """Quasi-kernel by the textbook induction, recursing once per removal.

    Take the last vertex u, recurse on the graph without u and its
    out-neighbours, and add u unless the smaller kernel has an edge into u.
    Members come back in vertex order.
    """
    def construct(vs: tuple) -> list:
        if not vs:
            return []
        u = vs[-1]
        rest = tuple(v for v in vs[:-1] if (u, v) not in edges)
        inner = construct(rest)
        return inner if any((v, u) in edges for v in inner) else inner + [u]

    members = set(construct(tuple(vertices)))
    return tuple(v for v in vertices if v in members)


def binomial_band(trials: int, p: float, sigmas: float = 3.0) -> tuple:
    """Frequency interval mean +- sigmas standard errors."""
    se = math.sqrt(p * (1 - p) / trials)
    return p - sigmas * se, p + sigmas * se
