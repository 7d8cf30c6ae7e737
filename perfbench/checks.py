"""Output checks computed apart from lotdist.

Nothing here calls a lotdist function: margins are integer counts over the
ballots, Pr[a beats D^k] is the binomial sum over the number of drawn copies
of a, and distortion is re-solved with a compact LP of this file's own
(one free D(i, j) per candidate pair, |d(i,g) - d(j,g)| <= D(i,j) <=
d(i,g) + d(j,g) for every distinct ranking g) through scipy's HiGHS.  Only the
data fields of lotdist's result objects are read.  A failed check raises
``CheckFailed``.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

AGREE_TOL = 1e-9           # compact LP vs reported distortion, and ratio recompute
WITNESS_TOL = 1e-6         # float witness tables: nonnegativity, order, four-point
SL_TOL = Fraction(1, 10**6)


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def groups(e) -> list[tuple[tuple, int]]:
    """Distinct rankings with their summed voter weight, in first-seen order."""
    weight: dict[tuple, int] = {}
    for v in e.voters:
        weight[v.ranking] = weight.get(v.ranking, 0) + v.weight
    return list(weight.items())


def margins(e) -> dict:
    """s(i, j) as exact fractions from integer counts, s(i, i) = 1/2."""
    n = sum(w for _, w in groups(e))
    count = {(i, j): 0 for i in e.candidates for j in e.candidates}
    for ranking, w in groups(e):
        for x, i in enumerate(ranking):
            for j in ranking[x + 1:]:
                count[i, j] += w
    return {(i, j): Fraction(1, 2) if i == j else Fraction(count[i, j], n)
            for i in e.candidates for j in e.candidates}


def _exact_weights(lottery) -> dict:
    _require(lottery.is_exact, "lottery weights are not exact rationals")
    weights = {c: Fraction(w) for c, w in lottery.weights.items()}
    _require(all(w >= 0 for w in weights.values()), "negative lottery weight")
    _require(sum(weights.values()) == 1, "lottery weights do not sum to 1")
    return weights


def beats_power(e, a, weights: dict, k: int) -> Fraction:
    """Pr[a beats k i.i.d. draws from ``weights``], ties splitting the win.

    For one voter with mass w strictly below a and mass t on a, the draws win
    for a when none lands above a; with j copies of a drawn the credit is
    1/(j+1): sum_j C(k, j) t^j w^(k-j) / (j+1).
    """
    total, n = Fraction(0), 0
    t = weights.get(a, Fraction(0))
    for ranking, vw in groups(e):
        below = ranking[ranking.index(a) + 1:]
        w = sum((weights.get(c, Fraction(0)) for c in below), Fraction(0))
        p = sum(Fraction(math.comb(k, j)) * t**j * w**(k - j) / (j + 1)
                for j in range(k + 1))
        total += vw * p
        n += vw
    return total / n


def worst_power(e, weights: dict, k: int) -> Fraction:
    return max(beats_power(e, a, weights, k) for a in e.candidates)


Ballot = namedtuple("Ballot", "ranking weight")
Profile = namedtuple("Profile", "candidates voters")


def restrict(e, keep) -> Profile:
    """The profile on the kept candidates, each ranking filtered in order."""
    keep = set(keep)
    return Profile(tuple(c for c in e.candidates if c in keep),
                   tuple(Ballot(tuple(c for c in v.ranking if c in keep), v.weight)
                         for v in e.voters))


# ---------------------------------------------------------------------------
# Maximal lotteries


def check_ml(e, ml) -> None:
    p = _exact_weights(ml)
    _require(set(p) <= set(e.candidates), "ML names an unknown candidate")
    s = margins(e)
    for b in e.candidates:
        score = sum(p.get(i, 0) * s[i, b] for i in e.candidates)
        _require(score >= Fraction(1, 2), f"ML scores {score} < 1/2 against {b}")
        if p.get(b, 0) > 0:
            _require(score == Fraction(1, 2),
                     f"ML support candidate {b} is not tied at 1/2 ({score})")


# ---------------------------------------------------------------------------
# Distortion


def compact_distortion(e, p: dict) -> float:
    """max over references o of the compact LP; math.inf when one is unbounded."""
    cands = e.candidates
    grp = groups(e)
    m, g_count = len(cands), len(grp)
    n = float(sum(w for _, w in grp))
    idx = {c: x for x, c in enumerate(cands)}
    pairs = list(itertools.combinations(range(m), 2))
    nvars = m * g_count + len(pairs)

    def d(c: int, g: int) -> int:
        return c * g_count + g

    rows, cols, vals = [], [], []

    def row(entries):
        r = rows[-1] + 1 if rows else 0
        for col, val in entries:
            rows.append(r)
            cols.append(col)
            vals.append(val)

    for g, (ranking, _) in enumerate(grp):
        for better, worse in zip(ranking, ranking[1:]):
            row([(d(idx[better], g), 1.0), (d(idx[worse], g), -1.0)])
    for pi, (i, j) in enumerate(pairs):
        big_d = m * g_count + pi
        for g in range(g_count):
            row([(d(i, g), 1.0), (d(j, g), -1.0), (big_d, -1.0)])
            row([(d(j, g), 1.0), (d(i, g), -1.0), (big_d, -1.0)])
            row([(big_d, 1.0), (d(i, g), -1.0), (d(j, g), -1.0)])
    nrows = rows[-1] + 1
    a_ub = coo_matrix((vals, (rows, cols)), shape=(nrows, nvars)).tocsr()
    cost = np.zeros(nvars)
    for c, pc in p.items():
        for g, (_, w) in enumerate(grp):
            cost[d(idx[c], g)] = -float(pc) * w
    bounds = [(0, None)] * (m * g_count) + [(None, None)] * len(pairs)
    best = -math.inf
    for o in range(m):
        a_eq = np.zeros((1, nvars))
        for g, (_, w) in enumerate(grp):
            a_eq[0, d(o, g)] = w
        res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(nrows), A_eq=a_eq, b_eq=[n],
                      bounds=bounds, method="highs")
        if res.status == 3:
            return math.inf
        _require(res.status == 0, f"compact LP failed: {res.message}")
        best = max(best, -res.fun / n)
    return best


def _close(a, b, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_witness(e, p: dict, report, exact: bool) -> None:
    table = report.witness_metric
    cands = e.candidates
    _require(set(table) == set(cands), "witness table does not cover the candidates")
    tol = 0 if exact else WITNESS_TOL
    columns = {tuple(table[c][x] for c in cands) for x in range(len(e.voters))}
    for col in columns:
        _require(all(dv >= -tol for dv in col), "negative witness distance")
    for x, v in enumerate(e.voters):
        for better, worse in zip(v.ranking, v.ranking[1:]):
            _require(table[better][x] <= table[worse][x] + tol,
                     f"witness breaks voter {x}'s ranking at {better} > {worse}")
    cols = list(columns)
    m = len(cands)
    if exact:
        for g, h in itertools.permutations(range(len(cols)), 2):
            for i, j in itertools.permutations(range(m), 2):
                _require(cols[g][i] <= cols[h][i] + cols[h][j] + cols[g][j],
                         "witness breaks a four-point inequality")
    else:
        arr = np.array(cols, dtype=float)
        off = ~np.eye(len(cols), dtype=bool)
        for i, j in itertools.permutations(range(m), 2):
            lhs = arr[:, i][:, None]
            rhs = arr[:, i][None, :] + arr[:, j][None, :] + arr[:, j][:, None]
            _require(bool(np.all((lhs <= rhs + tol) | ~off)),
                     "witness breaks a four-point inequality")
    weights = [v.weight for v in e.voters]
    num = sum(pc * sum(w * dv for w, dv in zip(weights, table[c]))
              for c, pc in p.items() if pc)
    den = sum(w * dv for w, dv in zip(weights, table[report.reference_candidate]))
    ratio = num / den
    if exact:
        _require(ratio == report.value, f"witness ratio {ratio} != {report.value}")
    else:
        _require(_close(float(ratio), float(report.value), AGREE_TOL),
                 f"witness ratio {ratio} != {report.value}")


def check_distortion(e, lottery, report, mode: str, is_ml: bool) -> None:
    exact = mode == "exact"
    if exact:
        p = _exact_weights(lottery)
        _require(isinstance(report.value, Fraction), "exact distortion is not rational")
    else:
        p = {c: float(w) for c, w in lottery.weights.items()}
    value = float(report.value)
    expected = compact_distortion(e, p)
    _require(_close(value, expected, AGREE_TOL),
             f"distortion {value!r} disagrees with the compact LP {expected!r}")
    _require(value >= 1 - (0 if exact else AGREE_TOL), f"distortion {value} < 1")
    if is_ml:
        _require(value <= 3 + AGREE_TOL, f"ML distortion {value} > 3")
    if not math.isinf(value):
        _check_witness(e, p, report, exact)


# ---------------------------------------------------------------------------
# Certificates, stable lotteries, mixtures


def _check_certificate(e, cert, base_weights: dict, k: int, eps: float,
                       gamma: float) -> None:
    _require(cert.k == k, f"certificate k={cert.k}, expected {k}")
    d = _exact_weights(cert.distribution)
    support = {c for c, w in d.items() if w > 0}
    base_support = {c for c, w in base_weights.items() if w > 0}
    _require(support <= base_support, "certificate leaves the base's support")
    worst = worst_power(e, d, k)
    bound = Fraction(1, k + 1) + Fraction((1.0 + gamma) * eps)
    _require(worst <= bound, f"certificate value {worst} > bound {bound}")
    _require(abs(float(worst) - cert.achieved) <= 1e-12,
             f"certificate reports {cert.achieved}, recomputed {float(worst)}")


def check_ml_certificate(e, cert, ml, eps: float, gamma: float) -> None:
    ml_weights = _exact_weights(ml)
    _require(_exact_weights(cert.base) == ml_weights, "certificate base is not the ML")
    _check_certificate(e, cert, ml_weights, 1, eps, gamma)


def check_stable(e, pair, k: int) -> None:
    _require(pair.k == k, f"stable pair has k={pair.k}, expected {k}")
    worst = worst_power(e, _exact_weights(pair.attacker), k)
    _require(worst <= Fraction(1, k + 1) + SL_TOL,
             f"stable lottery value {worst} exceeds 1/{k + 1} + tol")


def check_quasi_kernel(e, members, theta: Fraction) -> None:
    s = margins(e)
    cands = e.candidates
    edge = {(a, b) for a in cands for b in cands if a != b and s[a, b] >= theta}
    kernel = set(members)
    _require(bool(kernel) and kernel <= set(cands), "quasi-kernel is empty or foreign")
    _require(not any((a, b) in edge for a in kernel for b in kernel),
             "quasi-kernel is not independent")
    reach = set(kernel)
    for a in kernel:
        one = {b for b in cands if (a, b) in edge}
        reach |= one
        for b in one:
            reach |= {c for c in cands if (b, c) in edge}
    _require(reach == set(cands), "quasi-kernel does not reach all in two steps")
    rs = margins(restrict(e, kernel))
    _require(all(v < theta for (a, b), v in rs.items() if a != b),
             "restriction to the quasi-kernel is not theta-regular")


def check_mixture(e, out, ml, params, eps1: float, eps2: float, gamma: float) -> None:
    mu = out["mu_used"]
    _require(isinstance(mu, Fraction) and 0 < mu < 1, f"mu_used {mu!r} outside (0, 1)")
    _require(abs(float(mu) - params.mu) <= 1e-6, "mu_used is not the rounded mu")
    ml_cert, sl_cert = out["components"]["ml"], out["components"]["stable"]
    check_ml_certificate(e, ml_cert, ml, eps1, gamma)

    theta = Fraction(0.5 + params.beta_tilde)
    check_quasi_kernel(e, out["pruned"], theta)
    pruned = restrict(e, out["pruned"])
    base = _exact_weights(sl_cert.base)
    _require(set(base) <= set(pruned.candidates), "stable base leaves the pruned set")
    _require(worst_power(pruned, base, params.k) <= Fraction(1, params.k + 1) + SL_TOL,
             "stable base is not stable on the pruned election")
    _check_certificate(pruned, sl_cert, base, params.k, eps2, gamma)

    d1 = _exact_weights(ml_cert.distribution)
    d2 = _exact_weights(sl_cert.distribution)
    mixed = _exact_weights(out["lottery"])
    for c in set(e.candidates) | set(mixed):
        want = mu * d1.get(c, 0) + (1 - mu) * d2.get(c, 0)
        _require(mixed.get(c, 0) == want, f"mixture weight of {c} is not mu*D1+(1-mu)*D2")


def check_flatten(lottery, flat) -> None:
    counts = flat.roster.counts
    size = sum(counts.values())
    want = _exact_weights(lottery)
    for c in set(counts) | set(want):
        _require(Fraction(counts.get(c, 0), size) == want.get(c, 0),
                 f"roster share of {c} differs from the lottery")
    _require(_exact_weights(flat.induced) == {c: w for c, w in want.items() if w > 0},
             "induced lottery differs from the flattened one")


# ---------------------------------------------------------------------------
# Roster search


def check_roster_search(e, out, eps: float, max_size: int) -> None:
    """The reported roster is the first in enumeration order below 3 - eps."""
    target = 3 - eps
    _require(out is not None, "roster search found nothing")
    counts = out["roster"].roster.counts
    found = tuple(c for c in e.candidates for _ in range(counts.get(c, 0)))
    _require(1 <= len(found) <= max_size, "roster size outside the search range")
    for size in range(1, len(found) + 1):
        for combo in itertools.combinations_with_replacement(e.candidates, size):
            value = compact_distortion(e, {c: Fraction(combo.count(c), size)
                                           for c in set(combo)})
            if combo == found:
                _require(value < target, f"found roster scores {value} >= {target}")
                _require(_close(float(out["distortion"]), value, AGREE_TOL),
                         "reported roster distortion disagrees with the compact LP")
                return
            _require(value >= target, f"earlier roster {combo} scores {value} < {target}")
    raise CheckFailed("found roster is not in enumeration order")
