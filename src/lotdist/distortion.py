"""Metric distortion measurement: exact LPs, biased metrics, and ratio lemmas.

The distortion of a lottery D is the worst case, over pseudometrics
consistent with the ballots, of expected social cost of D divided by the
social cost of the best single candidate.  Two computation routes live here:

* ``lp_distortion``: the exact worst case.  Pseudometrics are encoded by
  candidate-voter distances with ranking-consistency rows and four-point
  inequalities (the standard exact reduction of metric extension for the
  bipartite distance block); one LP per reference candidate, maximized.

* biased metrics: a one-parameter-per-candidate family (x >= 0, anchored at a
  reference with x = 0) whose social costs have closed forms.  The step
  functions ell and r turn distortion into the integral identity
  ratio = 1 + 2L/R, which is cross-checked against direct social-cost
  evaluation.  These metrics are always feasible for the LP, so they provide
  lower-bound witnesses and fast adversarial search.

The tournament-ratio lemmas (one hop, two hop, balanced two hop, and the
partition-based general form) certify upper bounds on SC(j)/SC(ref) from
margin data alone; ``ratio_certificates`` emits every certificate whose
hypotheses hold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

from .elections import (
    Candidate,
    Election,
    Lottery,
    _positions,
    margin_matrix,
    margin_set_vs_candidate,
    rational_to_json,
)
from .linprog import LinearProgram, solve_lp
from .lotteries import as_exact_lottery, maximal_lottery

__all__ = [
    "BiasedMetricSpec",
    "StepFunction",
    "DistortionReport",
    "biased_metric_distances",
    "ell_function",
    "r_function",
    "biased_distortion",
    "biased_report",
    "lp_distortion",
    "check_sufficient_condition",
    "strong_consistency",
    "ratio_certificates",
    "check_two_hop_general",
    "biased_metric_search",
    "ML_SUPPORT_BOUND",
    "ML_SUPPORT_THETA",
]

EXACT_LP_GUARD = 400
SUBSET_SCAN_GUARD = 22
ML_SUPPORT_THETA = (5.0 - math.sqrt(17.0)) / 4.0
ML_SUPPORT_BOUND = 4.0 + math.sqrt(17.0)


@dataclass(frozen=True)
class BiasedMetricSpec:
    """Per-candidate bias values x >= 0 anchored at a zero-bias reference."""

    x: Mapping[Candidate, object]
    i_star: Candidate

    def __post_init__(self):
        object.__setattr__(self, "x", dict(self.x))
        if self.i_star not in self.x:
            raise ValueError("i_star has no bias value")
        if self.x[self.i_star] != 0:
            raise ValueError("x[i_star] must be 0")
        if any(v < 0 for v in self.x.values()):
            raise ValueError("bias values must be nonnegative")


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous nonincreasing step function vanishing eventually.

    ``values[i]`` holds on ``[breakpoints[i], breakpoints[i+1])``; the last
    value holds from the last breakpoint on and must be 0, keeping the
    integral finite.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bps, vals = tuple(self.breakpoints), tuple(self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) != len(vals) or not bps:
            raise ValueError("breakpoints and values must align and be nonempty")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must increase strictly")
        if any(v2 > v1 + 1e-12 for v1, v2 in zip(vals, vals[1:])):
            raise ValueError("values must be nonincreasing")
        if vals[-1] != 0:
            raise ValueError("final value must be 0")

    def __call__(self, t):
        if t < self.breakpoints[0]:
            raise ValueError(f"t={t} below the domain start {self.breakpoints[0]}")
        idx = 0
        for i, b in enumerate(self.breakpoints):
            if b <= t:
                idx = i
            else:
                break
        return self.values[idx]

    def integral(self):
        total = 0
        for i in range(len(self.breakpoints) - 1):
            total = total + self.values[i] * (self.breakpoints[i + 1] - self.breakpoints[i])
        return total


@dataclass(frozen=True)
class DistortionReport:
    value: object
    reference_candidate: Candidate
    witness_metric: dict | None
    method: str  # "lp" | "biased"

    def to_json(self) -> dict:
        if self.value == math.inf:
            val = "inf"
        elif isinstance(self.value, Rational) and not isinstance(self.value, int):
            val = rational_to_json(self.value)
        else:
            val = float(self.value)
        witness = None
        if self.witness_metric is not None:
            witness = {
                c: [float(d) for d in row] for c, row in self.witness_metric.items()
            }
        return {
            "value": val,
            "reference_candidate": self.reference_candidate,
            "witness_metric": witness,
            "method": self.method,
        }


# ---------------------------------------------------------------------------
# Biased metrics


def biased_metric_distances(e: Election, spec: BiasedMetricSpec) -> dict:
    """Distance table of the biased pseudometric: candidate -> per-voter list.

    d(i*, v) is half the largest bias drop along v's ranking (max over pairs
    i weakly above j of x_i - x_j); every other candidate sits above i* by
    the smallest bias among candidates it weakly beats in v's order.
    """
    x = spec.x
    table: dict[Candidate, list] = {c: [] for c in e.candidates}
    for v in e.voters:
        prefix_max = None
        drop = 0
        for c in v.ranking:
            xc = x[c]
            prefix_max = xc if prefix_max is None else max(prefix_max, xc)
            diff = prefix_max - xc
            if diff > drop:
                drop = diff
        # Halving an int would fall into floats; rationals and floats divide
        # within their own type.
        d_star = Fraction(drop, 2) if isinstance(drop, int) else drop / 2
        suffix_min: list = [None] * len(v.ranking)
        running = None
        for t in range(len(v.ranking) - 1, -1, -1):
            xc = x[v.ranking[t]]
            running = xc if running is None else min(running, xc)
            suffix_min[t] = running
        for t, c in enumerate(v.ranking):
            table[c].append(d_star + suffix_min[t])
    return table


def ell_function(e: Election, spec: BiasedMetricSpec, d: Lottery) -> StepFunction:
    """Expected margin-weighted lottery mass above the bias level.

    At level t the candidates with x <= t form the set I_t; the value is the
    sum over lottery support outside I_t of s(I_t, j) * p_j.  Breakpoints sit
    at the distinct bias values.
    """
    levels = sorted(set(spec.x.values()))
    bps, vals = [], []
    for t in levels:
        inside = [c for c in e.candidates if spec.x[c] <= t]
        total = 0
        for j, pj in d.weights.items():
            if spec.x[j] <= t or pj == 0:
                continue
            total = total + margin_set_vs_candidate(e, inside, j) * pj
        bps.append(t)
        vals.append(total)
    return StepFunction(tuple(bps), tuple(vals))


def r_function(e: Election, spec: BiasedMetricSpec) -> StepFunction:
    """Voter-weight tail of the per-voter maximum bias drop.

    r(t) is the weighted fraction of voters whose ranking exhibits some pair
    i above j with x_i - x_j > t; equivalently Pr[2 d(i*, v) > t].
    """
    x = spec.x
    drops = []
    for v in e.voters:
        prefix_max = None
        drop = 0
        for c in v.ranking:
            xc = x[c]
            prefix_max = xc if prefix_max is None else max(prefix_max, xc)
            diff = prefix_max - xc
            if diff > drop:
                drop = diff
        drops.append(drop)
    n = e.n
    levels = sorted({0} | set(drops))
    bps, vals = [], []
    for t in levels:
        mass = sum(v.weight for v, dv in zip(e.voters, drops) if dv > t)
        bps.append(t)
        vals.append(Fraction(mass, n) if isinstance(t, Rational) else mass / n)
    return StepFunction(tuple(bps), tuple(vals))


def biased_distortion(e: Election, spec: BiasedMetricSpec, d: Lottery) -> dict:
    """Distortion of ``d`` under the biased metric, via the integral identity.

    Returns {"L", "R", "ratio", "degenerate"}; ratio = 1 + 2L/R equals the
    direct social-cost ratio sum_j p_j SC(j) / SC(i*).  R = 0 means the
    metric is all-zero on voters (zero-cost optimum): degenerate, no ratio.
    """
    ell = ell_function(e, spec, d)
    r = r_function(e, spec)
    big_l = ell.integral()
    big_r = r.integral()
    if big_r == 0:
        return {"L": big_l, "R": big_r, "ratio": None, "degenerate": True}
    return {"L": big_l, "R": big_r, "ratio": 1 + 2 * big_l / big_r, "degenerate": False}


def biased_report(e: Election, spec: BiasedMetricSpec, d: Lottery,
                  detail: dict | None = None) -> DistortionReport:
    """biased_distortion wrapped as a DistortionReport with the distance table.

    A degenerate spec zeroes the reference's social cost; the ratio is then
    infinite whenever the lottery still pays anything, and 1 otherwise.
    ``detail`` is ``biased_distortion(e, spec, d)`` when the caller already
    has it, so that it is not computed twice.
    """
    res = biased_distortion(e, spec, d) if detail is None else detail
    if res["degenerate"]:
        value = math.inf if res["L"] > 0 else 1
    else:
        value = res["ratio"]
    return DistortionReport(
        value=value,
        reference_candidate=spec.i_star,
        witness_metric=biased_metric_distances(e, spec),
        method="biased",
    )


# ---------------------------------------------------------------------------
# Exact distortion LP


def _merged_groups(e: Election):
    """Voters with identical rankings merged; returns (rankings, weights, expand).

    Merging is harmless for the LP: duplicate voters share constraint rows,
    and averaging a solution over duplicates preserves feasibility and the
    objective, so the optimum is unchanged.
    """
    order: dict[tuple, int] = {}
    weights: list[int] = []
    expand: list[int] = []
    for v in e.voters:
        g = order.get(v.ranking)
        if g is None:
            g = len(order)
            order[v.ranking] = g
            weights.append(0)
        weights[g] += v.weight
        expand.append(g)
    return list(order.keys()), weights, expand


def _reference_lp(e: Election, p: dict, o: Candidate, rankings, weights):
    """LP for one reference candidate, in LinearProgram form."""
    cands = e.candidates
    m, big_g = len(cands), len(rankings)
    cidx = {c: i for i, c in enumerate(cands)}
    nvars = m * big_g

    def var(c: Candidate, g: int) -> int:
        return cidx[c] * big_g + g

    objective = [0] * nvars
    for c in cands:
        pc = p.get(c, 0)
        if pc == 0:
            continue
        for g in range(big_g):
            objective[var(c, g)] = pc * weights[g]

    rows = []
    norm = [0] * nvars
    for g in range(big_g):
        norm[var(o, g)] = weights[g]
    rows.append((norm, "=", e.n))

    for g, ranking in enumerate(rankings):
        for better, worse in zip(ranking, ranking[1:]):
            row = [0] * nvars
            row[var(better, g)] = 1
            row[var(worse, g)] = -1
            rows.append((row, "<=", 0))

    for i in cands:
        for j in cands:
            if i == j:
                continue
            for g in range(big_g):
                for h in range(big_g):
                    if g == h:
                        continue
                    row = [0] * nvars
                    row[var(i, g)] = 1
                    row[var(i, h)] = -1
                    row[var(j, h)] += -1
                    row[var(j, g)] += -1
                    rows.append((row, "<=", 0))

    return LinearProgram(objective=objective, rows=rows, sense="max"), var


def _solve_reference_float(e: Election, p: dict, o: Candidate, rankings, weights):
    """One reference solve in floats, via scipy's HiGHS backend."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    cands = e.candidates
    m, big_g = len(cands), len(rankings)
    cidx = {c: i for i, c in enumerate(cands)}
    nvars = m * big_g

    def var(c: Candidate, g: int) -> int:
        return cidx[c] * big_g + g

    c_vec = [0.0] * nvars
    for c in cands:
        pc = float(p.get(c, 0))
        if pc:
            for g in range(big_g):
                c_vec[var(c, g)] = -pc * weights[g]

    r_idx, c_idx, data = [], [], []
    row = 0
    for g, ranking in enumerate(rankings):
        for better, worse in zip(ranking, ranking[1:]):
            r_idx += [row, row]
            c_idx += [var(better, g), var(worse, g)]
            data += [1.0, -1.0]
            row += 1
    for i in cands:
        for j in cands:
            if i == j:
                continue
            for g in range(big_g):
                for h in range(big_g):
                    if g == h:
                        continue
                    r_idx += [row, row, row, row]
                    c_idx += [var(i, g), var(i, h), var(j, h), var(j, g)]
                    data += [1.0, -1.0, -1.0, -1.0]
                    row += 1
    a_ub = coo_matrix((data, (r_idx, c_idx)), shape=(row, nvars)) if row else None
    a_eq = coo_matrix(
        ([float(w) for w in weights], ([0] * big_g, [var(o, g) for g in range(big_g)])),
        shape=(1, nvars),
    )
    res = linprog(
        c_vec,
        A_ub=a_ub,
        b_ub=[0.0] * row if row else None,
        A_eq=a_eq,
        b_eq=[float(e.n)],
        bounds=(0, None),
        method="highs",
    )
    if res.status == 3:
        return "unbounded", None
    if res.status != 0:
        raise RuntimeError(f"distortion LP failed for reference {o!r}: {res.message}")
    values = {c: [res.x[var(c, g)] for g in range(big_g)] for c in cands}
    return "optimal", values


def _witness_ratio(e: Election, p: dict, o: Candidate, witness: dict):
    """Ratio sum_j p_j SC(j) / SC(o) recomputed straight from a distance table."""
    num = 0
    for c, pc in p.items():
        if pc == 0:
            continue
        num = num + pc * sum(w * dv for w, dv in zip((v.weight for v in e.voters), witness[c]))
    den = sum(v.weight * dv for v, dv in zip(e.voters, witness[o]))
    return num / den


def _check_witness(e: Election, witness: dict, tol) -> None:
    """Re-check the constraint families on a distance table; raises on failure."""
    for c, rowv in witness.items():
        for dv in rowv:
            if dv < -tol:
                raise RuntimeError(f"negative distance d({c}) = {dv}")
    for vi, v in enumerate(e.voters):
        for better, worse in zip(v.ranking, v.ranking[1:]):
            if witness[better][vi] > witness[worse][vi] + tol:
                raise RuntimeError(
                    f"consistency violated for voter {vi}: d({better}) > d({worse})"
                )
    nv = len(e.voters)
    for i in e.candidates:
        for j in e.candidates:
            if i == j:
                continue
            for g in range(nv):
                for h in range(nv):
                    if g == h:
                        continue
                    lhs = witness[i][g]
                    rhs = witness[i][h] + witness[j][h] + witness[j][g]
                    if lhs > rhs + tol:
                        raise RuntimeError(
                            f"four-point inequality violated at ({i},{j},{g},{h})"
                        )


def lp_distortion(e: Election, d: Lottery, mode: str = "float") -> DistortionReport:
    """Worst-case metric distortion of lottery ``d`` over all pseudometrics.

    One LP per reference candidate o: maximize the expected cost of ``d``
    subject to SC(o) normalized, distances consistent with every ranking, and
    the four-point inequalities.  The report carries the maximizing reference
    and its witness distance table (re-verified before returning); an
    unbounded reference yields infinite distortion, which happens when some
    candidate can be pushed arbitrarily far without affecting SC(o).
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and e.n * e.m > EXACT_LP_GUARD:
        raise ValueError(
            f"exact mode limited to n*m <= {EXACT_LP_GUARD}; got {e.n * e.m}"
        )
    rankings, weights, expand = _merged_groups(e)
    if mode == "exact":
        dx = as_exact_lottery(d)
        p = {c: dx.prob(c) for c in e.candidates}
        tol = Fraction(0)
    else:
        p = {c: float(d.prob(c)) for c in e.candidates}
        tol = 1e-6

    best: tuple | None = None  # (value, reference, witness-by-group)
    for o in e.candidates:
        if mode == "exact":
            lp, var = _reference_lp(e, p, o, rankings, weights)
            sol = solve_lp(lp, "exact")
            if sol.status == "unbounded":
                status, values = "unbounded", None
            elif sol.status != "optimal":
                raise RuntimeError(f"distortion LP {sol.status} for reference {o!r}")
            else:
                status = "optimal"
                values = {
                    c: [sol.values[var(c, g)] for g in range(len(rankings))]
                    for c in e.candidates
                }
        else:
            status, values = _solve_reference_float(e, p, o, rankings, weights)
        if status == "unbounded":
            return DistortionReport(
                value=math.inf, reference_candidate=o, witness_metric=None, method="lp"
            )
        witness = {c: [values[c][g] for g in expand] for c in e.candidates}
        ratio = _witness_ratio(e, p, o, witness)
        if best is None or ratio > best[0]:
            best = (ratio, o, witness)

    value, o, witness = best
    _check_witness(e, witness, tol)
    return DistortionReport(
        value=value, reference_candidate=o, witness_metric=witness, method="lp"
    )


# ---------------------------------------------------------------------------
# Margin-based distortion certificates


def _pref_all(e: Election, i: Candidate, group) -> Fraction:
    """Fraction of voters ranking ``i`` above every member of ``group``."""
    group = [g for g in group if g != i]
    if not group:
        return Fraction(1)
    count = sum(
        v.weight
        for v, pos in zip(e.voters, _positions(e))
        if all(pos[i] < pos[g] for g in group)
    )
    return Fraction(count, e.n)


def check_sufficient_condition(e: Election, d: Lottery, i_star: Candidate,
                               lam) -> dict:
    """Subset scan of the distortion sufficient condition at factor lambda.

    Checks, for every nonempty J of candidates other than i_star, that
    sum_{j in J} s(i_star, j) p_j <= lambda * (1 - s_{i_star > all of J}).
    Passing certifies distortion <= 1 + 2*lambda for the lottery.
    """
    if e.m > SUBSET_SCAN_GUARD:
        raise ValueError(f"subset scan limited to {SUBSET_SCAN_GUARD} candidates")
    lam = Fraction(lam)
    dx = as_exact_lottery(d)
    s = margin_matrix(e)
    others = [c for c in e.candidates if c != i_star]
    single = {j: s.s(i_star, j) * dx.prob(j) for j in others}
    for size in range(1, len(others) + 1):
        for subset in itertools.combinations(others, size):
            lhs = sum(single[j] for j in subset)
            rhs = lam * (1 - _pref_all(e, i_star, subset))
            if lhs > rhs:
                return {"ok": False, "violating_J": subset}
    return {"ok": True, "violating_J": None}


def strong_consistency(e: Election, spec: BiasedMetricSpec, alpha: float,
                       beta: float, big_r) -> bool:
    """True iff every pair with margin s(a,b) >= beta has x_a - x_b <= alpha*R."""
    s = margin_matrix(e)
    cap = alpha * big_r
    for i, a in enumerate(e.candidates):
        for j, b in enumerate(e.candidates):
            if i != j and s.entries[i][j] >= Fraction(beta):
                if spec.x[a] - spec.x[b] > cap:
                    return False
    return True


def _balance_bound(theta: float) -> float:
    return 1.0 + 2.0 * max(1.0 / (0.5 - theta), (1.0 - theta) / theta)


def ratio_certificates(e: Election, j: Candidate, ref: Candidate) -> list[dict]:
    """All margin-based upper-bound certificates for SC(j)/SC(ref).

    Each entry claims SC(j) <= bound * SC(ref) for every metric consistent
    with the ballots.  Emitted when applicable: the one-hop bound from
    s(j, ref); the strongest two-hop bound over intermediates; the balanced
    two-hop bound at the best feasible split level; and the fixed support
    bound when j is in the Maximal Lottery's support.
    """
    if j == ref:
        raise ValueError("j and ref must differ")
    s = margin_matrix(e)
    out: list[dict] = []

    theta1 = s.s(j, ref)
    if theta1 > 0:
        out.append({
            "lemma": "one-hop",
            "theta_or_pair": float(theta1),
            "bound": float(2 / theta1 - 1),
        })

    best_c, theta2 = None, Fraction(0)
    for c in e.candidates:
        t = min(s.s(j, c), s.s(c, ref))
        if t > theta2:
            best_c, theta2 = c, t
    if theta2 > 0:
        out.append({
            "lemma": "two-hop-var",
            "theta_or_pair": (float(theta2), best_c),
            "bound": float(4 / theta2 - 3),
        })

    grid = {ML_SUPPORT_THETA}
    for c in e.candidates:
        grid.add(float(s.s(j, c)))
        grid.add(0.5 - float(s.s(c, ref)))
    best_theta, best_bound = None, None
    for theta in sorted(grid):
        if not 0.0 < theta < 0.5:
            continue
        feasible = any(
            s.s(j, c) >= theta and float(s.s(c, ref)) >= 0.5 - theta
            for c in e.candidates
        )
        if feasible:
            bound = _balance_bound(theta)
            if best_bound is None or bound < best_bound:
                best_theta, best_bound = theta, bound
    if best_bound is not None:
        out.append({
            "lemma": "two-hop-balance",
            "theta_or_pair": best_theta,
            "bound": best_bound,
        })

    if j in maximal_lottery(e).support():
        out.append({
            "lemma": "ml-support",
            "theta_or_pair": ML_SUPPORT_THETA,
            "bound": ML_SUPPORT_BOUND,
        })
    return out


def check_two_hop_general(e: Election, j: Candidate, k: Candidate,
                          ref: Candidate, lam) -> bool:
    """Partition form of the two-hop cost-transfer condition at factor lambda.

    True iff s(ref, j) <= lam * s(k, ref) and, for every bipartition I | J of
    the candidates with ref, k in I and j in J,
    min_{i in I} s(i, j) <= lam * max_{l in J} max(s(l, ref), s(l, k)).
    A true result certifies SC(j) <= (1 + 2*lam) * SC(ref).
    """
    if e.m > SUBSET_SCAN_GUARD:
        raise ValueError(f"partition scan limited to {SUBSET_SCAN_GUARD} candidates")
    if j == ref or k == j:
        raise ValueError("j must differ from ref and from the intermediate k")
    lam = Fraction(lam)
    s = margin_matrix(e)
    if s.s(ref, j) > lam * s.s(k, ref):
        return False
    free = [c for c in e.candidates if c not in (ref, k, j)]
    for size in range(len(free) + 1):
        for extra in itertools.combinations(free, size):
            side_i = {ref, k} | set(extra)
            side_j = [c for c in e.candidates if c not in side_i]
            lhs = min(s.s(i, j) for i in side_i)
            rhs = lam * max(max(s.s(l, ref), s.s(l, k)) for l in side_j)
            if lhs > rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# Adversarial search over biased metrics


def biased_metric_search(e: Election, d: Lottery, ref: Candidate | None = None,
                         rounds: int = 4, witness: dict | None = None) -> tuple:
    """Coordinate descent over bias vectors; returns (spec, ratio) lower bound.

    Searches float bias vectors for the reference(s), refining one coordinate
    at a time over a coarse multiplicative grid.  When an LP witness table is
    supplied, biases seed from the witness's average distance gaps, which is
    where the worst metric tends to live.
    """
    refs = [ref] if ref is not None else list(e.candidates)
    best_spec, best_ratio = None, None
    for o in refs:
        x = {c: 1.0 for c in e.candidates}
        x[o] = 0.0
        if witness is not None:
            n = e.n
            for c in e.candidates:
                gap = sum(
                    v.weight * (float(wc) - float(wo))
                    for v, wc, wo in zip(e.voters, witness[c], witness[o])
                ) / n
                x[c] = max(gap, 0.0)
            x[o] = 0.0
        for _ in range(rounds):
            for c in e.candidates:
                if c == o:
                    continue
                candidates = {0.0, 1.0, x[c]}
                for f in (0.25, 0.5, 2.0, 4.0):
                    candidates.add(x[c] * f)
                best_here = None
                for val in sorted(candidates):
                    x[c] = val
                    res = biased_distortion(e, BiasedMetricSpec(dict(x), o), d)
                    score = -math.inf if res["degenerate"] else float(res["ratio"])
                    if best_here is None or score > best_here[0]:
                        best_here = (score, val)
                x[c] = best_here[1]
        final = biased_distortion(e, BiasedMetricSpec(dict(x), o), d)
        score = -math.inf if final["degenerate"] else float(final["ratio"])
        if best_ratio is None or score > best_ratio:
            best_spec, best_ratio = BiasedMetricSpec(dict(x), o), score
    return best_spec, best_ratio
