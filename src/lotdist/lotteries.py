"""Maximal Lotteries and Stable k-Lotteries.

A Maximal Lottery is a symmetric equilibrium of the pairwise-margin game: a
distribution D over candidates with s(D, a) >= 1/2 against every candidate a.
It is computed exactly as a zero-sum game over the rational margin matrix.

A Stable k-Lottery generalizes this to an attacker fielding k i.i.d. draws
against a single defender; the game value is 1 - 1/(k+1).  Equilibria of that
game are generally irrational even on tiny instances (the 2-candidate margin
2/3 instance at k=3 already mixes at a quartic root), so the attacker side is
found numerically: an SLSQP solve of the epigraph form of
``min max_a Pr[a beats D^k]`` over the simplex, multi-started from the
Maximal Lottery, uniform, and seeded Dirichlet draws.  Correctness does not
rest on the optimizer: every candidate solution is re-verified with exact
rational arithmetic before being returned, and nonconvergence raises with
the best iterate attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .elections import (
    Candidate,
    Election,
    Lottery,
    candidate_beats_power,
    margin_matrix,
)
from .linprog import solve_zero_sum

__all__ = [
    "StableLotteryPair",
    "StableLotteryError",
    "maximal_lottery",
    "stable_k_lottery",
    "verify_stability",
    "as_exact_lottery",
]

DEFAULT_TOL_EQ = 1e-6


@dataclass(frozen=True)
class StableLotteryPair:
    attacker: Lottery
    defender: Lottery
    k: int
    achieved_value: float


class StableLotteryError(RuntimeError):
    """No start reached the threshold; carries the best iterate found."""

    def __init__(self, message: str, best: Lottery, achieved_value: float):
        super().__init__(message)
        self.best = best
        self.achieved_value = achieved_value


@lru_cache(maxsize=1024)
def maximal_lottery(e: Election) -> Lottery:
    """Exact Maximal Lottery of ``e`` (one equilibrium vertex of the margin game)."""
    s = margin_matrix(e)
    payoff = [[s.entries[i][j] for j in range(e.m)] for i in range(e.m)]
    game = solve_zero_sum(payoff, mode="exact")
    if game.value != Fraction(1, 2):
        raise RuntimeError(f"margin game value {game.value} != 1/2; margins corrupt")
    return Lottery({c: w for c, w in zip(e.candidates, game.row_strategy) if w > 0})


def as_exact_lottery(d: Lottery) -> Lottery:
    """Exact-rational version of a lottery; float weights are normalized exactly."""
    if d.is_exact:
        return d
    fracs = {c: Fraction(w) for c, w in d.weights.items() if w > 0}
    total = sum(fracs.values())
    return Lottery({c: w / total for c, w in fracs.items()})


def verify_stability(e: Election, d: Lottery, k: int) -> dict:
    """Exact worst pure response against ``d^k``.

    Returns ``{"max_violator": candidate, "max_value": Fraction}`` where
    max_value = max over candidates a of Pr[a beats k draws from d]; ``d`` is
    value-stable iff max_value <= 1/(k+1).  Float lotteries are converted to
    exact rationals first so the comparison is unambiguous.
    """
    dx = as_exact_lottery(d)
    best_c, best_v = None, None
    for a in e.candidates:
        val = candidate_beats_power(e, a, dx, k)
        if best_v is None or val > best_v:
            best_c, best_v = a, val
    return {"max_violator": best_c, "max_value": best_v}


# ---------------------------------------------------------------------------
# Stable k-Lottery optimizer


class _PowerObjective:
    """Vectorized g(p) = max_a Pr[a beats D^k] with exact gradients.

    Everything runs on the polynomial form of the divided difference,
    ((w+t)^{k+1} - w^{k+1}) / ((k+1) t) = (1/(k+1)) sum_{i<=k} (w+t)^i w^{k-i},
    which is smooth in (w, t) with no special case at t = 0.
    """

    def __init__(self, e: Election, k: int):
        self.k = k
        self.m = e.m
        voters = e.voters
        idx = {c: i for i, c in enumerate(e.candidates)}
        self.weights = np.array([v.weight for v in voters], dtype=float)
        self.weights /= self.weights.sum()
        # below[v, a, c] = 1 when voter v ranks c strictly below a
        below = np.zeros((len(voters), e.m, e.m))
        for vi, v in enumerate(voters):
            pos = {c: r for r, c in enumerate(v.ranking)}
            for a in e.candidates:
                for c in e.candidates:
                    if c != a and pos[c] > pos[a]:
                        below[vi, idx[a], idx[c]] = 1.0
        self.below = below

    def value_all(self, p: np.ndarray) -> np.ndarray:
        """Pr[a beats D^k] for every candidate a (float, length m)."""
        k = self.k
        w = self.below @ p                      # (V, m)
        wt = w + np.broadcast_to(p, w.shape)
        s = np.zeros_like(w)
        for i in range(k + 1):
            s += wt**i * w ** (k - i)
        return self.weights @ s / (k + 1)

    def value_and_grads(self, p: np.ndarray):
        """All candidate values plus the full (m, m) Jacobian dg_a/dp_c."""
        k = self.k
        w = self.below @ p
        wt = w + np.broadcast_to(p, w.shape)
        s = np.zeros_like(w)
        ds_dw = np.zeros_like(w)                # holding wt fixed
        ds_dwt = np.zeros_like(w)
        for i in range(k + 1):
            a_pow = wt**i
            b_pow = w ** (k - i)
            s += a_pow * b_pow
            if i > 0:
                ds_dwt += i * wt ** (i - 1) * b_pow
            if k - i > 0:
                ds_dw += (k - i) * a_pow * w ** (k - i - 1)
        vals = self.weights @ s / (k + 1)
        # w and wt both move with p through `below`; only wt carries the p_a term.
        total_w = (ds_dw + ds_dwt) / (k + 1)
        grads = np.einsum("v,va,vac->ac", self.weights, total_w, self.below)
        grads[np.arange(self.m), np.arange(self.m)] += self.weights @ ds_dwt / (k + 1)
        return vals, grads


def _snap_to_exact(
    p: np.ndarray, cands: tuple[Candidate, ...], cap: int = 10**12
) -> Lottery:
    """Rational lottery close to the float vector, summing to exactly 1."""
    fr = [Fraction(float(x)).limit_denominator(cap) if x > 1e-15 else Fraction(0)
          for x in p]
    total = sum(fr)
    if total != 1:
        j = max(range(len(fr)), key=lambda i: fr[i])
        fr[j] += 1 - total
    if any(x < 0 for x in fr) or sum(fr) != 1:
        exact = [Fraction(float(x)) if x > 1e-15 else Fraction(0) for x in p]
        tot = sum(exact)
        fr = [x / tot for x in exact]
    return Lottery({c: w for c, w in zip(cands, fr) if w > 0})


def _sqp_polish(obj: _PowerObjective, p0: np.ndarray) -> np.ndarray:
    """Minimize max_a g_a over the simplex via the epigraph program.

    Variables (p, z); minimize z subject to g_a(p) <= z, p in the simplex.
    SLSQP with analytic Jacobians converges superlinearly near the optimum,
    so it runs straight from each start with no first-order warm-up.
    """
    m = obj.m
    x0 = np.append(p0, float(obj.value_all(p0).max()) + 1e-9)

    def cons_jac(x):
        _, grads = obj.value_and_grads(x[:m])
        return np.hstack([-grads, np.ones((m, 1))])

    constraints = [
        {
            "type": "ineq",
            "fun": lambda x: x[-1] - obj.value_all(x[:m]),
            "jac": cons_jac,
        },
        {
            "type": "eq",
            "fun": lambda x: x[:m].sum() - 1.0,
            "jac": lambda x: np.append(np.ones(m), 0.0),
        },
    ]
    obj_jac = np.append(np.zeros(m), 1.0)
    res = minimize(
        lambda x: x[-1],
        x0,
        jac=lambda x: obj_jac,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * m + [(0.0, 1.0)],
        constraints=constraints,
        options={"maxiter": 200, "ftol": 1e-14},
    )
    p = np.clip(res.x[:m], 0.0, None)
    total = p.sum()
    return p / total if total > 0 else p0


def stable_k_lottery(e: Election, k: int, tol_eq: float = DEFAULT_TOL_EQ) -> StableLotteryPair:
    """Attacker/defender pair of the k-vs-1 game, verified exactly.

    The attacker D is accepted once the exact check
    ``max_a Pr[a beats D^k] <= 1/(k+1) + tol_eq`` passes; the defender is the
    pure best response to the attacker.  Raises :class:`StableLotteryError`
    with the best iterate when no start reaches the threshold.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if tol_eq <= 0:
        raise ValueError("tol_eq must be positive")

    target = Fraction(1, k + 1)
    threshold = target + Fraction(tol_eq).limit_denominator(10**12)

    def exact_accept(p: np.ndarray) -> StableLotteryPair | None:
        # Try a sparsified snap first: SLSQP leaves ~1e-10 dust on
        # off-support coordinates, and small denominators are likelier to be
        # the actual equilibrium.  Exact verification arbitrates every snap.
        trimmed = np.where(p > 1e-8, p, 0.0)
        trimmed /= trimmed.sum()
        seen = []
        for vec in (trimmed, p):
            for cap in (10**6, 10**12):
                cand = _snap_to_exact(vec, e.candidates, cap)
                if cand.weights in seen:
                    continue
                seen.append(cand.weights)
                check = verify_stability(e, cand, k)
                if check["max_value"] <= threshold:
                    defender = Lottery.point(check["max_violator"])
                    return StableLotteryPair(
                        attacker=cand,
                        defender=defender,
                        k=k,
                        achieved_value=float(check["max_value"]),
                    )
        return None

    ml = maximal_lottery(e)
    ml_vec = np.array([float(ml.prob(c)) for c in e.candidates])
    uniform = np.full(e.m, 1.0 / e.m)

    # The starts themselves are often exact equilibria (always for k=1).
    for start in (ml_vec, uniform):
        hit = exact_accept(start)
        if hit is not None:
            return hit

    obj = _PowerObjective(e, k)
    best_p = ml_vec.copy()
    best_g = float(obj.value_all(best_p).max())
    rng = np.random.default_rng(k)              # deterministic restarts
    starts = [ml_vec, uniform] + [rng.dirichlet(np.ones(e.m)) for _ in range(8)]

    for start in starts:
        p = _sqp_polish(obj, start)
        g = float(obj.value_all(p).max())
        if g < best_g:
            best_g, best_p = g, p.copy()
        hit = exact_accept(p)
        if hit is not None:
            return hit

    hit = exact_accept(best_p)
    if hit is not None:
        return hit
    best = _snap_to_exact(best_p, e.candidates)
    raise StableLotteryError(
        f"no ({k})-stable lottery within tol_eq={tol_eq} "
        f"(best achieved {best_g} vs target {1 / (k + 1)})",
        best=best,
        achieved_value=best_g,
    )
