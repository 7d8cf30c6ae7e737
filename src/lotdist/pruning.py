"""Threshold tournaments, quasi-kernels, and pruned lottery certificates.

Given a margin threshold theta > 1/2, the threshold digraph has an edge
a -> b exactly when s(a, b) >= theta; since s(a, b) + s(b, a) = 1, no pair
carries edges both ways.  A quasi-kernel of a digraph is an independent set S
such that every vertex outside S is reachable from some member of S by a
directed path with at most two edges; one always exists, and restricting an
election to a quasi-kernel of its threshold digraph leaves a profile in which
every margin is below theta ("theta-regular").

The pruned-lottery pipeline chains these with the equilibrium and sampling
machinery: prune, solve the k-draw stable lottery on the survivors, then
sample a uniform-multiset certificate for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .elections import Candidate, Election, Voter, margin_matrix
from .lotteries import stable_k_lottery
from .sampling import RepApxCertificate, SeedLike, sample_until_repapx

__all__ = [
    "ThresholdDigraph",
    "QuasiKernel",
    "build_threshold_digraph",
    "quasi_kernel",
    "verify_quasi_kernel",
    "is_theta_regular",
    "lambda_bound",
    "restrict_election",
    "repapx_pruned_lottery",
    "dump_digraph",
]

ThetaLike = Union[Fraction, float, int, str]


def _as_theta(theta: ThetaLike) -> Fraction:
    """Exact threshold value.  Strings parse as exact decimals/fractions;
    floats contribute their exact binary value."""
    if isinstance(theta, str):
        return Fraction(theta)
    return Fraction(theta)


@dataclass(frozen=True)
class ThresholdDigraph:
    vertices: tuple[Candidate, ...]
    edges: frozenset[tuple[Candidate, Candidate]]
    theta: Fraction
    margins: dict  # (a, b) -> Fraction, for edges only

    def out_neighbors(self, v: Candidate) -> set[Candidate]:
        return {b for a, b in self.edges if a == v}

    def has_edge(self, a: Candidate, b: Candidate) -> bool:
        return (a, b) in self.edges


@dataclass(frozen=True)
class QuasiKernel:
    members: tuple[Candidate, ...]


def build_threshold_digraph(e: Election, theta: ThetaLike) -> ThresholdDigraph:
    """Digraph with edge set exactly {(a, b): s(a, b) >= theta}, theta > 1/2."""
    th = _as_theta(theta)
    if not Fraction(1, 2) < th <= 1:
        raise ValueError(f"theta must lie in (1/2, 1], got {th}")
    s = margin_matrix(e)
    edges = set()
    margins = {}
    for i, a in enumerate(e.candidates):
        for j, b in enumerate(e.candidates):
            if i != j and s.entries[i][j] >= th:
                edges.add((a, b))
                margins[(a, b)] = s.entries[i][j]
    return ThresholdDigraph(e.candidates, frozenset(edges), th, margins)


def verify_quasi_kernel(g: ThresholdDigraph, members: Iterable[Candidate]) -> bool:
    """Independence plus two-step domination, checked directly."""
    s = set(members)
    if not s <= set(g.vertices):
        return False
    for a, b in g.edges:
        if a in s and b in s:
            return False
    reach = set(s)
    for u in s:
        one = g.out_neighbors(u)
        reach |= one
        for w in one:
            reach |= g.out_neighbors(w)
    return reach >= set(g.vertices)


def quasi_kernel(g: ThresholdDigraph) -> QuasiKernel:
    """A quasi-kernel, deterministic in the vertex order.

    The classical inductive argument, unrolled into two loops: take the last
    vertex u, remove u and its out-neighborhood, and repeat on what is left;
    then, from the last removal back to the first, add each u to the result
    unless the result already has an edge into u.  The output is always
    re-verified; failure here means a bug, not bad input.
    """
    picked: list[Candidate] = []
    remaining = list(g.vertices)
    while remaining:
        u = remaining.pop()
        picked.append(u)
        remaining = [v for v in remaining if (u, v) not in g.edges]

    into: dict[Candidate, set[Candidate]] = {v: set() for v in g.vertices}
    for a, b in g.edges:
        into[b].add(a)
    chosen: set[Candidate] = set()
    for u in reversed(picked):
        if into[u].isdisjoint(chosen):
            chosen.add(u)

    members = tuple(c for c in g.vertices if c in chosen)
    if not verify_quasi_kernel(g, members):
        raise RuntimeError(f"constructed set {members} fails quasi-kernel verification")
    return QuasiKernel(members)


def is_theta_regular(e: Election, theta: ThetaLike) -> bool:
    """True iff every off-diagonal margin is strictly below theta."""
    th = _as_theta(theta)
    s = margin_matrix(e)
    m = e.m
    return all(
        s.entries[i][j] < th for i in range(m) for j in range(m) if i != j
    )


def lambda_bound(theta: ThetaLike, k: int, epsilon: float) -> float:
    """The cost-transfer factor lambda(theta, k, eps) for pruned stable lotteries.

    Equals theta/(1-theta) * (1/(theta(k+1)) + eps/theta)^(1/k).  The formula
    is only a valid (and minimal) bound under the hypotheses k >= 7 and
    1/(k+1) + eps <= 2/k, which are enforced here.
    """
    th = float(_as_theta(theta))
    if not 0.5 < th < 1.0:
        raise ValueError(f"theta must lie in (1/2, 1), got {th}")
    if not isinstance(k, int) or k < 7:
        raise ValueError(f"k must be an integer >= 7, got {k!r}")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if 1.0 / (k + 1) + epsilon > 2.0 / k:
        raise ValueError(
            f"applicability condition 1/(k+1) + eps <= 2/k fails for k={k}, eps={epsilon}"
        )
    return th / (1.0 - th) * (1.0 / (th * (k + 1)) + epsilon / th) ** (1.0 / k)


def restrict_election(e: Election, keep: Iterable[Candidate]) -> Election:
    """The election on a candidate subset; rankings keep their relative order."""
    keep_set = set(keep)
    if not keep_set <= set(e.candidates):
        raise ValueError("keep set contains unknown candidates")
    cands = tuple(c for c in e.candidates if c in keep_set)
    voters = tuple(
        Voter(tuple(c for c in v.ranking if c in keep_set), v.weight) for v in e.voters
    )
    return Election(cands, voters)


def repapx_pruned_lottery(e: Election, epsilon: float, k: int, theta: ThetaLike,
                          seed: SeedLike, gamma: float = 1.0,
                          tol_eq: float = 1e-6, max_attempts: int = 1000) -> dict:
    """Prune to a quasi-kernel, then certify a sampled stable k-lottery there.

    Returns ``{"pruned": candidates, "cert": RepApxCertificate}``.  The
    certificate's base and conditions live on the restricted election.  The
    restriction is theta-regular by construction (independence of the
    quasi-kernel); this is asserted, not assumed.
    """
    lambda_bound(theta, k, epsilon)  # enforces the shared hypotheses
    g = build_threshold_digraph(e, theta)
    kernel = quasi_kernel(g)
    restricted = restrict_election(e, kernel.members)
    if not is_theta_regular(restricted, theta):
        raise RuntimeError("pruned profile is not theta-regular; pruning is broken")
    pair = stable_k_lottery(restricted, k, tol_eq)
    cert = sample_until_repapx(
        restricted, pair.attacker, k, epsilon, gamma, seed, max_attempts
    )
    return {"pruned": kernel.members, "cert": cert}


def dump_digraph(g: ThresholdDigraph) -> str:
    """Edge-list text, one ``a -> b  s=2/3`` line per edge, in vertex order."""
    order = {c: i for i, c in enumerate(g.vertices)}
    lines = []
    for a, b in sorted(g.edges, key=lambda ab: (order[ab[0]], order[ab[1]])):
        lines.append(f"{a} -> {b}  s={g.margins[(a, b)]}")
    return "\n".join(lines)
