"""The three seeded workloads: elections, each with the op list run on it.

An *op* is one call into lotdist's public API.  Lottery ops produce a lottery
with its certificates; distortion ops are ``lp_distortion`` calls.  Every op
reads earlier results of its own election from a dict and names the
independent check (``checks.py``) that its output must pass.  Ops call
through the ``lotdist`` package attribute at call time, so a traced pass sees
the same calls through its wrappers.

Inputs come from ``numpy.random.SeedSequence(seed)``: its first child makes
the timed inputs, its second the warm-up inputs, so warm-up never touches an
election of the timed set.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import lotdist as L
from lotdist.generators import candidate_names, generate_election

import checks

WORKLOADS = ("small-corpus", "wide-electorate", "lp-heavy")

MIX_K = 7
PRACTICAL_EPS = 0.1        # practical eps1 = eps2 for the mixture rule
GAMMA = 1.0
SL_K = 2                   # stable_k_lottery on wide electorates
ML_CERT_EPS = 0.05         # sampled ML certificate on wide electorates
ROSTER_EPS = 0.05
ROSTER_MAX_SIZE = 6

CORPUS_SIZE = 60           # elections per small-corpus round
# Corpus slots (n=4 or n=6) whose mixture runs the SL optimizer, 4 of 60 for
# the ~6.5% of such elections that need it; see small_corpus.
OPTIMIZER_SLOTS = (6, 21, 38, 53)
WIDE_VOTERS = 300
# lp-heavy shapes: (m, distinct rankings G, copies) of the float and exact
# distortion items, and the candidate counts of the n=51 ML games.
FLOAT_LPS = (5, 20, 6)
EXACT_LPS = (4, 3, 2)
GAME_SIZES = (16, 20)
GAME_VOTERS = 51


class DependencyFailed(RuntimeError):
    """An op could not run because an op it reads from failed."""


@dataclass
class Op:
    name: str
    kind: str                                   # "lottery" | "distortion"
    run: Callable[[dict], object]
    check: Callable[[dict], None]


@dataclass
class Item:
    """One election and its op list."""

    label: str
    election: object
    ops: list[Op] = field(default_factory=list)


def _need(results: dict, name: str):
    if name not in results:
        raise DependencyFailed(f"{name} failed earlier")
    return results[name]


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def distinct_rankings(rng, m: int, g: int):
    """One voter on each of ``g`` distinct rankings drawn from all m! orders."""
    cands = candidate_names(m)
    perms = list(itertools.permutations(cands))
    picks = rng.choice(len(perms), size=g, replace=False)
    return L.make_election(cands, [perms[i] for i in sorted(picks)])


def cycle3():
    return L.make_election(["a", "b", "c"],
                           [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]])


# ---------------------------------------------------------------------------
# Op builders


def ml_op(e) -> Op:
    return Op("ml", "lottery", lambda r: L.maximal_lottery(e),
              lambda r: checks.check_ml(e, r["ml"]))


def dist_op(e, source: str, mode: str) -> Op:
    """lp_distortion of the lottery produced by op ``source``."""
    name = f"{source}_dist"

    def lottery(r):
        out = _need(r, source)
        return out["lottery"] if source == "mix" else out

    return Op(name, "distortion",
              lambda r: L.lp_distortion(e, lottery(r), mode),
              lambda r: checks.check_distortion(e, lottery(r), r[name], mode,
                                                is_ml=source == "ml"))


def mix_op(e, params, seed: int) -> Op:
    """mixing_rule; its check reads the ML op's result."""
    def mix(r):
        return L.mixing_rule(e, params, seed, practical_eps1=PRACTICAL_EPS,
                             practical_eps2=PRACTICAL_EPS, gamma=GAMMA)

    def check_mix(r):
        checks.check_mixture(e, r["mix"], _need(r, "ml"), params,
                             PRACTICAL_EPS, PRACTICAL_EPS, GAMMA)

    return Op("mix", "lottery", mix, check_mix)


def mixture_ops(e, params, seed: int) -> list[Op]:
    """mixing_rule, distortion of the mixture, flatten_to_uniform."""
    return [
        mix_op(e, params, seed),
        dist_op(e, "mix", "float"),
        Op("flatten", "lottery",
           lambda r: L.flatten_to_uniform(_need(r, "mix")["lottery"]),
           lambda r: checks.check_flatten(r["mix"]["lottery"], r["flatten"])),
    ]


def corpus_ops(e, params, seed: int) -> list[Op]:
    return [ml_op(e), dist_op(e, "ml", "float")] + mixture_ops(e, params, seed)


def wide_ops(e, params, seed: int, cert_seed: int) -> list[Op]:
    def cert(r):
        return L.sample_until_repapx(e, _need(r, "ml"), k=1, epsilon=ML_CERT_EPS,
                                     gamma=GAMMA, seed=cert_seed,
                                     q=L.sample_size_ml(ML_CERT_EPS))

    return corpus_ops(e, params, seed) + [
        Op("sl", "lottery", lambda r: L.stable_k_lottery(e, SL_K),
           lambda r: checks.check_stable(e, r["sl"], SL_K)),
        Op("ml_cert", "lottery", cert,
           lambda r: checks.check_ml_certificate(e, r["ml_cert"], r["ml"],
                                                 ML_CERT_EPS, GAMMA)),
    ]


def roster_op(e, max_size: int) -> Op:
    return Op("roster", "lottery",
              lambda r: L.multiset_search(e, ROSTER_EPS, max_size, mode="exact"),
              lambda r: checks.check_roster_search(e, r["roster"], ROSTER_EPS,
                                                   max_size))


# ---------------------------------------------------------------------------
# Workloads


def _label(kind: str, e) -> str:
    groups = len({v.ranking for v in e.voters})
    return f"{kind} n={e.n} m={e.m} G={groups}"


def runs_sl_optimizer(e, params) -> bool:
    """Whether mixing_rule's stable lottery on the pruned set needs SLSQP.

    stable_k_lottery first tries the restricted election's ML and the uniform
    lottery; only when neither is stable does it start the optimizer.
    """
    kernel = L.quasi_kernel(L.build_threshold_digraph(e, 0.5 + params.beta_tilde))
    pruned = L.restrict_election(e, kernel.members)
    if pruned.m == 1:
        return False
    bound = Fraction(1, params.k + 1) + Fraction(1, 10**6)
    return all(L.verify_stability(pruned, start, params.k)["max_value"] > bound
               for start in (L.maximal_lottery(pruned),
                             L.Lottery.uniform(pruned.candidates)))


def _draw(rng, family: str, n: int, m: int, params, optimizer: bool):
    """The first election of the seed's stream whose mixture does (or does
    not) run the SL optimizer."""
    for _ in range(1000):
        e = generate_election(family, n, m, _seed(rng))
        if runs_sl_optimizer(e, params) == optimizer:
            return e
    raise RuntimeError(f"no {family} election with n={n}, m={m} in 1000 draws")


def small_corpus(rng, params, count: int, slots: tuple) -> list[Item]:
    """Acceptance-corpus shapes: n cycles through 3..7, m through 3..6.

    About 6.5% of such elections (all at even n) make the mixture run the SL
    optimizer, which makes their mixture four times as slow (0.37 s against
    0.09 s).  Left to chance, their count per round varies between seeds by
    more than the bounds; so exactly the elections at ``slots`` run it.
    """
    items = []
    for i in range(count):
        n, m = 3 + i % 5, 3 + (i // 5) % 4
        e = _draw(rng, "uniform-random", n, m, params, i in slots)
        items.append(Item(_label("corpus", e), e, corpus_ops(e, params, _seed(rng))))
    return items


def wide_electorate(rng, params, voters: int) -> list[Item]:
    """Line and cycle profiles never run the SL optimizer in the mixture; the
    uniform one does for about a quarter of seeds, so it is drawn not to."""
    elections = [
        generate_election("single-peaked-line", voters, 5, _seed(rng)),
        generate_election("cycle-family", voters, 5, 0),
        _draw(rng, "uniform-random", voters, 4, params, optimizer=False),
    ]
    kinds = ("line", "cycle", "uniform")
    return [Item(_label(kind, e), e, wide_ops(e, params, _seed(rng), _seed(rng)))
            for kind, e in zip(kinds, elections)]


def lp_heavy(rng, params, floats: tuple, exacts: tuple, games: tuple,
             roster_size: int, roster_election=None) -> list[Item]:
    """Solver-bound items: ``floats`` and ``exacts`` are (m, G, copies), ``games``
    the candidate counts of n=51 ML games.

    Solve times of one shape vary between instances (coefficient of variation
    7% for float G=20, 33% for exact m=4 G=3, 25-35% for the games), so the
    round holds several copies of moderate shapes rather than one large one.
    One small mixture whose stable lottery needs the SL optimizer keeps
    sampling, pruning and SLSQP measured here too, at a few percent.
    """
    items = []
    m, g, copies = floats
    for _ in range(copies):
        e = distinct_rankings(rng, m, g)
        items.append(Item(_label("float-lp", e), e, [ml_op(e), dist_op(e, "ml", "float")]))
    m, g, copies = exacts
    for _ in range(copies):
        e = distinct_rankings(rng, m, g)
        items.append(Item(_label("exact-lp", e), e, [ml_op(e), dist_op(e, "ml", "exact")]))
    for m in games:
        e = generate_election("uniform-random", GAME_VOTERS, m, _seed(rng))
        items.append(Item(_label("ml-game", e), e, [ml_op(e)]))
    e = _draw(rng, "uniform-random", 4, 4, params, optimizer=True)
    items.append(Item(_label("mixture", e), e, [ml_op(e), mix_op(e, params, _seed(rng))]))
    e = roster_election if roster_election is not None else cycle3()
    items.append(Item(_label("roster", e), e, [roster_op(e, roster_size)]))
    return items


def build(name: str, seed: int):
    """(timed items, warm-up items) for workload ``name`` at ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    timed_ss, warm_ss = np.random.SeedSequence(seed).spawn(2)
    timed, warm = np.random.default_rng(timed_ss), np.random.default_rng(warm_ss)
    params = L.mix_params(MIX_K)
    if name == "small-corpus":
        return (small_corpus(timed, params, CORPUS_SIZE, OPTIMIZER_SLOTS),
                small_corpus(warm, params, 2, slots=(1,)))
    if name == "wide-electorate":
        items = wide_electorate(timed, params, WIDE_VOTERS)
        e = generate_election("uniform-random", 20, 4, _seed(warm))
        return items, [Item(_label("warm", e), e, wide_ops(e, params, _seed(warm),
                                                           _seed(warm)))]
    items = lp_heavy(timed, params, FLOAT_LPS, EXACT_LPS, GAME_SIZES, ROSTER_MAX_SIZE)
    warm_roster = generate_election("uniform-random", 2, 3, _seed(warm))
    return items, lp_heavy(warm, params, floats=(4, 5, 1), exacts=(3, 2, 1), games=(8,),
                           roster_size=1, roster_election=warm_roster)
