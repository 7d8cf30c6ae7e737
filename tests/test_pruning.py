"""Tests for threshold digraphs, quasi-kernels, and the pruning pipeline."""

import random
from fractions import Fraction

import pytest

from lotdist.elections import Election, Lottery, Voter, margin_matrix
from lotdist.generators import generate_election
from lotdist.lotteries import stable_k_lottery
from lotdist.pruning import (
    QuasiKernel,
    ThresholdDigraph,
    build_threshold_digraph,
    dump_digraph,
    is_theta_regular,
    lambda_bound,
    quasi_kernel,
    repapx_pruned_lottery,
    restrict_election,
    verify_quasi_kernel,
)

from _oracles import lambda_grid_feasible, recursive_quasi_kernel


def _digraph(vertices, edges):
    """Bare digraph for graph-level tests; margins only matter for dumping."""
    return ThresholdDigraph(
        vertices=tuple(vertices),
        edges=frozenset(edges),
        theta=Fraction(3, 5),
        margins={e: Fraction(2, 3) for e in edges},
    )


# ------------------------------------------------------------------ digraph

def test_cycle_digraph_at_low_threshold(cycle3):
    g = build_threshold_digraph(cycle3, "0.6")
    assert g.edges == {("a", "b"), ("b", "c"), ("c", "a")}
    assert g.margins[("a", "b")] == Fraction(2, 3)


def test_unanimity_threshold_gives_no_edges(cycle3):
    assert build_threshold_digraph(cycle3, 1).edges == frozenset()


def test_two_candidate_edge():
    e = Election(("a", "b"), (Voter(("a", "b"), 2), Voter(("b", "a"), 1)))
    g = build_threshold_digraph(e, "0.6")
    assert g.edges == {("a", "b")}


@pytest.mark.parametrize("theta", ["1/2", "0.3", "1.2", 0])
def test_threshold_out_of_range(cycle3, theta):
    with pytest.raises(ValueError):
        build_threshold_digraph(cycle3, theta)


def test_digraph_has_no_two_cycles_or_loops(corpus):
    for e in corpus[:60]:
        g = build_threshold_digraph(e, "0.55")
        for a, b in g.edges:
            assert a != b
            assert (b, a) not in g.edges


# ------------------------------------------------------------- quasi-kernel

def test_path_kernel():
    g = _digraph("abc", [("a", "b"), ("b", "c")])
    qk = quasi_kernel(g)
    assert verify_quasi_kernel(g, qk.members)
    assert set(qk.members) in ({"a"}, {"a", "c"})


def test_empty_digraph_keeps_everything():
    g = _digraph("abcd", [])
    assert set(quasi_kernel(g).members) == {"a", "b", "c", "d"}


def test_edgeless_digraph_with_many_vertices_keeps_everything():
    # Deep enough to overflow a construction that recursed once per vertex.
    vertices = [f"c{i}" for i in range(1500)]
    assert quasi_kernel(_digraph(vertices, [])).members == tuple(vertices)


def test_kernel_matches_recursive_construction():
    rng = random.Random(8)
    for _ in range(200):
        vertices = "abcdefgh"[: rng.randint(1, 8)]
        pairs = [(a, b) for a in vertices for b in vertices if a < b]
        edges = [(a, b) if rng.random() < 0.5 else (b, a)
                 for a, b in pairs if rng.random() < 0.6]
        g = _digraph(vertices, edges)
        assert quasi_kernel(g).members == recursive_quasi_kernel(g.vertices, g.edges)


def test_three_cycle_kernel_is_single_vertex():
    g = _digraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    qk = quasi_kernel(g)
    assert len(qk.members) == 1
    assert verify_quasi_kernel(g, qk.members)


def test_verify_hand_cases():
    g = _digraph("abc", [("a", "b"), ("b", "c")])
    assert verify_quasi_kernel(g, {"a", "c"})
    assert not verify_quasi_kernel(g, {"c"})       # a and b are unreachable
    assert not verify_quasi_kernel(g, {"a", "b"})  # edge inside the set
    assert not verify_quasi_kernel(g, {"z"})       # unknown vertex


def test_kernels_verify_on_random_elections(corpus):
    for e in corpus[:80]:
        for theta in ("0.55", "0.7", "0.9"):
            g = build_threshold_digraph(e, theta)
            qk = quasi_kernel(g)
            assert qk.members
            assert verify_quasi_kernel(g, qk.members)


def test_two_step_reachability_in_margin_terms(corpus):
    """Every outside candidate is beaten at threshold strength by a kernel
    member directly or through one intermediate candidate."""
    theta = Fraction(3, 5)
    for e in corpus[:60]:
        g = build_threshold_digraph(e, theta)
        members = set(quasi_kernel(g).members)
        s = margin_matrix(e)
        outside = [c for c in e.candidates if c not in members]
        for r in outside:
            direct = any(s.s(j, r) >= theta for j in members)
            hop = any(
                s.s(c, r) >= theta and s.s(j, c) >= theta
                for c in outside
                for j in members
            )
            assert direct or hop


# ------------------------------------------------------------ theta-regular

def test_regularity_on_cycle(cycle3):
    assert is_theta_regular(cycle3, "0.7")
    assert not is_theta_regular(cycle3, Fraction(2, 3))  # strict inequality
    assert not is_theta_regular(cycle3, "0.6")


def test_single_candidate_is_vacuously_regular():
    e = Election(("a",), (Voter(("a",), 1),))
    assert is_theta_regular(e, "0.51")


# ------------------------------------------------------------- lambda bound

def test_lambda_frozen_value():
    assert lambda_bound("0.6", 7, 1 / 7) == pytest.approx(1.3367673448186919, rel=1e-12)


def test_lambda_at_zero_epsilon():
    theta, k = 0.55, 9
    expected = theta / (1 - theta) * (1 / (theta * (k + 1))) ** (1 / k)
    assert lambda_bound(theta, k, 0.0) == pytest.approx(expected, rel=1e-12)


def test_lambda_monotone_in_epsilon():
    values = [lambda_bound("0.6", 8, eps) for eps in (0.0, 0.04, 0.08, 0.12)]
    assert values == sorted(values)


def test_lambda_rejections():
    with pytest.raises(ValueError):
        lambda_bound("0.6", 6, 0.05)       # k below the lemma's floor
    with pytest.raises(ValueError):
        lambda_bound("0.5", 7, 0.05)
    with pytest.raises(ValueError):
        lambda_bound(1, 7, 0.05)
    with pytest.raises(ValueError):
        lambda_bound("0.6", 7, -0.01)
    with pytest.raises(ValueError):
        lambda_bound("0.6", 7, 0.2)        # 1/8 + 0.2 > 2/7


def test_lambda_is_minimal_on_grid():
    for theta, k, eps in (("0.6", 7, 1 / 7), ("0.7", 9, 0.05), ("0.55", 12, 0.05)):
        lam = lambda_bound(theta, k, eps)
        th = float(Fraction(theta))
        assert lambda_grid_feasible(lam, th, k, eps)
        assert not lambda_grid_feasible(lam * (1 - 1e-3), th, k, eps)


# ----------------------------------------------------------------- pipeline

def test_pipeline_dominant_winner():
    e = Election(
        ("a", "b", "c"),
        (Voter(("a", "b", "c"), 1), Voter(("a", "c", "b"), 1), Voter(("a", "b", "c"), 1)),
    )
    out = repapx_pruned_lottery(e, epsilon=1 / 7, k=7, theta="0.6", seed=3)
    assert out["pruned"] == ("a",)
    cert = out["cert"]
    assert cert.valid
    assert cert.distribution.weights == {"a": Fraction(1)}


def test_pipeline_regular_election_keeps_all(cycle3):
    out = repapx_pruned_lottery(cycle3, epsilon=1 / 7, k=7, theta="0.7", seed=4)
    assert set(out["pruned"]) == {"a", "b", "c"}
    assert out["cert"].valid


def test_pipeline_prunes_cycle_to_point(cycle3):
    out = repapx_pruned_lottery(cycle3, epsilon=1 / 7, k=7, theta="0.6", seed=5)
    assert len(out["pruned"]) == 1
    cert = out["cert"]
    assert cert.valid
    assert cert.distribution.weights == {out["pruned"][0]: Fraction(1)}


def test_pipeline_enforces_shared_hypotheses(cycle3):
    with pytest.raises(ValueError):
        repapx_pruned_lottery(cycle3, epsilon=0.1, k=3, theta="0.6", seed=0)


def test_pruned_profile_is_always_regular(corpus):
    for e in corpus[:60]:
        for theta in ("0.55", "0.7", "0.9"):
            g = build_threshold_digraph(e, theta)
            kept = quasi_kernel(g).members
            assert is_theta_regular(restrict_election(e, kept), theta)


def test_restrict_election_validates_candidates(cycle3):
    with pytest.raises(ValueError):
        restrict_election(cycle3, {"a", "zzz"})
    r = restrict_election(cycle3, {"a", "c"})
    assert r.candidates == ("a", "c")
    assert all(set(v.ranking) == {"a", "c"} for v in r.voters)


def test_dump_digraph_format(cycle3):
    text = dump_digraph(build_threshold_digraph(cycle3, "0.6"))
    assert text.splitlines() == [
        "a -> b  s=2/3",
        "b -> c  s=2/3",
        "c -> a  s=2/3",
    ]


# ------------------------------------------------- group-margin consequence

def _group_margin(e, i, group):
    """Fraction of voter weight preferring i to every member of group."""
    total = Fraction(0)
    for v in e.voters:
        pos = {c: idx for idx, c in enumerate(v.ranking)}
        if all(pos[i] < pos[j] for j in group):
            total += v.weight
    return Fraction(total, e.n)


def test_stable_lottery_bounds_group_margins():
    """If D is k-stable then no candidate beats a probability-p_J group more
    often than (1/(k+1) + tol) / p_J^k."""
    from itertools import combinations

    for seed in (0, 3, 8, 13):
        e = generate_election("uniform-random", n=5, m=4, seed=seed)
        for k in (1, 2):
            pair = stable_k_lottery(e, k)
            d = pair.attacker
            bound_scale = Fraction(1, k + 1) + Fraction(str(1e-6))
            for size in (1, 2, 3):
                for group in combinations(e.candidates, size):
                    p_j = sum(
                        (Fraction(d.weights.get(c, 0)) for c in group), Fraction(0)
                    )
                    if p_j == 0:
                        continue
                    for i in e.candidates:
                        if i in group:
                            continue
                        assert _group_margin(e, i, group) <= bound_scale / p_j**k
