"""Tests for sample sizes, the sampling boxes, and RepApx certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lotdist.elections import Lottery, Multiset, candidate_beats_power
from lotdist.generators import generate_election
from lotdist.lotteries import maximal_lottery
from lotdist.sampling import (
    RepApxSamplingError,
    check_repapx,
    empirical_sampling,
    sample_size_ml,
    sample_size_sl,
    sample_until_repapx,
)

from _oracles import binomial_band, fraction_sampling


# ---------------------------------------------------------------- sample sizes

def test_sample_size_ml_frozen():
    assert sample_size_ml(0.1) == 40
    assert sample_size_ml(0.5) == 2


def test_sample_size_sl_frozen():
    assert sample_size_sl(0.5, 1) == 7
    assert sample_size_sl(0.5, 2) == 26
    assert sample_size_sl(1 / 7, 7) == 3772


def test_sample_size_matches_formula():
    for eps in (0.03, 0.2, 0.9):
        assert sample_size_ml(eps) == math.ceil(math.pi / 8 / eps**2)
        for k in (1, 2, 5):
            assert sample_size_sl(eps, k) == math.ceil(math.pi / 2 * k * k / eps**2)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.3, 2.0])
def test_sample_size_rejects_bad_epsilon(eps):
    with pytest.raises(ValueError):
        sample_size_ml(eps)
    with pytest.raises(ValueError):
        sample_size_sl(eps, 2)


def test_sample_size_rejects_bad_k():
    with pytest.raises(ValueError):
        sample_size_sl(0.2, 0)


@given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99))
def test_sample_size_monotone_in_epsilon(e1, e2):
    lo, hi = sorted((e1, e2))
    assert sample_size_ml(lo) >= sample_size_ml(hi)
    assert sample_size_sl(lo, 3) >= sample_size_sl(hi, 3)


@given(st.integers(min_value=1, max_value=20))
def test_sample_size_monotone_in_k(k):
    assert sample_size_sl(0.3, k + 1) >= sample_size_sl(0.3, k)


# ------------------------------------------------------------- sampling box

def test_point_mass_sampling(cycle3):
    ms = empirical_sampling(cycle3, Lottery.point("a"), 17, seed=5)
    assert ms.counts == {"a": 17}
    assert ms.induced_lottery().weights == {"a": Fraction(1)}


def test_single_draw_lands_in_support(cycle3):
    base = Lottery({"a": Fraction(1, 2), "c": Fraction(1, 2)})
    ms = empirical_sampling(cycle3, base, 1, seed=11)
    assert ms.size == 1
    (cand,) = ms.counts
    assert cand in ("a", "c")


def test_sampling_deterministic_per_seed(cycle3):
    base = Lottery.uniform(["a", "b", "c"])
    first = empirical_sampling(cycle3, base, 50, seed=123)
    second = empirical_sampling(cycle3, base, 50, seed=123)
    assert first.counts == second.counts
    other = empirical_sampling(cycle3, base, 50, seed=124)
    assert other.counts != first.counts


def test_sampling_accepts_generator_seed(cycle3):
    base = Lottery.uniform(["a", "b", "c"])
    direct = empirical_sampling(cycle3, base, 30, seed=7)
    via_gen = empirical_sampling(
        cycle3, base, 30, seed=np.random.Generator(np.random.PCG64(7))
    )
    assert direct.counts == via_gen.counts


def test_sampling_respects_float_base(cycle3):
    # Float weights that do not sum to 1 exactly in binary still sample
    # without error, and only supported candidates appear.
    base = Lottery({"a": 0.1, "b": 0.9})
    ms = empirical_sampling(cycle3, base, 200, seed=3)
    assert set(ms.counts) <= {"a", "b"}
    assert ms.size == 200


def test_sampling_law_two_candidates(split2):
    """Empirical frequency of a over 1e5 single-draw seeds obeys the binomial law."""
    base = Lottery.uniform(["a", "b"])
    hits = 0
    for seed in range(100_000):
        ms = empirical_sampling(split2, base, 1, seed=seed)
        hits += ms.count("a")
    lo, hi = binomial_band(100_000, 0.5)
    assert lo <= hits / 100_000 <= hi


def _oracle_bases():
    """Bases for the sampler oracle: exact, 1e12-snapped, float, zero entry."""
    rng = np.random.default_rng(2024)
    names = ["a", "b", "c", "d", "e"]
    exact = Lottery({"a": Fraction(1, 3), "b": Fraction(1, 7), "c": Fraction(2, 9),
                     "d": Fraction(4, 63), "e": Fraction(5, 21)})
    snapped = [Fraction(float(x)).limit_denominator(10**12)
               for x in rng.dirichlet(np.ones(5))]
    snapped[0] += 1 - sum(snapped)
    floats = {c: float(x) for c, x in zip(names, rng.dirichlet(np.ones(5)))}
    zero = Lottery({"a": Fraction(0), "b": Fraction(3, 8), "c": Fraction(0),
                    "d": Fraction(5, 8), "e": Fraction(0)})
    return {"exact": exact, "snapped": Lottery(dict(zip(names, snapped))),
            "float": Lottery(floats), "zero-entry": zero}


@pytest.mark.parametrize("q", [1, 40, 7697, 10**5])
@pytest.mark.parametrize("kind", ["exact", "snapped", "float", "zero-entry"])
def test_sampling_matches_fraction_oracle(kind, q):
    """Same multiset, counts and first-draw order as one Fraction test per draw."""
    e = generate_election("uniform-random", n=3, m=5, seed=0)
    base = _oracle_bases()[kind]
    for seed in (0, 1):
        got = empirical_sampling(e, base, q, seed=seed)
        want = fraction_sampling(e, base, q, seed=seed)
        assert list(got.counts.items()) == list(want.counts.items())


def test_sampling_rejects_nonpositive_q(cycle3):
    with pytest.raises(ValueError):
        empirical_sampling(cycle3, Lottery.point("a"), 0, seed=1)


# ------------------------------------------------------------- check_repapx

def test_exact_ml_is_valid_at_zero_epsilon(cycle3):
    ml = maximal_lottery(cycle3)
    cert = check_repapx(cycle3, ml, ml, k=1, epsilon=0.0)
    assert cert.valid and cert.support_ok
    assert cert.achieved <= 0.5


def test_support_violation_detected(cycle3):
    cert = check_repapx(cycle3, Lottery.point("b"), Lottery.point("a"), k=1, epsilon=0.5)
    assert not cert.support_ok
    assert not cert.valid


def test_point_mass_on_cycle_fails_margin_condition(cycle3):
    # c beats a with margin 2/3, which exceeds 1/2 + 0.1.
    base = maximal_lottery(cycle3)
    cert = check_repapx(cycle3, Lottery.point("a"), base, k=1, epsilon=0.1)
    assert cert.support_ok
    assert not cert.valid
    assert cert.achieved == pytest.approx(2 / 3, abs=1e-12)


def test_check_rejects_bad_arguments(cycle3):
    ml = maximal_lottery(cycle3)
    with pytest.raises(ValueError):
        check_repapx(cycle3, ml, ml, k=0, epsilon=0.1)
    with pytest.raises(ValueError):
        check_repapx(cycle3, ml, ml, k=1, epsilon=-0.1)


def test_certificate_serializes(cycle3):
    ml = maximal_lottery(cycle3)
    blob = check_repapx(cycle3, ml, ml, k=2, epsilon=0.25).to_json()
    assert blob["k"] == 2 and blob["valid"] is True
    assert set(blob) >= {"distribution", "base", "epsilon", "achieved", "support_ok", "attempts"}


# -------------------------------------------------------- sample_until_repapx

def test_point_mass_base_succeeds_immediately(cycle3):
    e = generate_election("uniform-random", n=4, m=3, seed=2)
    base = Lottery.point(e.candidates[0])
    cert = sample_until_repapx(e, base, k=1, epsilon=0.3, gamma=1.0, seed=0)
    assert cert.valid
    assert cert.attempts == 1
    assert cert.distribution.weights == {e.candidates[0]: Fraction(1)}


def test_gamma_must_be_positive(cycle3):
    ml = maximal_lottery(cycle3)
    for gamma in (0.0, -1.0):
        with pytest.raises(ValueError):
            sample_until_repapx(cycle3, ml, k=1, epsilon=0.3, gamma=gamma, seed=0)
    with pytest.raises(ValueError):
        sample_until_repapx(cycle3, ml, k=1, epsilon=0.3, gamma=1.0, seed=0, max_attempts=0)


def test_exhaustion_reports_best_attempt(cycle3):
    # A single draw from the uniform lottery is a point mass, and every point
    # mass on the cycle is beaten with margin 2/3 > 1/2 + (1+1)*0.01, so the
    # loop can never succeed with q=1.
    ml = maximal_lottery(cycle3)
    with pytest.raises(RepApxSamplingError) as exc:
        sample_until_repapx(cycle3, ml, k=1, epsilon=0.01, gamma=1.0, seed=9,
                            max_attempts=4, q=1)
    best = exc.value.best
    assert best.support_ok and not best.valid
    assert best.achieved == pytest.approx(2 / 3, abs=1e-12)
    assert "4 attempts" in str(exc.value)


def _batch_spawn_certificate(e, base, k, epsilon, gamma, seed, max_attempts, q):
    """The attempt loop with every child seed spawned before the first attempt."""
    tol = (1.0 + gamma) * epsilon
    children = np.random.SeedSequence(seed).spawn(max_attempts)
    for attempt, child in enumerate(children, start=1):
        ms = fraction_sampling(e, base, q, np.random.Generator(np.random.PCG64(child)))
        cert = check_repapx(e, ms.induced_lottery(), base, k, tol, attempts=attempt)
        if cert.valid:
            return cert
    return None


def test_late_success_matches_batch_spawned_seeds(cycle3):
    # Three draws from the uniform cycle lottery certify at tolerance 0.02
    # only when all three candidates are drawn, so attempts often run long.
    ml = maximal_lottery(cycle3)
    for seed in (0, 3, 6):
        cert = sample_until_repapx(cycle3, ml, k=1, epsilon=0.01, gamma=1.0,
                                   seed=seed, max_attempts=50, q=3)
        assert cert.attempts >= 2
        assert cert == _batch_spawn_certificate(cycle3, ml, 1, 0.01, 1.0, seed, 50, 3)
        ss = np.random.SeedSequence(seed)
        again = sample_until_repapx(cycle3, ml, k=1, epsilon=0.01, gamma=1.0,
                                    seed=ss, max_attempts=50, q=3)
        assert again == cert
        assert ss.n_children_spawned == cert.attempts


def test_valid_certificates_recheck_exactly(corpus, corpus_lotteries):
    """Spot-check that reported validity survives an independent exact recheck."""
    for e, base in list(zip(corpus, corpus_lotteries))[:12]:
        cert = sample_until_repapx(e, base, k=1, epsilon=0.3, gamma=1.0, seed=77)
        assert cert.valid
        assert set(cert.distribution.support()) <= set(base.support())
        worst = max(
            candidate_beats_power(e, a, cert.distribution, 1) for a in e.candidates
        )
        assert worst <= Fraction(1, 2) + Fraction(cert.epsilon)


def test_sampled_weights_have_denominator_dividing_q(corpus, corpus_lotteries):
    q = sample_size_sl(0.3, 1)
    for e, base in list(zip(corpus, corpus_lotteries))[20:32]:
        cert = sample_until_repapx(e, base, k=1, epsilon=0.3, gamma=1.0, seed=5, q=q)
        weights = cert.distribution.weights
        assert sum(weights.values()) == 1
        for w in weights.values():
            assert q % Fraction(w).denominator == 0


def test_mean_attempts_is_geometric_like():
    """At gamma=1 each attempt succeeds with probability >= 1/2, so the mean
    attempt count over independent seeds stays below (1+gamma)/gamma + 0.5."""
    total = 0
    runs = 120
    for seed in range(runs):
        e = generate_election("uniform-random", n=7, m=5, seed=seed)
        base = maximal_lottery(e)
        cert = sample_until_repapx(e, base, k=1, epsilon=0.3, gamma=1.0, seed=seed)
        total += cert.attempts
    assert total / runs <= 2.5


def test_multiset_roundtrip_through_sampling(cycle3):
    base = Lottery.uniform(["a", "b", "c"])
    ms = empirical_sampling(cycle3, base, 24, seed=42)
    again = Multiset.from_elements(
        [c for c, n in sorted(ms.counts.items()) for _ in range(n)]
    )
    assert again.counts == ms.counts
    assert ms.size == 24
