"""Sampling-based approximation certificates for equilibrium lotteries.

The two sampling boxes draw q i.i.d. candidates from an exact equilibrium
lottery and use the uniform distribution over the drawn multiset as a
compact surrogate.  A surrogate D is an eps-representative approximation
("RepApx") of the base when

* Supp(D) is contained in Supp(base), and
* max over candidates a of Pr[a beats D^k] <= 1/(k+1) + eps
  (k = 1 recovers the margin condition s(a, D) <= 1/2 + eps).

Sample sizes follow the DKW/Massart-style bounds: q = ceil(pi/8 * eps^-2)
for the k = 1 margin form and q = ceil(pi/2 * k^2 * eps^-2) in general.
Drawing q samples makes the uniform surrogate a (1+gamma)*eps certificate
with probability at least gamma/(1+gamma), so repeated sampling succeeds
quickly; the checker itself runs in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Union

import numpy as np

from .elections import Election, Lottery, Multiset, candidate_beats_power
from .lotteries import as_exact_lottery

__all__ = [
    "RepApxCertificate",
    "RepApxSamplingError",
    "sample_size_ml",
    "sample_size_sl",
    "empirical_sampling",
    "check_repapx",
    "sample_until_repapx",
]

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


def sample_size_ml(epsilon: float) -> int:
    """Draw count for the margin (k=1) box: ceil(pi/8 / epsilon^2)."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    return math.ceil(math.pi / 8.0 / (epsilon * epsilon))

def sample_size_sl(epsilon: float, k: int) -> int:
    """Draw count for the k-draw box: ceil(pi/2 * k^2 / epsilon^2)."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.ceil(math.pi / 2.0 * k * k / (epsilon * epsilon))


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def empirical_sampling(e: Election, base: Lottery, q: int, seed: SeedLike) -> Multiset:
    """Multiset of q i.i.d. draws from ``base``, deterministic given the seed.

    Inversion sampling against exact cumulative weights cum_1 <= ... <= cum_r
    = total, in candidate order: a uniform variate u draws the first
    candidate c with u * total < cum_c, compared as exact rationals, so float
    base lotteries sample without re-normalization drift and identical seeds
    give identical multisets on any platform.

    numpy's ``Generator.random`` returns u = j / 2**53 for an integer
    0 <= j < 2**53, so u * total < cum_c holds exactly when
    j < 2**53 * cum_c / total, that is when j < t_c = ceil(2**53 * cum_c / total).
    The thresholds t_c are computed once in integer arithmetic, and each
    draw's candidate is the number of thresholds <= j, found for all q draws
    at once by ``searchsorted``.  The last threshold is 2**53 > j, so every
    draw lands on a candidate; a zero weight repeats the previous threshold
    and is never drawn.  Candidates enter the multiset in order of first draw.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    rng = _rng(seed)
    cands = [c for c in e.candidates if c in base.weights]
    weights = [Fraction(base.weights[c]) for c in cands]
    den = math.lcm(*(w.denominator for w in weights))
    cum = list(accumulate(w.numerator * (den // w.denominator) for w in weights))
    thresholds = np.array([-(-(c << 53) // cum[-1]) for c in cum], dtype=np.int64)
    drawn = np.searchsorted(thresholds, (rng.random(q) * 2**53).astype(np.int64),
                            side="right")
    counts = np.bincount(drawn, minlength=len(cands))
    return Multiset({cands[i]: int(counts[i]) for i in dict.fromkeys(drawn.tolist())})


@dataclass(frozen=True)
class RepApxCertificate:
    """Outcome of checking the representative-approximation conditions."""

    distribution: Lottery
    base: Lottery
    epsilon: float
    k: int
    achieved: float
    support_ok: bool
    valid: bool
    attempts: int = 0

    def to_json(self) -> dict:
        return {
            "distribution": self.distribution.to_json(),
            "base": self.base.to_json(),
            "epsilon": self.epsilon,
            "k": self.k,
            "achieved": self.achieved,
            "support_ok": self.support_ok,
            "valid": self.valid,
            "attempts": self.attempts,
        }


class RepApxSamplingError(RuntimeError):
    """Sampling loop exhausted max_attempts; carries the best failed attempt."""

    def __init__(self, message: str, best: RepApxCertificate):
        super().__init__(message)
        self.best = best


def check_repapx(e: Election, d: Lottery, base: Lottery, k: int,
                 epsilon: float, attempts: int = 0) -> RepApxCertificate:
    """Exact check of the two RepApx conditions for ``d`` against ``base``.

    The value condition max_a Pr[a beats d^k] <= 1/(k+1) + epsilon is decided
    in rational arithmetic (epsilon enters as the exact value of its double),
    so ``valid`` is never a rounding artifact.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    support_ok = set(d.support()) <= set(base.support())
    dx = as_exact_lottery(d)
    worst = max(candidate_beats_power(e, a, dx, k) for a in e.candidates)
    bound = Fraction(1, k + 1) + Fraction(epsilon)
    return RepApxCertificate(
        distribution=d,
        base=base,
        epsilon=float(epsilon),
        k=k,
        achieved=float(worst),
        support_ok=support_ok,
        valid=support_ok and worst <= bound,
        attempts=attempts,
    )


def sample_until_repapx(e: Election, base: Lottery, k: int, epsilon: float,
                        gamma: float, seed: SeedLike, max_attempts: int = 1000,
                        q: int | None = None) -> RepApxCertificate:
    """Resample until the uniform surrogate certifies at tolerance (1+gamma)*epsilon.

    Each attempt draws ``q`` samples (default ``sample_size_sl(epsilon, k)``)
    from ``base`` with an attempt-specific child seed, then checks the
    conditions at the widened tolerance.  Success on each attempt has
    probability at least gamma/(1+gamma), so the loop is short; if
    ``max_attempts`` is exhausted anyway, the best attempt rides along on the
    raised :class:`RepApxSamplingError`.

    Attempt i uses the i-th child of the seed's ``SeedSequence``, spawned when
    the attempt starts, so the children are those a batch
    ``spawn(max_attempts)`` would give.  A ``SeedSequence`` passed in has its
    spawn counter advanced by the number of attempts used, so passing the
    same one again yields different children.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if q is None:
        q = sample_size_sl(epsilon, k)
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    elif isinstance(seed, int):
        ss = np.random.SeedSequence(seed)
    else:
        raise TypeError("seed must be an int or a SeedSequence")
    tol = (1.0 + gamma) * epsilon
    best: RepApxCertificate | None = None
    for attempt in range(1, max_attempts + 1):
        (child,) = ss.spawn(1)
        ms = empirical_sampling(e, base, q, np.random.Generator(np.random.PCG64(child)))
        cert = check_repapx(e, ms.induced_lottery(), base, k, tol, attempts=attempt)
        if cert.valid:
            return cert
        if best is None or (cert.support_ok and cert.achieved < best.achieved):
            best = cert
    raise RepApxSamplingError(
        f"no valid certificate in {max_attempts} attempts "
        f"(best achieved {best.achieved} vs bound {1/(k+1) + tol})",
        best=best,
    )
