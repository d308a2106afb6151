"""Fuzz harness checking the stability bounds on random perturbations.

Each trial draws a random two-parameter presentation, perturbs its
grade labels, and checks two bounds against the realized label
displacement costs (which upper-bound the corresponding
interleaving-type distances for a shared underlying matrix):

* signed bottleneck between the signed Betti barcodes
  <= 3 * (realized l-infinity cost), the two-parameter specialization
  of the (n^2 - 1) factor;
* signed 1-Wasserstein between the reduced decompositions
  <= 2 * (realized l1 cost).

A trial with zero realized cost contributes ratio 0 when the distance
is also 0 and is a violation otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .algebra import betti
from .generators import PerturbSpec, SplitMix64, _check_delta, gen_random, perturb
from .hilbert import hilbert_distance
from .matching import bottleneck_signed

#: Two-parameter factor for the bottleneck bound.
BOTTLENECK_FACTOR = 3.0
#: Factor for the 1-Wasserstein bound.
WASSERSTEIN_FACTOR = 2.0
#: Slack for float accumulation when comparing distances to bounds.
TOLERANCE = 1e-9
#: Trial sizes: 1..MAX_GENS generators, 0..MAX_RELS relations, grades on {0..GRID-1}^2.
MAX_GENS = 6
MAX_RELS = 6
GRID = 8


@dataclass(frozen=True)
class StabilityTrial:
    index: int
    delta: float
    cost_l1: float
    cost_linf: float
    dist_bottleneck: float
    dist_wasserstein: float
    ratio_bottleneck: float
    ratio_wasserstein: float


@dataclass
class StabilityReport:
    trials: list[StabilityTrial] = dataclass_field(default_factory=list)
    violations: list[str] = dataclass_field(default_factory=list)

    @property
    def max_ratio_bottleneck(self) -> float:
        return max((t.ratio_bottleneck for t in self.trials), default=0.0)

    @property
    def max_ratio_wasserstein(self) -> float:
        return max((t.ratio_wasserstein for t in self.trials), default=0.0)

    @property
    def ok(self) -> bool:
        return not self.violations


def _ratio(dist: float, bound: float) -> float:
    if dist == 0.0:
        return 0.0
    if bound == 0.0:
        return math.inf
    return dist / bound


def run_stability(trials: int, delta: float, seed: int) -> StabilityReport:
    """Run ``trials`` seeded perturbation trials at amplitude ``delta``."""
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    _check_delta(delta)
    rng = SplitMix64(seed)
    report = StabilityReport()
    for t in range(trials):
        ngens = 1 + rng.below(MAX_GENS)
        nrels = rng.below(MAX_RELS + 1)
        base_seed = rng.next_u64()
        pert_seed = rng.next_u64()
        pres = gen_random(base_seed, ngens, nrels, GRID)
        out = perturb(pres, PerturbSpec(delta, pert_seed))
        if out.cost_linf > 2 * delta + 1e-12:
            report.violations.append(
                "trial %d: realized l-inf cost %r exceeds 2*delta" % (t, out.cost_linf)
            )
        sb_before = betti(pres).signed
        sb_after = betti(out.presentation).signed
        d_b = bottleneck_signed(sb_before, sb_after).value
        d_w = hilbert_distance(sb_before, sb_after)
        bound_b = BOTTLENECK_FACTOR * out.cost_linf
        bound_w = WASSERSTEIN_FACTOR * out.cost_l1
        if not d_b <= bound_b + TOLERANCE:
            report.violations.append(
                "trial %d: bottleneck %r exceeds bound %r" % (t, d_b, bound_b)
            )
        if not d_w <= bound_w + TOLERANCE:
            report.violations.append(
                "trial %d: wasserstein %r exceeds bound %r" % (t, d_w, bound_w)
            )
        report.trials.append(
            StabilityTrial(
                index=t,
                delta=delta,
                cost_l1=out.cost_l1,
                cost_linf=out.cost_linf,
                dist_bottleneck=d_b,
                dist_wasserstein=d_w,
                ratio_bottleneck=_ratio(d_b, bound_b),
                ratio_wasserstein=_ratio(d_w, bound_w),
            )
        )
    return report
