"""Deterministic example modules and a grade-perturbation fuzzer.

Randomness comes from SplitMix64, a 64-bit deterministic generator with
no platform- or version-dependent behavior, so identical seeds yield
identical presentations everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import GradedMatrix, Presentation
from .grades import as_grade, join, leq
from .matching import presentation_pair_cost

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random generator over 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def unit(self) -> float:
        # uniform in [0, 1) with 53 random bits
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.unit()

    def below(self, n: int) -> int:
        return self.next_u64() % n


def gen_free(grade, field: int = 2) -> Presentation:
    """Free module on one generator at ``grade``."""
    return Presentation((as_grade(grade),), field=field)


def gen_hook(a, b, field: int = 2) -> Presentation:
    """Module born at ``a`` and vanishing above ``b``; requires a < b."""
    a = as_grade(a)
    b = as_grade(b)
    if len(a) != len(b) or not all(x < y for x, y in zip(a, b)):
        raise ValueError("hook needs a < b componentwise, got %r, %r" % (a, b))
    return Presentation.from_relations([a], [(b, {0: 1})], field=field)


def gen_staircase(k: int, field: int = 2) -> Presentation:
    """Staircase module with k+1 generators along the antidiagonal.

    Generators sit at ((k-m)/k scaled) steps (m/k, (k-m)/k) for
    m = 0..k; relation m at ((m+1)/k, (k-m)/k) glues the consecutive
    generators m and m+1.
    """
    if k < 1:
        raise ValueError("staircase needs k >= 1, got %r" % (k,))
    gens = [(m / k, (k - m) / k) for m in range(k + 1)]
    rels = [
        (((m + 1) / k, (k - m) / k), {m: 1, m + 1: field - 1})
        for m in range(k)
    ]
    return Presentation.from_relations(gens, rels, field=field)


def gen_chain(m: int, eps: float, field: int = 2) -> Presentation:
    """Direct sum of m diagonal hooks: the j-th lives on [j*eps, (j+1)*eps)."""
    if m < 1:
        raise ValueError("chain length must be positive, got %r" % (m,))
    if eps <= 0:
        raise ValueError("chain step must be positive, got %r" % (eps,))
    gens = [(j * eps, j * eps) for j in range(m)]
    rels = [(((j + 1) * eps, (j + 1) * eps), {j: 1}) for j in range(m)]
    return Presentation.from_relations(gens, rels, field=field, dim=2)


def gen_one_param_interval(a: float, b: float, field: int = 2) -> Presentation:
    """One-parameter interval module on [a, b); grades are 1-dimensional."""
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError("interval needs a < b, got %r, %r" % (a, b))
    return Presentation.from_relations([(a,)], [((b,), {0: 1})], field=field)


def gen_random(seed: int, gens: int, rels: int, grid: int) -> Presentation:
    """Seeded random two-parameter presentation over F_2.

    Generator grades are uniform on the integer grid {0..grid-1}^2.
    Each relation picks a random subset of one to three generators,
    takes the join of their grades as its column grade, and places
    coefficient 1 on each member, so the result is always grade-valid.
    With no generators the module is zero and ``rels`` is ignored.
    """
    if gens < 0 or rels < 0 or grid < 1:
        raise ValueError("gen_random needs gens, rels >= 0 and grid >= 1")
    rng = SplitMix64(seed)
    gen_grades = [
        (float(rng.below(grid)), float(rng.below(grid))) for _ in range(gens)
    ]
    col_grades, cols = [], []
    if gens > 0:
        for _ in range(rels):
            size = 1 + rng.below(min(3, gens))
            chosen: list[int] = []
            while len(chosen) < size:
                i = rng.below(gens)
                if i not in chosen:
                    chosen.append(i)
            chosen.sort()
            col_grades.append(join(*(gen_grades[i] for i in chosen)))
            cols.append([(i, 1) for i in chosen])
    m = GradedMatrix._trusted_pairs(tuple(gen_grades), tuple(col_grades), cols, 2, 2)
    return Presentation._trusted(m)


@dataclass(frozen=True)
class PerturbSpec:
    """Perturbation parameters: amplitude ``delta`` and PRNG ``seed``."""

    delta: float
    seed: int


@dataclass(frozen=True)
class PerturbResult:
    """Perturbed presentation plus the realized label displacement costs."""

    presentation: Presentation
    cost_l1: float
    cost_linf: float


def _check_delta(delta: float) -> None:
    if not 0 <= delta < math.inf:
        raise ValueError("delta must be finite and nonnegative, got %r" % (delta,))


def perturb(pres: Presentation, spec: PerturbSpec) -> PerturbResult:
    """Shift every grade label independently, keeping the matrix fixed.

    Each coordinate of each generator and relation grade moves by a
    uniform draw from [-delta, delta] (generators first, then relations,
    in index order).  Relation grades are then raised to the join with
    the perturbed grades of the generators they touch, restoring grade
    validity.  The realized per-label displacement never exceeds
    2 * delta in the l-infinity norm.
    """
    _check_delta(spec.delta)
    rng = SplitMix64(spec.seed)
    d = spec.delta
    # a shifted coordinate can overflow, so each new grade is checked once
    new_gens = tuple(as_grade(c + rng.uniform(-d, d) for c in g) for g in pres.gens)
    cols = pres.rels.columns()
    col_grades = []
    for j, cgrade in enumerate(pres.rels.col_grades):
        shifted = tuple(c + rng.uniform(-d, d) for c in cgrade)
        support = sorted(cols[j])
        if support:
            shifted = join(shifted, *(new_gens[i] for i in support))
        col_grades.append(as_grade(shifted))
    m = GradedMatrix._trusted(new_gens, tuple(col_grades), pres.rels.cols, pres.field, pres.dim)
    out = Presentation._trusted(m)
    return PerturbResult(
        out,
        presentation_pair_cost(pres, out, 1),
        presentation_pair_cost(pres, out, float("inf")),
    )
