"""Betti barcodes checked degree by degree against Koszul homology.

The multigraded Betti numbers of a module M are the dimensions of Tor with
the residue field.  At a grid point a of two parameters that is the
homology of the Koszul complex M(a12) -> M(a1) + M(a2) -> M(a), where a1
and a2 are the grid predecessors of a in x and in y and a12 the one in
both; M is zero at a missing predecessor.  With F(b) the generators at or
below b and R(b) the span of the relation columns at or below b:

    b0(a) = |F(a)| - rank(the unit vectors of F(a1) and F(a2), with R(a))
    b2(a) = rank R(a1) + rank R(a2) - rank(R(a1) + R(a2)) - rank R(a12)
    b1(a) = b0(a) + b2(a) - (dim M(a) - dim M(a1) - dim M(a2) + dim M(a12))

One parameter has the terms of a and a1 only.  The grid is the product of
the grade coordinates: M is constant between them, and every Betti grade is
a join of generator and relation grades, so it lies on the grid.  Ranks are
taken by dense Gaussian elimination over F_p (``dense_rank``), so the oracle
shares no code with the library's column reduction, minimization or kernel
sweep.  The alternating sum b0 - b1 + b2, which the Hilbert function checks
see, cancels two spurious bars at one grade in adjacent degrees; this
oracle does not.
"""

import itertools

import pytest

from msb import Presentation, SplitMix64, betti, chain_to_presentation, gen_random
from test_algebra import dense_rank, random_graded_matrix
from test_cli import lower_star_square, random_presentation


def koszul_betti(pres):
    """Per degree 0..n, the sorted grades of the Betti numbers of the
    presented module, one per unit of dimension."""
    p, n = pres.field, pres.dim or 1
    gens, grades = pres.gens, pres.rels.col_grades
    cols = pres.rels.columns()
    axes = [sorted({g[k] for g in gens + grades}) for k in range(n)]

    def below(b, items):
        return [k for k, g in enumerate(items) if b is not None and all(map(float.__le__, g, b))]

    def rank_r(b):
        return dense_rank([cols[j] for j in below(b, grades)], len(gens), p)

    def dim_m(b):
        return len(below(b, gens)) - rank_r(b)

    def pred(a, ks):
        out = list(a)
        for k in ks:
            i = axes[k].index(a[k])
            if i == 0:
                return None
            out[k] = axes[k][i - 1]
        return tuple(out)

    bars = [[] for _ in range(n + 1)]
    for a in itertools.product(*axes):
        preds = [pred(a, ks) for ks in ((0,), (1,))[:n]]
        units = {i for b in preds for i in below(b, gens)}
        rel_rest = [{i: v for i, v in cols[j].items() if i not in units} for j in below(a, grades)]
        b0 = len(below(a, gens)) - len(units) - dense_rank(rel_rest, len(gens), p)
        euler = dim_m(a) - sum(dim_m(b) for b in preds)
        b2 = 0
        if n == 2:
            a12 = pred(a, (0, 1))
            euler += dim_m(a12)
            both = [cols[j] for b in preds for j in below(b, grades)]
            b2 = sum(map(rank_r, preds)) - dense_rank(both, len(gens), p) - rank_r(a12)
        for degree, count in enumerate((b0, b0 + b2 - euler, b2)[: n + 1]):
            bars[degree] += [a] * count
    return bars


def assert_betti_matches_koszul(pres):
    got = [list(b.bars) for b in betti(pres).by_degree]
    assert got == koszul_betti(pres)
    return got


def test_koszul_oracle_on_the_random_corpus():
    rng = SplitMix64(5)
    counts = [0, 0, 0]
    for trial in range(300):
        pres = gen_random(11000 + trial, 1 + rng.below(8), rng.below(12), 6)
        for degree, bars in enumerate(assert_betti_matches_koszul(pres)):
            counts[degree] += len(bars)
    # every degree has bars to get wrong
    assert min(counts) >= 10


@pytest.mark.parametrize("field", [3, 5])
def test_koszul_oracle_over_odd_fields_in_one_and_two_parameters(field):
    # the presentations of the minimize pin, and random grade-valid
    # matrices on {0..4}^dim, which have more second syzygies
    rng = SplitMix64(101 + field)
    counts = [0, 0, 0]
    for dim in (1, 2):
        for _ in range(60):
            m = random_graded_matrix(rng, field, dim)
            for pres in (random_presentation(rng, field, dim), Presentation(m.row_grades, m)):
                for degree, bars in enumerate(assert_betti_matches_koszul(pres)):
                    counts[degree] += len(bars)
    assert min(counts) >= 5


@pytest.mark.parametrize("field", [2, 3])
@pytest.mark.parametrize("n, levels", [(5, 6), (6, 1000)])
def test_koszul_oracle_on_lower_star_grids(field, n, levels):
    # degree-0 homology of these grids has degree-2 bars
    b2 = 0
    for seed in (20240, 20243):
        bif = lower_star_square(seed, n, levels, field=field)
        for d in (0, 1):
            b2 += len(assert_betti_matches_koszul(chain_to_presentation(bif, d))[2])
    assert b2 >= 3
