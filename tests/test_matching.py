"""Bottleneck and Wasserstein matchings, oracles, and pair costs."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from msb import (
    Barcode,
    MatchingResult,
    Presentation,
    SignedBarcode,
    SplitMix64,
    barcode_union,
    betti,
    bottleneck,
    bottleneck_signed,
    brute_force_matching,
    dist_inf,
    dist_one,
    eps_bijection_exists,
    gen_chain,
    gen_free,
    gen_staircase,
    minimal_hilbert_decomposition,
    presentation_pair_cost,
    reduce_signed,
    wasserstein,
    wasserstein_signed,
)
import msb.matching
from msb.matching import (
    _adjacency,
    _augment_to_maximum,
    _coords,
    _cost_matrix,
    _min_cost_assignment,
    _near_pairs,
)

EMPTY = SignedBarcode(Barcode([], dim=2), Barcode([], dim=2))


def random_barcode(rng, size, grid=8):
    return Barcode(
        [(float(rng.below(grid)), float(rng.below(grid))) for _ in range(size)], dim=2
    )


def tied_barcode(rng, pool, size):
    """``size`` bars drawn from the few points of ``pool``."""
    return Barcode([pool[rng.below(len(pool))] for _ in range(size)], dim=2)


def point_pool(rng, grid=8):
    return [(float(rng.below(grid)), float(rng.below(grid))) for _ in range(2 + rng.below(2))]


def quarter_grid_pool(rng):
    return [(rng.below(24) / 4, rng.below(24) / 4) for _ in range(1 + rng.below(12))]


def quarter_grid_barcode(rng, pool, size):
    """``size`` bars on a quarter grid, each by a coin flip from ``pool`` or fresh."""
    return Barcode(
        [
            pool[rng.below(len(pool))] if rng.below(2) else (rng.below(40) / 4, rng.below(40) / 4)
            for _ in range(size)
        ],
        dim=2,
    )


def random_signed(rng, grid=6, max_bars=4):
    return SignedBarcode(
        random_barcode(rng, rng.below(max_bars + 1), grid),
        random_barcode(rng, rng.below(max_bars + 1), grid),
    )


def square_pair():
    """Free module at the origin vs the two-generator corner module."""
    m = betti(gen_free((0.0, 0.0))).signed
    n = betti(
        Presentation.from_relations(
            [(1.0, 0.0), (0.0, 1.0)], [((1.0, 1.0), {0: 1, 1: 1})]
        )
    ).signed
    return m, n


# ---------------------------------------------------------------------------
# eps_bijection_exists


def test_eps_bijection_single_pair():
    b = Barcode([(0.0, 0.0)])
    c = Barcode([(1.0, 0.0)])
    assert eps_bijection_exists(b, c, 1.0)
    assert not eps_bijection_exists(b, c, 0.5)


def test_eps_bijection_identity_at_zero():
    rng = SplitMix64(79)
    for _ in range(50):
        b = random_barcode(rng, rng.below(7))
        assert eps_bijection_exists(b, b, 0.0)


def test_eps_bijection_diagonal_swap():
    b = Barcode([(0.0, 0.0), (1.0, 1.0)])
    c = Barcode([(1.0, 0.0), (0.0, 1.0)])
    assert eps_bijection_exists(b, c, 1.0)
    assert not eps_bijection_exists(b, c, 0.99)


def test_eps_bijection_cardinality_mismatch_is_false():
    assert not eps_bijection_exists(Barcode([(0.0, 0.0)]), Barcode([], dim=2), 10.0)


def test_eps_bijection_checks_eps():
    b = Barcode([(0.0, 0.0)])
    with pytest.raises(ValueError, match="eps must be a number, got nan"):
        eps_bijection_exists(b, b, float("nan"))
    with pytest.raises(ValueError, match="'one'"):
        eps_bijection_exists(b, b, "one")
    assert eps_bijection_exists(b, b, "0.5") and not eps_bijection_exists(b, b, -math.inf)


def test_eps_bijection_agrees_with_bottleneck():
    # both read the same pair listing: the bottleneck value admits an
    # eps-bijection and the next float below it does not
    rng = SplitMix64(157)
    cases = list(certificate_cases())
    for _ in range(40):
        k = 1 + rng.below(12)
        cases.append((random_barcode(rng, k), random_barcode(rng, k)))
        pool = point_pool(rng)
        cases.append((tied_barcode(rng, pool, k), tied_barcode(rng, pool, k)))
    for b, c in cases:
        v = bottleneck(b, c).value
        assert eps_bijection_exists(b, c, v)
        assert not eps_bijection_exists(b, c, math.nextafter(v, -math.inf))


def test_bottleneck_memory_stays_below_a_dense_matrix():
    # 3000 bars a side: one dense 8 * K^2 matrix is 72 MB; the pair listing
    # holds only the pairs near enough for the search
    rng = SplitMix64(163)
    b, c = (random_barcode(rng, 3000, grid=1000) for _ in range(2))
    tracemalloc.start()
    try:
        v = bottleneck(b, c).value
        bottleneck_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert eps_bijection_exists(b, c, v)
        eps_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bottleneck_peak < 24e6 and eps_peak < 24e6, (bottleneck_peak, eps_peak)


def test_empty_barcodes_have_an_empty_cost_matrix():
    for dims in ((None, None), (2, None), (None, 1), (2, 2)):
        b, c = Barcode([], dim=dims[0]), Barcode([], dim=dims[1])
        for p in (1.0, 2.5, math.inf):
            assert _cost_matrix(b, c, p).shape == (0, 0)
        assert eps_bijection_exists(b, c, 0.0)
    assert _cost_matrix(Barcode([(0.0, 1.0)]), Barcode([], dim=2), 1.0).shape == (1, 0)


def test_augment_to_maximum_long_augmenting_path():
    # the first round matches row i to column i, and row K-1 finds its one
    # column already visited, so the second round's augmenting path runs
    # through all K rows; the search must not depend on the interpreter's
    # recursion limit
    K = 3000
    adj = [[i, i + 1] for i in range(K - 1)] + [[0]]
    match_l, match_r = [-1] * K, [-1] * K
    _augment_to_maximum(adj, match_l, match_r)
    assert match_l == [i + 1 for i in range(K - 1)] + [0]
    assert all(match_r[j] == i for i, j in enumerate(match_l))


#: Coordinates drawn by ``near_pairs_cases``: few values, so first
#: coordinates tie often; negative ones; and magnitudes whose differences
#: round coarsely or overflow to inf.
NEAR_PAIR_COORDS = (0.0, 1.0, 2.0, -3.0, 0.5, -1e200, 1e200, 3e200, 1e308, -1e308)


def near_pairs_cases():
    rng = SplitMix64(131)
    # a window end a -/+ t rounds past a pair whose computed distance is t:
    # fl(0.1 - (-0.10000000000000002)) == 0.2, yet -0.10000000000000002 < fl(0.1 - 0.2)
    low, high = (-0.10000000000000002, 0.0), (0.1, 0.0)
    yield Barcode([high, (5.0, 0.0)]), Barcode([low, (5.0, 1.0)])
    yield Barcode([low, (0.3, 0.0)]), Barcode([high, (0.3, 1.0)])
    for n in (1, 2, 3):
        for K, L in ((0, 0), (1, 0), (1, 1), (2, 3), (3, 3), (7, 6), (20, 20), (45, 45)):
            small = rng.below(2) == 0  # else one coordinate in four from the whole pool
            yield tuple(
                Barcode(
                    [
                        tuple(
                            NEAR_PAIR_COORDS[rng.below(10 if not small and rng.below(4) == 0 else 5)]
                            for _ in range(n)
                        )
                        for _ in range(size)
                    ],
                    dim=n,
                )
                for size in (K, L)
            )


@pytest.mark.parametrize("block", [None, 16])
def test_near_pairs_list_the_dense_matrix(monkeypatch, block):
    # the listing at radius t is the dense matrix's D <= t: the same pairs in
    # the same order with the same distance bits; its bound is the dense
    # row/column bound wherever that is at most t; the probe's adjacency
    # lists are the rows of D <= t.  Blocks of 16 pairs split the rows into
    # many windows.
    if block is not None:
        monkeypatch.setattr(msb.matching, "_BLOCK", block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b, c in near_pairs_cases():
            D = _cost_matrix(b, c, math.inf)
            dists = np.unique(D).tolist()
            below = [math.nextafter(d, -math.inf) for d in dists]
            for t in [-math.inf, -1.0, 0.0, math.inf] + dists + below:
                (flat, d), bound = _near_pairs(*_coords(b, c), t)
                i, j = np.nonzero(D <= t)
                assert flat.tolist() == (i * len(c) + j).tolist()
                assert d.tobytes() == D[i, j].tobytes()
                if D.size:
                    exact = max(D.min(axis=1).max(), D.min(axis=0).max())
                    assert bound == exact if exact <= t else bound > t
                if len(b) == len(c):
                    adj = _adjacency((flat, d), t, len(b))
                    assert adj == [np.flatnonzero(D[r] <= t).tolist() for r in range(len(b))]


# ---------------------------------------------------------------------------
# bottleneck


def test_bottleneck_cardinality_mismatch():
    r = bottleneck(Barcode([(0.0, 0.0)]), Barcode([], dim=2))
    assert math.isinf(r.value)
    assert r.matching is None


def test_bottleneck_self_is_zero():
    b = Barcode([(0.0, 0.0), (2.0, 1.0)])
    r = bottleneck(b, b)
    assert r.value == 0.0
    assert r.matching == ((0, 0), (1, 1))


def test_bottleneck_on_staircase_slices():
    b = Barcode([(0.0, 1.0), (0.5, 1.0), (1.0, 0.5)])
    c = Barcode([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
    r = bottleneck(b, c)
    assert r.value == 0.5
    assert brute_force_matching(b, c, math.inf).value == 0.5


def test_bottleneck_empty_inputs():
    r = bottleneck(Barcode([], dim=2), Barcode([], dim=2))
    assert r.value == 0.0
    assert r.matching == ()


def test_bottleneck_value_is_realized_pair_distance():
    rng = SplitMix64(83)
    for trial in range(150):
        k = 1 + rng.below(6)
        b = random_barcode(rng, k)
        c = random_barcode(rng, k)
        r = bottleneck(b, c)
        dists = {dist_inf(i, j) for i in b.bars for j in c.bars}
        assert r.value in dists
        # the reported matching realizes the value
        assert r.matching is not None
        realized = max(
            (dist_inf(b.bars[i], c.bars[j]) for i, j in r.matching), default=0.0
        )
        assert realized == r.value


def test_bottleneck_matches_brute_force():
    rng = SplitMix64(89)
    for trial in range(200):
        k = rng.below(7)
        b = random_barcode(rng, k)
        c = random_barcode(rng, k)
        assert bottleneck(b, c).value == brute_force_matching(b, c, math.inf).value


def maximum_matching_size(adj):
    """Size of a maximum matching of the square bipartite graph with row
    neighbour lists ``adj``: plain augmenting paths (Kuhn), one row at a
    time, each search from scratch."""
    owner = [-1] * len(adj)

    def claim(i, seen):
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] < 0 or claim(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(claim(i, set()) for i in range(len(adj)))


def has_perfect_matching(allowed):
    """Whether the boolean K x K matrix ``allowed`` admits a perfect matching."""
    adj = [[j for j, ok in enumerate(row) if ok] for row in allowed]
    return maximum_matching_size(adj) == len(adj)


def random_graph_and_warm_start(rng, K):
    """Row neighbour lists in increasing column order, plus a matching on
    some of their edges.  One graph in four is complete; in the others one
    row in eight is empty, one complete, and the rest sparse random subsets
    (1-3 columns expected)."""
    complete = rng.below(4) == 0
    adj = []
    for _ in range(K):
        kind = 1 if complete else rng.below(8)
        degree = 1 + rng.below(3)
        adj.append(
            [] if kind == 0 else list(range(K)) if kind == 1
            else [j for j in range(K) if rng.below(K) < degree]
        )
    match_l, match_r = [-1] * K, [-1] * K
    for i in range(K):
        if adj[i] and rng.below(2):
            j = adj[i][rng.below(len(adj[i]))]
            if match_r[j] < 0:
                match_l[i], match_r[j] = j, i
    return adj, match_l, match_r


def test_augment_to_maximum_against_kuhn():
    rng = SplitMix64(149)
    for K in (0, 1, 2, 7, 30, 200):
        for _ in range(8 if K < 200 else 4):
            adj, match_l, match_r = random_graph_and_warm_start(rng, K)
            start = list(match_l)
            _augment_to_maximum(adj, match_l, match_r)
            assert sum(j >= 0 for j in match_l) == maximum_matching_size(adj)
            assert all(j in adj[i] for i, j in enumerate(match_l) if j >= 0)
            assert all(match_r[j] == i for i, j in enumerate(match_l) if j >= 0)
            assert all(match_l[i] == j for j, i in enumerate(match_r) if i >= 0)
            assert all(match_l[i] >= 0 for i, j in enumerate(start) if j >= 0)


def row_column_bound(b, c):
    """The search's lower bound: no bar is matched closer than its nearest."""
    D = [[dist_inf(u, v) for v in c.bars] for u in b.bars]
    return max(max(min(row) for row in D), max(min(col) for col in zip(*D)))


def gallop_to_the_top():
    """A pair whose only optimal value is the largest pairwise distance,
    far above the row/column bound: four bars near x = 0 must share three
    partners there, and every pair across is exactly 100 apart."""
    b = Barcode([(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (100.0, 0.0), (100.0, 1.0)])
    c = Barcode([(0.0, 0.0), (0.0, 2.0), (0.0, 5.0), (100.0, 1.0), (100.0, 3.0), (100.0, 4.0)])
    return b, c


def certificate_cases():
    rng = SplitMix64(137)
    yield Barcode([(0.0, 0.0)]), Barcode([(3.0, 1.0)])
    b = Barcode([(10.0 * i, 10.0 * (i % 3)) for i in range(12)])
    yield b, Barcode([(x + 1.0, y - 0.5) for x, y in b.bars])  # feasible at the bound
    yield gallop_to_the_top()
    for K in (9, 10, 17, 33, 64, 100, 150):
        pool = point_pool(rng, grid=12)
        yield random_barcode(rng, K, grid=40), random_barcode(rng, K, grid=40)
        yield tied_barcode(rng, pool, K), tied_barcode(rng, pool, K)
        pool = quarter_grid_pool(rng)
        yield quarter_grid_barcode(rng, pool, K), quarter_grid_barcode(rng, pool, K)


def test_bottleneck_optimality_certificate_beyond_brute_force():
    # the matching is a bijection realizing the value, and no perfect
    # matching uses only pairs strictly closer than the value
    for b, c in certificate_cases():
        r = bottleneck(b, c)
        K = len(b)
        assert sorted(i for i, _ in r.matching) == sorted(j for _, j in r.matching) == list(range(K))
        assert max(dist_inf(b.bars[i], c.bars[j]) for i, j in r.matching) == r.value
        assert not has_perfect_matching([[dist_inf(u, v) < r.value for v in c.bars] for u in b.bars])


def test_bottleneck_probes_warm_start_from_the_largest_failed_one(monkeypatch):
    probes = []
    feasible_at = msb.matching._feasible_at

    def spy(D, t, match_l, match_r):
        start = list(match_l)
        ok = feasible_at(D, t, match_l, match_r)
        probes.append((float(t), start, ok, list(match_l)))
        return ok

    monkeypatch.setattr(msb.matching, "_feasible_at", spy)
    for n, (b, c) in enumerate(certificate_cases()):
        probes.clear()
        r = bottleneck(b, c)
        # no threshold is probed twice; the matching is the smallest feasible probe's
        assert len({t for t, *_ in probes}) == len(probes)
        t, _, _, final = min(probe for probe in probes if probe[2])
        assert t == r.value and tuple(enumerate(final)) == r.matching
        failed = [-1] * len(b)
        for t, start, ok, end in probes:
            # each probe starts from the maximum matching of the largest
            # failed threshold, which holds only pairs allowed at t
            assert start == failed
            assert all(dist_inf(b.bars[i], c.bars[j]) <= t for i, j in enumerate(start) if j >= 0)
            assert (t >= r.value) == ok
            if not ok:
                failed = end
        if n < 2:  # K = 1, and a pair feasible at the row/column bound
            assert r.value == row_column_bound(b, c) and len(probes) == 1
        if n == 2:
            assert r.value == _cost_matrix(b, c, math.inf).max() > row_column_bound(b, c)
            assert len(probes) >= 3


def test_bottleneck_probes_do_not_depend_on_the_starting_radius(monkeypatch):
    # whether the pair listing starts at all pairs or near the bar spacing
    # and grows, the search probes the same thresholds from the same warm
    # starts to the same matchings
    events = []
    feasible_at, near_pairs = msb.matching._feasible_at, msb.matching._near_pairs

    def spy(pairs, t, match_l, match_r):
        start = list(match_l)
        ok = feasible_at(pairs, t, match_l, match_r)
        events.append((float(t), start, ok, list(match_l)))
        return ok

    def listing(A, B, U):
        events.append(U)
        return near_pairs(A, B, U)

    monkeypatch.setattr(msb.matching, "_feasible_at", spy)
    monkeypatch.setattr(msb.matching, "_near_pairs", listing)
    rng = SplitMix64(151)
    cases = list(certificate_cases())
    cases += [(random_barcode(rng, 300, grid=1000), random_barcode(rng, 300, grid=1000)) for _ in range(3)]
    regrown = 0
    for b, c in cases:
        runs = []
        for block in (len(b) ** 2, 1):  # all pairs in one block; one-row blocks
            monkeypatch.setattr(msb.matching, "_BLOCK", block)
            events.clear()
            r = bottleneck(b, c)
            runs.append((r, [e for e in events if isinstance(e, tuple)]))
        assert runs[0] == runs[1]
        # the gallop stepped past the known candidates: a listing after a probe
        probed = [isinstance(e, tuple) for e in events]
        regrown += not all(probed[probed.index(True):])
    assert regrown >= 10, regrown


# ---------------------------------------------------------------------------
# bottleneck_signed


def test_bottleneck_signed_square_pair():
    m, n = square_pair()
    r = bottleneck_signed(m, n)
    assert r.value == 1.0
    left = barcode_union(m.positive, n.negative)
    right = barcode_union(n.positive, m.negative)
    assert brute_force_matching(left, right, math.inf).value == 1.0


def test_bottleneck_signed_free_vs_staircase():
    s1 = betti(gen_free((0.0, 1.0))).signed
    s2 = betti(gen_staircase(2)).signed
    assert bottleneck_signed(s1, s2).value == 0.5


def test_bottleneck_signed_chain_decomposition_to_zero():
    for m in (1, 2, 3):
        hb = minimal_hilbert_decomposition(gen_chain(m, 1.0))
        assert bottleneck_signed(hb, EMPTY).value == float(m)


def test_bottleneck_signed_is_symmetric():
    rng = SplitMix64(97)
    for trial in range(100):
        s1 = random_signed(rng)
        s2 = random_signed(rng)
        assert bottleneck_signed(s1, s2).value == bottleneck_signed(s2, s1).value


def test_bottleneck_reduction_changes_value():
    # reducing before matching is wrong for the bottleneck: the chain
    # witnesses a strict gap once it has at least two links
    for m in (2, 3):
        p = gen_chain(m, 1.0)
        bb = betti(p).signed
        hb = minimal_hilbert_decomposition(p)
        d_bb = bottleneck_signed(bb, EMPTY).value
        d_hb = bottleneck_signed(hb, EMPTY).value
        assert d_bb == 1.0
        assert d_hb == float(m)
        assert d_bb < d_hb


# ---------------------------------------------------------------------------
# wasserstein


def test_wasserstein_single_pair_l1():
    r = wasserstein(Barcode([(0.0, 0.0)]), Barcode([(3.0, 3.0)]), 1)
    assert r.value == 6.0
    assert r.matching == ((0, 0),)


def test_wasserstein_self_is_zero():
    b = Barcode([(0.0, 0.0), (1.0, 5.0)])
    for p in (1, 2, math.inf):
        assert wasserstein(b, b, p).value == 0.0


def test_wasserstein_diagonal_swap_cost_two():
    r = wasserstein(
        Barcode([(0.0, 0.0), (1.0, 1.0)]), Barcode([(1.0, 0.0), (0.0, 1.0)]), 1
    )
    assert r.value == 2.0


def test_wasserstein_cardinality_mismatch():
    r = wasserstein(Barcode([(0.0, 0.0)]), Barcode([], dim=2), 1)
    assert math.isinf(r.value)
    assert r.matching is None


def test_wasserstein_rejects_bad_p():
    with pytest.raises(ValueError):
        wasserstein(Barcode([(0.0, 0.0)]), Barcode([(1.0, 1.0)]), 0.5)


def test_wasserstein_matching_cost_equals_value():
    rng = SplitMix64(101)
    for trial in range(100):
        k = rng.below(6)
        b = random_barcode(rng, k)
        c = random_barcode(rng, k)
        r = wasserstein(b, c, 1)
        total = sum(dist_one(b.bars[i], c.bars[j]) for i, j in r.matching)
        assert total == r.value


def test_wasserstein_matches_brute_force():
    rng = SplitMix64(103)
    for trial in range(150):
        k = rng.below(7)
        b = random_barcode(rng, k)
        c = random_barcode(rng, k)
        assert wasserstein(b, c, 1).value == brute_force_matching(b, c, 1).value
        fast2 = wasserstein(b, c, 2).value
        slow2 = brute_force_matching(b, c, 2).value
        assert abs(fast2 - slow2) <= 1e-12


def test_matchers_agree_with_brute_force_on_tied_bars():
    rng = SplitMix64(137)
    for trial in range(40):
        pool = point_pool(rng)
        k = rng.below(9)
        b, c = tied_barcode(rng, pool, k), tied_barcode(rng, pool, k)
        assert wasserstein(b, c, 1).value == brute_force_matching(b, c, 1).value
        assert bottleneck(b, c).value == brute_force_matching(b, c, math.inf).value
        fast, slow = wasserstein(b, c, 2.5).value, brute_force_matching(b, c, 2.5).value
        assert abs(fast - slow) <= 1e-12 * max(1.0, slow)


def oracle_costs(b, c, p):
    """The cost matrix as the brute-force oracle builds it, as lists."""
    return [[sum(abs(x - y) ** p for x, y in zip(u, w)) for w in c.bars] for u in b.bars]


def rows_of_columns(matching):
    row_of = [0] * len(matching)
    for i, j in matching:
        row_of[j] = i
    return row_of


def least_rotation_gain(b, c, p, matching):
    """Least cost change over cycles of columns rotated along ``matching``.

    The edge j -> j2 weighs C[i, j2] - C[i, j] for the row i matched to
    j, so a cycle of negative weight is a cheaper matching; Floyd-Warshall
    leaves the least cycle weight through each column on the diagonal.
    Costs are built as the brute-force oracle builds them.
    """
    C = np.array(oracle_costs(b, c, p))
    K = len(matching)
    row_of = rows_of_columns(matching)
    W = C[row_of] - C[row_of, range(K)][:, None]
    for k in range(K):
        W = np.minimum(W, W[:, k, None] + W[None, k, :])
    return W.diagonal().min()


def exact_rotation_potentials(b, c, p, matching, slack):
    """Potentials certifying, in exact arithmetic, that no cycle of columns
    rotated along ``matching`` gains more than ``slack``, or None.

    The graph is that of :func:`least_rotation_gain`, on the oracle's float
    costs taken as exact rationals, with ``slack / K`` added to every edge:
    a simple cycle has at most K edges, so one that gains more than
    ``slack`` is a negative cycle.  Bellman-Ford from zero settles within K
    rounds exactly when there is none, and then its distances d satisfy
    d[j2] <= d[j] + weight(j, j2) on every edge, which bounds every cycle.
    No rounding enters, so near-ties cannot compound as they do in floats.
    """
    C = [[Fraction(x) for x in row] for row in oracle_costs(b, c, p)]
    K = len(matching)
    row_of = rows_of_columns(matching)
    step = Fraction(slack) / K
    W = [[C[row_of[j]][j2] - C[row_of[j]][j] + step for j2 in range(K)] for j in range(K)]
    d = [Fraction(0)] * K
    for _ in range(K + 1):
        settled = True
        for j in range(K):
            for j2, w in enumerate(W[j]):
                if d[j] + w < d[j2]:
                    d[j2] = d[j] + w
                    settled = False
        if settled:
            assert all(d[j] + w >= d[j2] for j in range(K) for j2, w in enumerate(W[j]))
            return d
    return None


def test_wasserstein_matching_has_no_cheaper_rotation():
    # beyond the brute-force cap the returned matching is certified
    # optimal by the absence of a negative alternating cycle
    rng = SplitMix64(139)
    for K in range(9, 61):
        pool = point_pool(rng)
        for b, c in (
            (random_barcode(rng, K, 40), random_barcode(rng, K, 40)),
            (tied_barcode(rng, pool, K), tied_barcode(rng, pool, K)),
        ):
            r = wasserstein(b, c, 1)
            assert sorted(j for _, j in r.matching) == list(range(K))
            assert least_rotation_gain(b, c, 1, r.matching) == 0.0
            r = wasserstein(b, c, 2.5)
            assert least_rotation_gain(b, c, 2.5, r.matching) >= -1e-9 * r.value ** 2.5


def test_exact_certificate_on_rounding_size_near_ties():
    # bars (x, 0) against bars (0, y) cost x**2.5 + y**2.5, so every
    # bijection costs the same but for rounding.  At 60 bars a side the float
    # Floyd-Warshall of least_rotation_gain compounds rounding-size cycles
    # far past its tolerance; the exact certificate, with that tolerance as
    # slack, vouches for the solver's matching
    rng = SplitMix64(163)
    K = 60
    b = Barcode([(rng.below(1 << 20) / 7.0, 0.0) for _ in range(K)], dim=2)
    c = Barcode([(0.0, rng.below(1 << 20) / 7.0) for _ in range(K)], dim=2)
    r = wasserstein(b, c, 2.5)
    assert sorted(j for _, j in r.matching) == list(range(K))
    tol = 1e-9 * r.value ** 2.5
    assert least_rotation_gain(b, c, 2.5, r.matching) < -tol
    assert exact_rotation_potentials(b, c, 2.5, r.matching, tol) is not None
    # and it refuses a matching that a swap makes cheaper by more than the
    # slack: swapping back the rows of two columns gains what swapping cost
    b = random_barcode(rng, 12, 1000)
    c = random_barcode(rng, 12, 1000)
    r = wasserstein(b, c, 2.5)
    tol = 1e-9 * r.value ** 2.5
    assert exact_rotation_potentials(b, c, 2.5, r.matching, tol) is not None
    (i0, j0), (i1, j1) = r.matching[:2]
    swapped = ((i0, j1), (i1, j0)) + r.matching[2:]
    C = oracle_costs(b, c, 2.5)
    assert C[i0][j1] + C[i1][j0] - C[i0][j0] - C[i1][j1] > tol
    assert exact_rotation_potentials(b, c, 2.5, swapped, tol) is None


def test_wasserstein_with_overflowing_costs():
    # grades need only be finite, so a difference or a p-th power can
    # overflow to inf: a documented result, so numpy must not warn; the
    # last wasserstein pair has no finite matching once its first row is placed
    near = Barcode([(0.0, 0.0), (1e200, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = wasserstein(near, Barcode([(1.0, 0.0), (1e200, 1.0)]), 2.5)
        assert r.matching == ((0, 0), (1, 1)) and r.value == 2.0 ** (1.0 / 2.5)
        for far in ([(-1e200, 0.0), (2e200, 0.0)], [(-1e200, 0.0), (1.0, 0.0), (1e200, 2.0)]):
            b = Barcode([(0.0, 0.0), (3.0, 1.0), (1e200, 0.0)][: len(far)])
            r = wasserstein(b, Barcode(far), 2.5)
            assert math.isinf(r.value)
            assert sorted(j for _, j in r.matching) == list(range(len(far)))
        b = Barcode([(1e308, 0.0), (-1e308, 0.0)])
        assert math.isinf(_cost_matrix(b, b, math.inf).max())
        r = bottleneck(b, Barcode([(-1e308, 0.0), (1e308, 0.0)]))
        assert r.value == 0.0 and r.matching == ((0, 0), (1, 1))
        r = bottleneck(Barcode([(1e308, 0.0)]), Barcode([(-1e308, 0.0)]))
        assert math.isinf(r.value) and r.matching == ((0, 0),)
        # no finite perfect matching: a column far from every row, a row far
        # from every column, then a finite cost in every row and column
        # where rows 0 and 1 have only column 0
        for left, right in (
            ([(0.0, 0.0), (1.0, 0.0)], [(2.0, 0.0), (1e200, 0.0)]),
            ([(0.0, 0.0), (1e200, 0.0)], [(2.0, 0.0), (3.0, 0.0)]),
            ([(0.0, 0.0), (1.0, 0.0), (1e200, 0.0)], [(0.5, 0.0), (1e200, 1.0), (1e200, 2.0)]),
        ):
            r = wasserstein(Barcode(left), Barcode(right), 2.5)
            assert math.isinf(r.value)
            assert sorted(j for _, j in r.matching) == list(range(len(left)))


def row_by_row_assignment(C):
    """The min-cost solver without an initialization, kept as an oracle:
    every row joins from zero potentials by its own Dijkstra search."""
    n = C.shape[0]
    u, v = np.zeros(n), np.zeros(n)
    row_of_col, col_of_row = np.full(n, -1), np.full(n, -1)
    r, better, pred = np.empty(n), np.empty(n, dtype=bool), np.empty(n, dtype=np.int64)
    for row in range(n):
        d = np.full(n, np.inf)
        vw = v.copy()
        i, mu, done, dist = row, 0.0, [], []
        while True:
            np.subtract(C[i], vw, out=r)
            r += mu - u[i]
            np.less(r, d, out=better)
            np.copyto(d, r, where=better)
            np.copyto(pred, i, where=better)
            j = int(d.argmin())
            mu, d[j], vw[j] = float(d[j]), np.inf, -np.inf
            if mu == np.inf:
                col_of_row[col_of_row < 0] = np.flatnonzero(row_of_col < 0)
                return col_of_row.tolist()
            i = int(row_of_col[j])
            if i < 0:
                break
            done.append(j)
            dist.append(mu)
        shift = mu - np.array(dist)
        u[row] += mu
        v[done] -= shift
        u[row_of_col[done]] += shift
        while j >= 0:
            i = int(pred[j])
            row_of_col[j] = i
            j, col_of_row[i] = col_of_row[i], j
    return col_of_row.tolist()


def eager_assignment(C):
    """The min-cost solver with eager predecessors, kept as an oracle: every
    Dijkstra step records the row that lowered each distance, so the
    predecessors need no recovery after the search."""
    n = C.shape[0]
    row_of_col, col_of_row = np.full(n, -1), np.full(n, -1)
    v = C.min(axis=0)
    v[v == np.inf] = 0.0
    for j, i in enumerate(C.argmin(axis=0).tolist()):
        if col_of_row[i] < 0 and C[i, j] < np.inf:
            col_of_row[i], row_of_col[j] = j, i
            r = C[i] - v
            r[j] = np.inf
            gap = r.min()
            v[j] -= gap if gap < np.inf else 0.0
    bidders = C.min(axis=1) < np.inf  # a row with no finite cost is left to the searches
    for _ in range(2):
        todo, bids = np.flatnonzero(bidders & (col_of_row < 0))[::-1].tolist(), 2 * n
        while todo and bids:
            i, bids = todo.pop(), bids - 1
            r = C[i] - v
            j = int(r.argmin())
            least, r[j] = r[j], np.inf
            j2, i0 = int(r.argmin()), row_of_col[j]
            gap = r[j2] - least
            if 0 < gap < np.inf:
                v[j] -= gap
            elif gap == 0 and i0 >= 0 and row_of_col[j2] < 0:
                j, i0 = j2, -1
            col_of_row[i], row_of_col[j] = j, i
            if i0 >= 0:
                col_of_row[i0] = -1
                if 0 < gap < np.inf:
                    todo.append(i0)
    u = np.where(col_of_row >= 0, C[range(n), col_of_row] - v[col_of_row], 0.0)
    r, better, pred = np.empty(n), np.empty(n, dtype=bool), np.empty(n, dtype=np.int64)
    for row in np.flatnonzero(col_of_row < 0).tolist():
        d = np.full(n, np.inf)
        vw = v.copy()  # -inf on final columns, so their d never moves
        i, mu, done, dist = row, 0.0, [], []
        while True:
            np.subtract(C[i], vw, out=r)
            r += mu - u[i]
            np.less(r, d, out=better)
            np.copyto(d, r, where=better)
            np.copyto(pred, i, where=better)
            j = int(d.argmin())
            mu, d[j], vw[j] = float(d[j]), np.inf, -np.inf
            if mu == np.inf:  # no finite augmenting path: every matching costs inf
                col_of_row[col_of_row < 0] = np.flatnonzero(row_of_col < 0)
                return col_of_row.tolist()
            i = int(row_of_col[j])
            if i < 0:
                break
            done.append(j)
            dist.append(mu)
        shift = mu - np.array(dist)
        u[row] += mu
        v[done] -= shift
        u[row_of_col[done]] += shift
        while j >= 0:  # augment back along the predecessors to row
            i = int(pred[j])
            row_of_col[j] = i
            j, col_of_row[i] = col_of_row[i], j
    return col_of_row.tolist()


def test_min_cost_assignment_with_infinite_costs_matches_the_eager_solver():
    # 1-D bars at p = 2.5, a third of them at 1e200 or 2e200, so costs
    # overflow to inf; the second side moves only the bars near 0, so a
    # finite matching exists and the searches cross inf costs.  Then integer
    # matrices with 30% inf entries.  No inf - inf may warn
    rng = SplitMix64(163)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(200):
            K = 1 + rng.below(40)
            xs = [float(rng.below(10)) if rng.below(3) else (1 + rng.below(2)) * 1e200 for _ in range(K)]
            ys = [x if x > 10 else x + rng.below(3) for x in xs]
            b, c = Barcode([(x,) for x in xs]), Barcode([(y,) for y in ys])
            C = _cost_matrix(b, c, 2.5)
            assert _min_cost_assignment(C) == eager_assignment(C)
            C = np.array([[float(rng.below(10)) for _ in range(K)] for _ in range(K)])
            C[np.array([[rng.below(10) < 3 for _ in range(K)] for _ in range(K)])] = np.inf
            assert _min_cost_assignment(C) == eager_assignment(C)


def test_min_cost_assignment_takes_the_first_step_that_reached_a_column():
    # the initialization matches rows 0 and 1 to columns 0 and 1 and leaves
    # row 2 free; its search finalizes columns 0 and 1, reaching column 2 at
    # distance 0 in each of its three steps (from rows 2, 0, 1).  The
    # predecessor is the first of them, row 2, so no row moves; the last,
    # row 1, would rotate all three
    C = np.zeros((3, 3))
    assert _min_cost_assignment(C) == eager_assignment(C) == [0, 1, 2]


def test_min_cost_assignment_against_the_row_by_row_solver():
    # integer and quarter-grid coordinates make every p = 1 cost and every
    # sum exact, so the values agree bit for bit whichever optimal matching
    # each solver picks; at p = 2.5 no cheaper rotation may exist.  The
    # predecessors recovered after each search are the eager ones, so at
    # both p the matching is the eager solver's, ties and near-ties included
    rng = SplitMix64(149)
    for K in [*range(1, 65), 200, 400]:
        grid, points = quarter_grid_pool(rng), point_pool(rng, 1000)
        for b, c in (
            (random_barcode(rng, K, 1000), random_barcode(rng, K, 1000)),
            (quarter_grid_barcode(rng, grid, K), quarter_grid_barcode(rng, grid, K)),
            (tied_barcode(rng, points, K), tied_barcode(rng, points, K)),
        ):
            r = wasserstein(b, c, 1)
            assert sorted(j for _, j in r.matching) == list(range(K))
            C = _cost_matrix(b, c, 1.0)
            assert r.value == sum(C[range(K), row_by_row_assignment(C)].tolist())
            assert _min_cost_assignment(C) == eager_assignment(C)
            r = wasserstein(b, c, 2.5)
            assert sorted(j for _, j in r.matching) == list(range(K))
            assert least_rotation_gain(b, c, 2.5, r.matching) >= -1e-9 * r.value ** 2.5
            C = _cost_matrix(b, c, 2.5)
            assert _min_cost_assignment(C) == eager_assignment(C)


def test_min_cost_assignment_with_infinite_costs_against_permutations():
    rng = SplitMix64(151)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(300):
            K = 1 + rng.below(6)
            C = np.array([[float(rng.below(10)) for _ in range(K)] for _ in range(K)])
            C[np.array([[rng.below(3) == 0 for _ in range(K)] for _ in range(K)])] = np.inf
            best = min(sum(C[i, j] for i, j in enumerate(perm)) for perm in itertools.permutations(range(K)))
            got = _min_cost_assignment(C)
            assert sorted(got) == list(range(K))
            assert sum(C[range(K), got].tolist()) == best


PRICE_WAR = """
import json
import numpy as np
from msb.matching import _min_cost_assignment

d = 2.0 ** -46
i, j = np.indices((200, 200))
matrices = [np.array([[1000, 1 + d, 1e6], [1000, 1 + d, 1e6], [1e6, 1, 1]]), j * 1e-12 + i * 1e-13]
print(json.dumps([_min_cost_assignment(C) for C in matrices]))
"""


def test_min_cost_assignment_ends_on_float_near_ties():
    # the bids of augmenting row reduction are bounded: in the 3 x 3 block,
    # v[0] = 1000 absorbs every 2**-46 price cut, so without the bound rows 0
    # and 1 would take column 0 from each other forever; in the 200 x 200
    # one every bijection costs the same but for rounding
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(msb.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", PRICE_WAR], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    small, large = json.loads(proc.stdout)
    assert small in ([0, 1, 2], [1, 0, 2])
    i, j = np.indices((200, 200))
    C = j * 1e-12 + i * 1e-13
    assert sorted(large) == list(range(200))
    assert math.isclose(C[range(200), large].sum(), C.trace(), rel_tol=1e-12)


def test_wasserstein_infinite_p_is_bottleneck():
    rng = SplitMix64(107)
    for trial in range(100):
        k = rng.below(7)
        b = random_barcode(rng, k)
        c = random_barcode(rng, k)
        assert wasserstein(b, c, math.inf).value == bottleneck(b, c).value


# ---------------------------------------------------------------------------
# wasserstein_signed


def test_wasserstein_signed_square_pair():
    m, n = square_pair()
    r = wasserstein_signed(m, n, 1)
    assert r.value == 2.0
    left = barcode_union(m.positive, n.negative)
    right = barcode_union(n.positive, m.negative)
    assert brute_force_matching(left, right, 1).value == 2.0


def test_wasserstein_signed_chain_both_forms():
    for m in (1, 2, 3):
        p = gen_chain(m, 1.0)
        bb = betti(p).signed
        hb = minimal_hilbert_decomposition(p)
        assert wasserstein_signed(bb, EMPTY, 1).value == 2.0 * m
        assert wasserstein_signed(hb, EMPTY, 1).value == 2.0 * m


def test_wasserstein_signed_zero_on_reduce_equivalent():
    rng = SplitMix64(109)
    for trial in range(50):
        s = random_signed(rng)
        pad = random_barcode(rng, rng.below(3))
        padded = SignedBarcode(
            barcode_union(s.positive, pad), barcode_union(s.negative, pad)
        )
        assert wasserstein_signed(s, padded, 1).value == 0.0


def test_wasserstein_signed_triangle_inequality():
    rng = SplitMix64(113)
    checked = 0
    for trial in range(200):
        # equal euler characteristic keeps all three distances finite
        n_pos = rng.below(4)
        n_neg = rng.below(4)
        triple = [
            SignedBarcode(random_barcode(rng, n_pos, 6), random_barcode(rng, n_neg, 6))
            for _ in range(3)
        ]
        d02 = wasserstein_signed(triple[0], triple[2], 1).value
        d01 = wasserstein_signed(triple[0], triple[1], 1).value
        d12 = wasserstein_signed(triple[1], triple[2], 1).value
        assert d02 <= d01 + d12 + 1e-9
        checked += 1
    assert checked == 200


def test_wasserstein_signed_reduction_invariance():
    rng = SplitMix64(127)
    for trial in range(100):
        s1 = random_signed(rng)
        s2 = random_signed(rng)
        direct = wasserstein_signed(s1, s2, 1).value
        reduced = wasserstein_signed(reduce_signed(s1), reduce_signed(s2), 1).value
        if math.isinf(direct):
            assert math.isinf(reduced)
        else:
            assert direct == reduced


# ---------------------------------------------------------------------------
# brute_force_matching


def test_brute_force_square_pair_values():
    m, n = square_pair()
    left = barcode_union(m.positive, n.negative)
    right = barcode_union(n.positive, m.negative)
    assert brute_force_matching(left, right, math.inf).value == 1.0
    assert brute_force_matching(left, right, 1).value == 2.0


def test_brute_force_empty():
    r = brute_force_matching(Barcode([], dim=2), Barcode([], dim=2), 1)
    assert r.value == 0.0
    assert r.matching == ()


def test_brute_force_size_cap():
    big = Barcode([(float(i), 0.0) for i in range(9)])
    with pytest.raises(ValueError):
        brute_force_matching(big, big, 1)


# ---------------------------------------------------------------------------
# presentation_pair_cost


def test_pair_cost_identical_is_zero():
    p = gen_staircase(3)
    assert presentation_pair_cost(p, p, 1) == 0.0
    assert presentation_pair_cost(p, p, math.inf) == 0.0


def test_pair_cost_single_generator():
    assert presentation_pair_cost(gen_free((0.0, 0.0)), gen_free((1.0, 0.0)), 1) == 1.0


def test_pair_cost_shifted_staircase():
    a2 = gen_staircase(2)
    shifted = Presentation.from_relations(
        [(g[0] + 0.1, g[1] + 0.1) for g in a2.gens],
        [
            ((c[0] + 0.1, c[1] + 0.1), {i: v for (i, j), v in a2.rels.entries.items() if j == k})
            for k, c in enumerate(a2.rels.col_grades)
        ],
    )
    # five labels moved by (0.1, 0.1) each; exact float sum recorded
    cost = presentation_pair_cost(a2, shifted, 1)
    assert cost == 1.0000000000000002
    assert abs(cost - 1.0) < 1e-12
    assert presentation_pair_cost(a2, shifted, math.inf) == 0.10000000000000009


def test_pair_cost_requires_same_matrix():
    p1 = gen_chain(2, 1.0)
    p2 = gen_chain(3, 1.0)
    with pytest.raises(ValueError):
        presentation_pair_cost(p1, p2, 1)
    # same shape, different coefficients
    a = Presentation.from_relations([(0.0, 0.0)], [((1.0, 1.0), {0: 1})], field=3)
    b = Presentation.from_relations([(0.0, 0.0)], [((1.0, 1.0), {0: 2})], field=3)
    with pytest.raises(ValueError):
        presentation_pair_cost(a, b, 1)


def test_pair_cost_refuses_other_orders_and_fields():
    p = gen_staircase(2)
    with pytest.raises(ValueError, match=r"^presentation pair cost supports p = 1 or p = inf$"):
        presentation_pair_cost(p, p, 2)
    with pytest.raises(ValueError, match=r"^presentations over different fields$"):
        presentation_pair_cost(gen_free((0.0, 0.0)), gen_free((0.0, 0.0), field=3), 1)


# ---------------------------------------------------------------------------
# MatchingResult serialization


def test_result_to_text_with_matching():
    r = wasserstein(
        Barcode([(0.0, 0.0), (1.0, 1.0)]), Barcode([(1.0, 0.0), (0.0, 1.0)]), 1
    )
    assert r.to_text() == "value 2\nmatch 2\n0 0\n1 1\n"


def test_result_to_text_infinite():
    r = bottleneck(Barcode([(0.0, 0.0)]), Barcode([], dim=2))
    assert r.to_text() == "value inf\n"


def test_result_value_matches_metric_in_force():
    r = MatchingResult(0.5, ((0, 0),))
    assert r.value == 0.5 and r.matching == ((0, 0),)


def pin_corpus(seed=2024, cases=30):
    """Seeded signed-barcode pairs of 1-40 bars a part on a quarter grid:
    bars repeat within and across the two sides, and in turn the pair has
    equal parts, equal cross-sign unions only, or unrelated sizes."""
    rng = SplitMix64(seed)
    for k in range(cases):
        pool = quarter_grid_pool(rng)

        def bars(size):
            return quarter_grid_barcode(rng, pool, size)

        bp, bn, cp, cn = (1 + rng.below(40) for _ in range(4))
        if k % 3 == 0:
            cp, cn = bp, bn
        elif k % 3 == 1:
            cn = max(1, cp + bn - bp)
        yield SignedBarcode(bars(bp), bars(bn)), SignedBarcode(bars(cp), bars(cn))


# sha256 of the concatenated MatchingResult.to_text() over pin_corpus(); at
# p = 2.5 float rounding picks among tied optimal matchings, so that digest
# also pins the float bits of numpy's ``**`` and the solver's arithmetic
MATCHING_DIGESTS = {
    "bottleneck": "a7eb1f7f48a4e7b400b3da2ef5feb6aa61ee437e9fdb705ed478114d68efaa59",
    "bottleneck_signed": "62859947c621798e01964934851277910fec51f59fdcc271e9ae00c6f6ce72cf",
    "wasserstein_signed_1": "6d20840be3985bb5133b3dd03602c945c7d6c5324300aab0db7562775acf9f5d",
    "wasserstein_signed_2.5": "f1c0e1ddea8792024ecc39c788035f6a19cd0b5efaf30f74cd13cf3d670eef6b",
    "wasserstein_signed_inf": "62859947c621798e01964934851277910fec51f59fdcc271e9ae00c6f6ce72cf",
}


@pytest.mark.parametrize(
    "name, compute",
    [
        ("bottleneck", lambda s1, s2: bottleneck(s1.positive, s2.positive)),
        ("bottleneck_signed", bottleneck_signed),
        ("wasserstein_signed_1", lambda s1, s2: wasserstein_signed(s1, s2, 1)),
        ("wasserstein_signed_2.5", lambda s1, s2: wasserstein_signed(s1, s2, 2.5)),
        ("wasserstein_signed_inf", lambda s1, s2: wasserstein_signed(s1, s2, math.inf)),
    ],
)
def test_matching_results_pinned(name, compute):
    digest = hashlib.sha256()
    for s1, s2 in pin_corpus():
        digest.update(compute(s1, s2).to_text().encode())
    assert digest.hexdigest() == MATCHING_DIGESTS[name]
