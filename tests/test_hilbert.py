"""Hilbert-function evaluation, minimal decompositions, equality, distance."""

import math

import pytest

from msb import (
    Barcode,
    DimensionMismatch,
    SignedBarcode,
    SplitMix64,
    barcode_eq,
    betti,
    gen_chain,
    gen_free,
    gen_hook,
    gen_one_param_interval,
    gen_random,
    gen_staircase,
    hilbert_distance,
    hilbert_equal,
    hilbert_eval,
    minimal_hilbert_decomposition,
    pointwise_dim,
    reduce_signed,
)
from msb.algebra import direct_sum


def random_signed(rng, grid=4):
    def bars():
        return Barcode(
            [(float(rng.below(grid)), float(rng.below(grid))) for _ in range(rng.below(5))],
            dim=2,
        )

    return SignedBarcode(bars(), bars())


def test_eval_hook():
    s = betti(gen_hook((0.0, 0.0), (1.0, 1.0))).signed
    assert hilbert_eval(s, (2.0, 0.5)) == 1
    assert hilbert_eval(s, (1.0, 1.0)) == 0


def test_eval_empty_is_zero():
    s = SignedBarcode(Barcode([], dim=2), Barcode([], dim=2))
    for x in ((0.0, 0.0), (-5.0, 3.0), (100.0, 100.0)):
        assert hilbert_eval(s, x) == 0


def test_eval_staircase_matches_rank_oracle():
    p = gen_staircase(2)
    s = betti(p).signed
    assert hilbert_eval(s, (0.6, 0.6)) == 1
    assert hilbert_eval(s, (0.6, 0.6)) == pointwise_dim(p, (0.6, 0.6))


def test_eval_can_go_negative():
    s = SignedBarcode(Barcode([], dim=2), Barcode([(0.0, 0.0)]))
    assert hilbert_eval(s, (1.0, 1.0)) == -1


def test_eval_dimension_mismatch():
    s = SignedBarcode(Barcode([(0.0, 0.0)]), Barcode([], dim=2))
    with pytest.raises(DimensionMismatch):
        hilbert_eval(s, (1.0,))
    # with no bar to compare against, the query is still checked
    empty = SignedBarcode(Barcode([], dim=2), Barcode([], dim=2))
    with pytest.raises(DimensionMismatch):
        hilbert_eval(empty, (1.0,))


def test_decomposition_of_chain():
    for m, eps in ((1, 1.0), (3, 1.0), (5, 0.5)):
        hb = minimal_hilbert_decomposition(gen_chain(m, eps))
        assert hb.positive.bars == ((0.0, 0.0),)
        assert hb.negative.bars == ((m * eps, m * eps),)


def test_decomposition_of_free():
    hb = minimal_hilbert_decomposition(gen_free((1.0, 2.0)))
    assert hb.positive.bars == ((1.0, 2.0),)
    assert hb.negative.bars == ()


def test_decomposition_of_staircase_equals_betti():
    for k in (2, 3, 4):
        p = gen_staircase(k)
        s = betti(p).signed
        hb = minimal_hilbert_decomposition(p)
        assert barcode_eq(hb.positive, s.positive)
        assert barcode_eq(hb.negative, s.negative)


def test_decomposition_parts_disjoint():
    rng = SplitMix64(61)
    for trial in range(100):
        p = gen_random(11000 + trial, 1 + rng.below(8), rng.below(9), 6)
        hb = minimal_hilbert_decomposition(p)
        assert not set(hb.positive.bars) & set(hb.negative.bars)


def test_equal_on_interval_sums():
    m = direct_sum(gen_one_param_interval(0, 2), gen_one_param_interval(1, 3))
    n = direct_sum(gen_one_param_interval(0, 3), gen_one_param_interval(1, 2))
    assert hilbert_equal(betti(m).signed, betti(n).signed)


def test_equal_after_cancellation():
    a = Barcode([(2.0, 2.0)])
    assert hilbert_equal(
        SignedBarcode(a, a), SignedBarcode(Barcode([], dim=2), Barcode([], dim=2))
    )


def test_unequal_free_modules():
    s1 = betti(gen_free((0.0, 1.0))).signed
    s2 = betti(gen_free((1.0, 0.0))).signed
    assert not hilbert_equal(s1, s2)


def test_distance_chain_to_zero():
    hb = minimal_hilbert_decomposition(gen_chain(3, 1.0))
    empty = SignedBarcode(Barcode([], dim=2), Barcode([], dim=2))
    assert hilbert_distance(hb, empty) == 6.0


def test_distance_to_self_is_zero():
    rng = SplitMix64(67)
    for trial in range(50):
        s = random_signed(rng)
        assert hilbert_distance(s, s) == 0.0


def test_distance_between_free_modules():
    s1 = betti(gen_free((0.0, 0.0))).signed
    s2 = betti(gen_free((1.0, 0.0))).signed
    assert hilbert_distance(s1, s2) == 1.0


def test_distance_zero_iff_equal():
    rng = SplitMix64(71)
    seen_equal = 0
    for trial in range(150):
        s1 = random_signed(rng, grid=2)
        s2 = random_signed(rng, grid=2)
        d = hilbert_distance(s1, s2)
        if hilbert_equal(s1, s2):
            assert d == 0.0
            seen_equal += 1
        else:
            assert d > 0.0 or math.isinf(d)
    # pad one side with shared bars to force equal pairs
    for trial in range(50):
        s1 = random_signed(rng, grid=2)
        pad = Barcode([(1.0, 1.0)] * rng.below(3), dim=2)
        s2 = SignedBarcode(
            Barcode(s1.positive.bars + pad.bars, dim=2),
            Barcode(s1.negative.bars + pad.bars, dim=2),
        )
        assert hilbert_equal(s1, s2)
        assert hilbert_distance(s1, s2) == 0.0
        seen_equal += 1
    assert seen_equal >= 50


def test_eval_agrees_with_reduction_everywhere():
    rng = SplitMix64(73)
    for trial in range(100):
        s = random_signed(rng)
        r = reduce_signed(s)
        for _ in range(25):
            x = (float(rng.below(5)), float(rng.below(5)))
            assert hilbert_eval(s, x) == hilbert_eval(r, x)
