"""Grades, barcodes, signed barcodes, and cancellation."""

import math
import re

import pytest

from msb import (
    Barcode,
    Bifiltration,
    Cell,
    DimensionMismatch,
    GradedMatrix,
    Presentation,
    SignedBarcode,
    SplitMix64,
    as_grade,
    barcode_eq,
    barcode_union,
    betti,
    bottleneck,
    bottleneck_signed,
    brute_force_matching,
    dist_inf,
    dist_one,
    eps_bijection_exists,
    gen_one_param_interval,
    gen_staircase,
    hilbert_eval,
    join,
    leq,
    pointwise_dim,
    presentation_pair_cost,
    reduce_signed,
    wasserstein,
    wasserstein_signed,
)
from msb.algebra import direct_sum


def random_barcode(rng, max_bars=6, grid=8, dim=2):
    k = rng.below(max_bars + 1)
    return Barcode(
        [tuple(float(rng.below(grid)) for _ in range(dim)) for _ in range(k)],
        dim=dim,
    )


def test_as_grade_validates():
    assert as_grade([0, 1.5]) == (0.0, 1.5)
    with pytest.raises(ValueError):
        as_grade([float("nan")])
    with pytest.raises(ValueError):
        as_grade([float("inf"), 0.0])
    with pytest.raises(ValueError):
        as_grade([])


def test_leq_and_join():
    assert leq((0.0, 0.0), (1.0, 1.0))
    assert not leq((1.0, 0.0), (0.0, 1.0))
    assert not leq((0.0, 1.0), (1.0, 0.0))
    assert join((1.0, 0.0), (0.0, 2.0)) == (1.0, 2.0)
    with pytest.raises(DimensionMismatch):
        leq((0.0,), (0.0, 0.0))
    assert join((1.0, 0.0)) == (1.0, 0.0)
    with pytest.raises(ValueError, match="join needs at least one grade"):
        join()


def test_distances_between_grades():
    assert dist_inf((0.0, 0.0), (1.0, 2.0)) == 2.0
    assert dist_one((0.0, 0.0), (1.0, 2.0)) == 3.0
    assert dist_inf((0.5,), (0.25,)) == 0.25


def test_partial_order_properties():
    # reflexive, antisymmetric, transitive on random triples
    rng = SplitMix64(7)
    for _ in range(300):
        a = (float(rng.below(4)), float(rng.below(4)))
        b = (float(rng.below(4)), float(rng.below(4)))
        c = (float(rng.below(4)), float(rng.below(4)))
        assert leq(a, a)
        if leq(a, b) and leq(b, a):
            assert a == b
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def test_barcode_is_sorted_and_immutable():
    b = Barcode([(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
    assert b.bars == ((0.0, 1.0), (1.0, 0.0), (1.0, 0.0))
    assert len(b) == 3
    assert b[0] == (0.0, 1.0)
    with pytest.raises(AttributeError):
        b.bars = ()


def test_barcode_dimension_consistency():
    with pytest.raises(DimensionMismatch):
        Barcode([(0.0, 0.0), (1.0,)])
    assert Barcode([]).dim is None
    assert Barcode([], dim=2).dim == 2


def test_union_multiplicity_add():
    a = Barcode([(0.0, 0.0)])
    assert barcode_union(a, a).bars == ((0.0, 0.0), (0.0, 0.0))


def test_union_identity():
    a = Barcode([(0.0, 0.0)])
    assert barcode_union(a, Barcode([])).bars == ((0.0, 0.0),)


def test_union_distinct_bars():
    got = barcode_union(Barcode([(1.0, 0.0)]), Barcode([(0.0, 1.0)]))
    assert got.bars == ((0.0, 1.0), (1.0, 0.0))


def test_union_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        barcode_union(Barcode([(0.0,)]), Barcode([(0.0, 0.0)]))


def test_union_commutative_associative():
    rng = SplitMix64(11)
    for _ in range(200):
        a = random_barcode(rng)
        b = random_barcode(rng)
        c = random_barcode(rng)
        assert barcode_eq(barcode_union(a, b), barcode_union(b, a))
        assert barcode_eq(
            barcode_union(barcode_union(a, b), c),
            barcode_union(a, barcode_union(b, c)),
        )
        assert len(barcode_union(a, b)) == len(a) + len(b)


def test_eq_order_insensitive():
    assert barcode_eq(
        Barcode([(0.0, 0.0), (1.0, 1.0)]), Barcode([(1.0, 1.0), (0.0, 0.0)])
    )


def test_eq_counts_multiplicity():
    assert not barcode_eq(
        Barcode([(0.0, 0.0)]), Barcode([(0.0, 0.0), (0.0, 0.0)])
    )


def test_eq_on_interval_sum_betti():
    # two different sums of one-parameter intervals, same positive part
    m = direct_sum(gen_one_param_interval(0, 2), gen_one_param_interval(1, 3))
    n = direct_sum(gen_one_param_interval(0, 3), gen_one_param_interval(1, 2))
    assert barcode_eq(betti(m).signed.positive, betti(n).signed.positive)
    assert betti(m).signed.positive.bars == ((0.0,), (1.0,))


def test_signed_barcode_shape():
    s = SignedBarcode(Barcode([(0.0, 0.0)]), Barcode([(1.0, 1.0)]))
    assert s.dim == 2
    with pytest.raises(DimensionMismatch):
        SignedBarcode(Barcode([(0.0,)]), Barcode([(1.0, 1.0)]))
    # shared bars are allowed
    shared = SignedBarcode(Barcode([(0.0, 0.0)]), Barcode([(0.0, 0.0)]))
    assert len(shared.positive) == len(shared.negative) == 1


def test_reduce_full_cancellation():
    a = Barcode([(0.5, 0.5)])
    got = reduce_signed(SignedBarcode(a, a))
    assert got.positive.bars == () and got.negative.bars == ()


def test_reduce_cancels_one_copy():
    s = SignedBarcode(
        Barcode([(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)]), Barcode([(1.0, 1.0)])
    )
    got = reduce_signed(s)
    assert got.positive.bars == ((0.0, 0.0), (1.0, 1.0))
    assert got.negative.bars == ()


def test_reduce_leaves_disjoint_staircase_alone():
    for k in (2, 3):
        s = betti(gen_staircase(k)).signed
        got = reduce_signed(s)
        assert barcode_eq(got.positive, s.positive)
        assert barcode_eq(got.negative, s.negative)


def test_reduce_idempotent_and_disjoint():
    rng = SplitMix64(13)
    for _ in range(200):
        s = SignedBarcode(random_barcode(rng, grid=3), random_barcode(rng, grid=3))
        r = reduce_signed(s)
        r2 = reduce_signed(r)
        assert barcode_eq(r.positive, r2.positive)
        assert barcode_eq(r.negative, r2.negative)
        # disjoint parts after reduction
        assert not set(r.positive.bars) & set(r.negative.bars)
        # cancellation removed equal counts from both sides
        assert len(s.positive) - len(r.positive) == len(s.negative) - len(r.negative)


def test_reduce_preserves_hilbert_function():
    rng = SplitMix64(17)
    for _ in range(200):
        s = SignedBarcode(random_barcode(rng, grid=3), random_barcode(rng, grid=3))
        r = reduce_signed(s)
        for _ in range(20):
            x = (float(rng.below(4)), float(rng.below(4)))
            assert hilbert_eval(s, x) == hilbert_eval(r, x)


def test_barcode_counts():
    b = Barcode([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    assert b.counts() == {(0.0, 0.0): 2, (1.0, 0.0): 1}


def test_infinite_coordinates_rejected_everywhere():
    with pytest.raises(ValueError):
        Barcode([(math.inf, 0.0)])


# ---------------------------------------------------------------------------
# one rule per value type: grade dimensions agree, and values are immutable

_B1 = Barcode([(0.0,)])
_B2 = Barcode([(0.0, 0.0)])

# (entry point, a call whose grades disagree in dimension)
DIMENSION_MISMATCHES = [
    ("GradedMatrix rows and columns", lambda: GradedMatrix([(0.0,)], [(1.0, 1.0)], {})),
    ("GradedMatrix explicit dim", lambda: GradedMatrix([(0.0, 0.0)], [], {}, dim=1)),
    ("Barcode bars", lambda: Barcode([(0.0, 0.0), (1.0,)])),
    ("Barcode explicit dim", lambda: Barcode([(0.0,)], dim=2)),
    ("SignedBarcode parts", lambda: SignedBarcode(_B1, _B2)),
    ("barcode_union", lambda: barcode_union(_B1, _B2)),
    ("direct_sum", lambda: direct_sum(Presentation([(0.0,)]), Presentation([(0.0, 0.0)]))),
    ("pointwise_dim", lambda: pointwise_dim(Presentation([(0.0, 0.0)]), (1.0,))),
    ("hilbert_eval", lambda: hilbert_eval(SignedBarcode(_B2), (1.0,))),
    ("bottleneck", lambda: bottleneck(_B1, _B2)),
    ("wasserstein p=1", lambda: wasserstein(_B1, _B2, 1)),
    ("wasserstein p=2.5", lambda: wasserstein(_B1, _B2, 2.5)),
    ("wasserstein p=inf", lambda: wasserstein(_B1, _B2, math.inf)),
    ("eps_bijection_exists", lambda: eps_bijection_exists(_B1, _B2, 1.0)),
    ("brute_force_matching", lambda: brute_force_matching(_B1, _B2)),
    ("bottleneck_signed", lambda: bottleneck_signed(SignedBarcode(_B1), SignedBarcode(_B2))),
    ("wasserstein_signed", lambda: wasserstein_signed(SignedBarcode(_B1), SignedBarcode(_B2))),
    ("presentation_pair_cost",
     lambda: presentation_pair_cost(Presentation((), dim=1), Presentation((), dim=2))),
    ("Bifiltration cells", lambda: Bifiltration([Cell(0, (0.0, 0.0), ()), Cell(0, (0.0,), ())])),
]

# (entry point, a call given a dimension that is not a positive integer)
BAD_DIMENSIONS = [
    ("Barcode dim 0", lambda: Barcode([], dim=0)),
    ("Barcode dim -1", lambda: Barcode([], dim=-1)),
    ("Barcode dim 2.5", lambda: Barcode([], dim=2.5)),
    ("Barcode dim 2.0 with bars", lambda: Barcode([(0.0, 0.0)], dim=2.0)),
    ("GradedMatrix dim 0", lambda: GradedMatrix([], [], {}, dim=0)),
    ("Presentation dim -1", lambda: Presentation((), dim=-1)),
    ("Bifiltration dim 0", lambda: Bifiltration([], dim=0)),
    ("Bifiltration dim 2.5", lambda: Bifiltration([Cell(0, (0.0, 0.0), ())], dim=2.5)),
]


@pytest.mark.parametrize(
    "call", [c for _, c in DIMENSION_MISMATCHES], ids=[n for n, _ in DIMENSION_MISMATCHES]
)
def test_dimension_disagreement_raises_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()


def test_dimension_disagreement_has_one_message():
    for name, call in DIMENSION_MISMATCHES:
        with pytest.raises(DimensionMismatch) as info:
            call()
        assert re.fullmatch(r"grade dimensions differ: \d+ vs \d+", str(info.value)), name


@pytest.mark.parametrize("call", [c for _, c in BAD_DIMENSIONS], ids=[n for n, _ in BAD_DIMENSIONS])
def test_dimension_must_be_a_positive_integer(call):
    with pytest.raises(ValueError, match=r"^grade dimension must be a positive integer, got ") as e:
        call()
    assert not isinstance(e.value, DimensionMismatch)


# (value type, an instance, one of its fields)
VALUE_TYPES = [
    ("GradedMatrix", lambda: GradedMatrix([(0.0,)], [(1.0,)], {(0, 0): 1}), "field"),
    ("Presentation", lambda: Presentation([(0.0,)]), "rels"),
    ("Barcode", lambda: Barcode([(0.0,)]), "bars"),
    ("SignedBarcode", lambda: SignedBarcode(_B1), "positive"),
    ("Bifiltration", lambda: Bifiltration([Cell(0, (0.0,), ())]), "cells"),
]


@pytest.mark.parametrize("name, make, field", VALUE_TYPES, ids=[n for n, _, _ in VALUE_TYPES])
def test_value_types_are_immutable(name, make, field):
    obj = make()
    kept = getattr(obj, field)
    for attr in (field, "extra"):
        for change in (lambda: setattr(obj, attr, None), lambda: delattr(obj, attr)):
            with pytest.raises(AttributeError) as info:
                change()
            assert str(info.value) == "%s is immutable" % name
    assert getattr(obj, field) is kept
