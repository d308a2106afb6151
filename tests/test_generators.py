"""Module constructors, random presentations, and grade perturbation."""

import math

import pytest

from msb import (
    Barcode,
    PerturbSpec,
    SignedBarcode,
    SplitMix64,
    barcode_eq,
    betti,
    bottleneck_signed,
    gen_chain,
    gen_free,
    gen_hook,
    gen_one_param_interval,
    gen_random,
    gen_staircase,
    hilbert_distance,
    minimal_hilbert_decomposition,
    minimize_presentation,
    perturb,
    pointwise_dim,
    presentation_pair_cost,
    reduce_signed,
    run_stability,
    validate_graded,
)
from msb.algebra import direct_sum

EMPTY = SignedBarcode(Barcode([], dim=2), Barcode([], dim=2))


def test_splitmix_reference_stream():
    # fixed output stream, the cross-platform determinism contract
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973
    rng0 = SplitMix64(0)
    assert rng0.next_u64() == 16294208416658607535
    assert rng0.next_u64() == 7960286522194355700
    assert rng0.next_u64() == 487617019471545679


def test_splitmix_unit_and_below():
    rng = SplitMix64(5)
    for _ in range(1000):
        u = rng.unit()
        assert 0.0 <= u < 1.0
        assert rng.below(7) in range(7)


def test_free_module():
    p = gen_free((0.0, 0.0))
    res = betti(p)
    assert res.signed.positive.bars == ((0.0, 0.0),)
    assert res.signed.negative.bars == ()
    assert pointwise_dim(p, (1.0, 2.0)) == 1
    assert pointwise_dim(p, (-0.5, 0.0)) == 0


def test_hook_betti_and_support():
    p = gen_hook((0.0, 0.0), (1.0, 1.0))
    s = betti(p).signed
    assert s.positive.bars == ((0.0, 0.0),)
    assert s.negative.bars == ((1.0, 1.0),)
    assert pointwise_dim(p, (1.0, 0.0)) == 1
    assert pointwise_dim(p, (1.0, 1.0)) == 0
    hb = minimal_hilbert_decomposition(p)
    assert barcode_eq(hb.positive, s.positive)
    assert barcode_eq(hb.negative, s.negative)


def test_hook_requires_strict_inequality():
    with pytest.raises(ValueError):
        gen_hook((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        gen_hook((1.0, 1.0), (1.0, 1.0))


def test_staircase_two():
    p = gen_staircase(2)
    res = betti(p)
    assert res.by_degree[0].bars == ((0.0, 1.0), (0.5, 0.5), (1.0, 0.0))
    assert res.by_degree[1].bars == ((0.5, 1.0), (1.0, 0.5))
    assert res.by_degree[2].bars == ()
    assert pointwise_dim(p, (1.0, 1.0)) == 1


def test_staircase_shape_for_general_k():
    for k in (1, 2, 3, 4, 5):
        p = gen_staircase(k)
        assert validate_graded(p.rels)
        assert p.num_gens == k + 1
        assert p.num_rels == k
        res = betti(p)
        assert len(res.by_degree[0]) == k + 1
        assert len(res.by_degree[1]) == k
        assert res.by_degree[2].bars == ()
        assert pointwise_dim(p, (1.0, 1.0)) == 1


def test_staircase_rejects_bad_k():
    with pytest.raises(ValueError):
        gen_staircase(0)


def test_chain_hilbert_decomposition():
    for m, eps in ((1, 1.0), (2, 0.5), (3, 1.0), (5, 0.25)):
        p = gen_chain(m, eps)
        hb = minimal_hilbert_decomposition(p)
        assert hb.positive.bars == ((0.0, 0.0),)
        assert hb.negative.bars == ((m * eps, m * eps),)


def test_chain_betti_barcode():
    p = gen_chain(3, 1.0)
    s = betti(p).signed
    assert s.positive.bars == ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))
    assert s.negative.bars == ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))
    # cancelling shared bars recovers the decomposition
    r = reduce_signed(s)
    hb = minimal_hilbert_decomposition(p)
    assert barcode_eq(r.positive, hb.positive)
    assert barcode_eq(r.negative, hb.negative)


def test_chain_bottleneck_to_zero_is_step():
    for m, eps in ((1, 1.0), (2, 1.0), (3, 1.0), (3, 0.5)):
        s = betti(gen_chain(m, eps)).signed
        assert bottleneck_signed(s, EMPTY).value == eps


def test_chain_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_chain(0, 1.0)
    with pytest.raises(ValueError):
        gen_chain(2, 0.0)


def test_interval_sum_betti():
    m = direct_sum(gen_one_param_interval(0, 2), gen_one_param_interval(1, 3))
    n = direct_sum(gen_one_param_interval(0, 3), gen_one_param_interval(1, 2))
    sm = betti(m).signed
    sn = betti(n).signed
    assert sm.positive.bars == ((0.0,), (1.0,))
    assert sm.negative.bars == ((2.0,), (3.0,))
    assert barcode_eq(sm.positive, sn.positive)
    assert barcode_eq(sm.negative, sn.negative)
    assert bottleneck_signed(sm, sn).value == 0.0


def test_interval_vs_zero_module():
    s = betti(gen_one_param_interval(0, 2)).signed
    zero = SignedBarcode(Barcode([], dim=1), Barcode([], dim=1))
    assert bottleneck_signed(s, zero).value == 2.0


def test_interval_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        gen_one_param_interval(2, 2)
    with pytest.raises(ValueError):
        gen_one_param_interval(3, 1)


def test_random_zero_generators():
    p = gen_random(1, 0, 0, 8)
    res = betti(p)
    assert res.signed.positive.bars == ()
    assert res.signed.negative.bars == ()


def test_random_free_when_no_relations():
    p = gen_random(2, 5, 0, 8)
    res = betti(p)
    assert res.by_degree[1].bars == ()
    assert res.by_degree[2].bars == ()


def test_random_is_deterministic():
    a = gen_random(42, 4, 3, 8)
    b = gen_random(42, 4, 3, 8)
    assert a.gens == b.gens
    assert a.rels.col_grades == b.rels.col_grades
    assert a.rels.entries == b.rels.entries
    c = gen_random(43, 4, 3, 8)
    assert (a.gens, a.rels.entries) != (c.gens, c.rels.entries)


def test_random_always_valid():
    rng = SplitMix64(131)
    for trial in range(100):
        p = gen_random(12000 + trial, rng.below(9), rng.below(9), 1 + rng.below(8))
        assert validate_graded(p.rels)


@pytest.mark.parametrize("size", [(-1, 0, 8), (0, -1, 8), (1, 1, 0)])
def test_random_refuses_a_negative_size_or_an_empty_grid(size):
    with pytest.raises(ValueError, match=r"^gen_random needs gens, rels >= 0 and grid >= 1$"):
        gen_random(1, *size)


def test_stability_refuses_negative_trials_and_reports_each_violation(monkeypatch):
    import msb.stability

    with pytest.raises(ValueError, match=r"^trial count must be nonnegative$"):
        run_stability(-1, 0.05, 7)
    # a bound of 0 on the bottleneck: every trial that moves a bar violates it
    monkeypatch.setattr(msb.stability, "BOTTLENECK_FACTOR", 0.0)
    report = run_stability(4, 0.5, 7)
    assert not report.ok and report.max_ratio_bottleneck == math.inf
    assert [v.split(":")[0] for v in report.violations] == ["trial %d" % t for t in range(4)]
    for v, t in zip(report.violations, report.trials):
        assert v == "trial %d: bottleneck %r exceeds bound 0.0" % (t.index, t.dist_bottleneck)


def test_stability_reports_a_realized_cost_above_twice_delta(monkeypatch):
    import dataclasses

    import msb.stability

    def overshoot(pres, spec):  # moves the labels as perturb does, but claims 3 * delta
        return dataclasses.replace(perturb(pres, spec), cost_linf=3 * spec.delta)

    monkeypatch.setattr(msb.stability, "perturb", overshoot)
    report = run_stability(3, 0.5, 7)
    assert report.violations == ["trial %d: realized l-inf cost 1.5 exceeds 2*delta" % t for t in range(3)]


def test_stability_reports_a_wasserstein_distance_above_its_bound(monkeypatch):
    import msb.stability

    monkeypatch.setattr(msb.stability, "hilbert_distance", lambda before, after: 1e9)
    report = run_stability(3, 0.5, 7)
    assert not report.ok and len(report.trials) == 3
    assert report.violations == [
        "trial %d: wasserstein 1000000000.0 exceeds bound %r" % (t.index, 2 * t.cost_l1)
        for t in report.trials
    ]


def test_perturb_zero_delta_is_identity():
    p = gen_staircase(3)
    out = perturb(p, PerturbSpec(0.0, 99))
    assert out.presentation.gens == p.gens
    assert out.presentation.rels.col_grades == p.rels.col_grades
    assert out.cost_l1 == 0.0
    assert out.cost_linf == 0.0


@pytest.mark.parametrize("delta", [-0.5, math.nan, math.inf])
def test_bad_delta_is_refused_up_front(delta):
    # a non-finite delta used to fail deep inside, at the perturbed grades
    with pytest.raises(ValueError, match="^delta must be finite and nonnegative"):
        perturb(gen_staircase(3), PerturbSpec(delta, 1))
    for trials in (0, 3):
        with pytest.raises(ValueError, match="^delta must be finite and nonnegative"):
            run_stability(trials, delta, seed=1)


def test_perturb_is_deterministic():
    p = gen_random(7, 5, 4, 8)
    a = perturb(p, PerturbSpec(0.1, 5))
    b = perturb(p, PerturbSpec(0.1, 5))
    assert a.presentation.gens == b.presentation.gens
    assert a.presentation.rels.col_grades == b.presentation.rels.col_grades
    assert a.cost_l1 == b.cost_l1


def test_perturb_keeps_matrix_and_validity():
    rng = SplitMix64(137)
    for trial in range(100):
        p = gen_random(13000 + trial, 1 + rng.below(6), rng.below(7), 8)
        out = perturb(p, PerturbSpec(0.05, 1000 + trial))
        q = out.presentation
        assert q.rels.entries == p.rels.entries
        assert q.field == p.field
        assert validate_graded(q.rels)


def test_perturb_realized_cost_bound():
    # each label moves at most delta, and a relation label can be
    # pushed up to delta further by the validity repair
    rng = SplitMix64(139)
    for trial in range(200):
        p = gen_random(14000 + trial, 1 + rng.below(6), rng.below(7), 8)
        delta = (0.01, 0.05, 0.1)[rng.below(3)]
        out = perturb(p, PerturbSpec(delta, 2000 + trial))
        assert out.cost_linf <= 2 * delta + 1e-12
        labels = p.num_gens + p.num_rels
        assert out.cost_l1 <= labels * 2 * 2 * delta + 1e-12
        assert out.cost_linf == presentation_pair_cost(p, out.presentation, math.inf)
        assert out.cost_l1 == presentation_pair_cost(p, out.presentation, 1)


def test_perturbed_staircase_stability_instance():
    p = gen_staircase(2)
    out = perturb(p, PerturbSpec(0.05, 7))
    d = bottleneck_signed(betti(p).signed, betti(out.presentation).signed).value
    assert d <= 3 * out.cost_linf + 1e-9


@pytest.mark.parametrize("seed, delta, witnessed", [(7, 0.05, 80), (11, 0.5, 104), (13, 2.0, 81)])
def test_label_matching_bounds_the_distances_where_it_is_a_witness(seed, delta, witnessed):
    # run_stability's draws.  Where both presentations are minimal and
    # neither has a degree-2 bar, the signed barcodes are the labels
    # themselves (generators positive, relations negative), so matching
    # each label to its perturbed self is one admissible matching: the
    # bottleneck is at most the l-inf cost and the Hilbert distance at most
    # the l1 cost, with no stability factor
    rng = SplitMix64(seed)
    seen = 0
    for _ in range(500):
        ngens, nrels = 1 + rng.below(6), rng.below(7)
        p = gen_random(rng.next_u64(), ngens, nrels, 8)
        out = perturb(p, PerturbSpec(delta, rng.next_u64()))
        q = out.presentation
        if minimize_presentation(p) != p or minimize_presentation(q) != q:
            continue
        before, after = betti(p), betti(q)
        if before.by_degree[2].bars or after.by_degree[2].bars:
            continue
        seen += 1
        assert bottleneck_signed(before.signed, after.signed).value <= out.cost_linf
        assert hilbert_distance(before.signed, after.signed) <= out.cost_l1 + 1e-9
    assert seen == witnessed
