"""Values built on the trusted route equal their public rebuilds.

Internal producers freeze their outputs with ``_trusted``, unchecked.  Each
output here is rebuilt through the public constructors, which normalize and
check, and must come back field for field the same: grades tuples of finite
floats, bars sorted, entries ints in [1, p), the same field and dimension,
and presentations grade-valid.
"""

import pytest

from msb import (
    Barcode,
    ChainPair,
    GradedMatrix,
    PerturbSpec,
    Presentation,
    SignedBarcode,
    SplitMix64,
    barcode_union,
    betti,
    chain_to_presentation,
    gen_random,
    homology_presentation,
    kernel_basis,
    minimize_presentation,
    parse_bifiltration,
    parse_chain_pair,
    parse_presentation,
    parse_signed_barcode,
    perturb,
    reduce_signed,
    serialize_bifiltration,
    serialize_chain_pair,
    serialize_presentation,
    serialize_signed_barcode,
)
from msb import stability
from msb.grades import _Frozen
from test_algebra import random_graded_matrix
from test_cli import lower_star_square, random_presentation


def fields(v):
    """A value's fields as nested plain data; ``repr`` keeps exact types (a
    list is not a tuple, 1 is not 1.0) and the order of dicts."""
    if isinstance(v, _Frozen):
        return tuple(fields(getattr(v, name)) for name in v.__slots__)
    return repr(v)


def public(v):
    """``v`` rebuilt through the public constructors."""
    if isinstance(v, GradedMatrix):
        return GradedMatrix(v.row_grades, v.col_grades, v.entries, field=v.field, dim=v.dim)
    if isinstance(v, Presentation):
        return Presentation(v.gens, public(v.rels))
    if isinstance(v, Barcode):
        return Barcode(v.bars, dim=v.dim)
    return SignedBarcode(public(v.positive), public(v.negative))


def assert_trusted(*values):
    for v in values:
        assert fields(public(v)) == fields(v), v


def assert_betti_trusted(pres):
    res = betti(pres)
    assert_trusted(*res.by_degree, res.signed, reduce_signed(res.signed))
    for part in (res.signed.positive, res.signed.negative):
        assert part.dim == pres.dim
    return res.signed


def assert_presentation_outputs_trusted(pres):
    mini = minimize_presentation(pres)
    assert_trusted(mini)
    assert mini.field == pres.field and mini.dim == pres.dim
    if pres.dim is None or pres.dim <= 2:
        for m in (pres.rels, mini.rels):
            bars, inc = kernel_basis(m)
            assert_trusted(bars, inc, m.matmul(inc))
            assert inc.field == m.field and inc.dim == bars.dim == m.dim
        assert_betti_trusted(pres)


def test_kernel_corpus_outputs_are_trusted():
    rng = SplitMix64(31)
    for trial in range(120):
        pres = gen_random(5000 + trial, 1 + rng.below(6), rng.below(7), 5)
        assert_trusted(pres)
        assert_presentation_outputs_trusted(pres)
    rng = SplitMix64(59)
    for p in (3, 5, 7):
        for dim in (1, 2):
            for _ in range(40):
                m = random_graded_matrix(rng, p, dim)
                bars, inc = kernel_basis(m)
                assert_trusted(bars, inc, m.matmul(inc))
                assert_presentation_outputs_trusted(Presentation(m.row_grades, m))


def test_presentation_corpus_outputs_are_trusted():
    rng = SplitMix64(97)
    for field in (2, 3, 5):
        for dim in (1, 2, 3):
            for _ in range(40):
                pres = random_presentation(rng, field, dim)
                assert_presentation_outputs_trusted(pres)
                assert_trusted(parse_presentation(serialize_presentation(pres)))


@pytest.mark.parametrize("p", [2, 3])
def test_lower_star_grid_outputs_are_trusted(p):
    for seed, n, levels in ((20240, 5, 50), (20241, 4, 3), (20242, 5, 6)):
        bif = lower_star_square(seed, n, levels, field=p)
        parsed = parse_bifiltration(serialize_bifiltration(bif))
        for b in (bif, parsed):
            chunks = [m for m, _ in b._chunks.values()]
            assert_trusted(*chunks)
            assert {(m.field, m.dim) for m in chunks} == {(p, 2)}
        for degree in (0, 1, 2):
            g, f = bif._chunked(degree)[0], bif._chunked(degree + 1)[0]
            assert_trusted(g.matmul(f))
            pres = chain_to_presentation(bif, degree)
            pair = ChainPair(f=bif.boundary_matrix(degree + 1), g=bif.boundary_matrix(degree))
            back = parse_chain_pair(serialize_chain_pair(pair))
            assert_trusted(back.f, back.g)
            raw = homology_presentation(pair)
            for q in (pres, raw):
                assert_trusted(q)
                assert (q.field, q.dim) == (p, 2)
                assert_presentation_outputs_trusted(q)


@pytest.mark.parametrize("seed, delta", [(0, 0.0), (1, 0.05), (7, 0.5), (2024, 0.1)])
def test_stability_trial_outputs_are_trusted(seed, delta):
    # the trials of run_stability, replayed part by part in its draw order
    rng = SplitMix64(seed)
    report = stability.run_stability(12, delta, seed)
    for trial in report.trials:
        ngens = 1 + rng.below(stability.MAX_GENS)
        nrels = rng.below(stability.MAX_RELS + 1)
        pres = gen_random(rng.next_u64(), ngens, nrels, stability.GRID)
        out = perturb(pres, PerturbSpec(delta, rng.next_u64()))
        assert (out.cost_l1, out.cost_linf) == (trial.cost_l1, trial.cost_linf)
        assert_trusted(pres, out.presentation)
        before, after = assert_betti_trusted(pres), assert_betti_trusted(out.presentation)
        assert_trusted(
            barcode_union(before.positive, after.negative),
            barcode_union(after.positive, before.negative),
        )
        for s in (before, after):
            # the positive bars in reverse order, so the parser has to sort
            lines = serialize_signed_barcode(s).splitlines()
            lines[3 : 3 + len(s.positive)] = reversed(lines[3 : 3 + len(s.positive)])
            back = parse_signed_barcode("\n".join(lines))
            assert_trusted(back)
            assert back == s and back.dim == s.dim
