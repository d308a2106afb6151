"""Graded matrices, minimization, kernels, Betti barcodes, homology."""

import hashlib
import itertools

import pytest

from msb import (
    ChainPair,
    DimensionMismatch,
    GradedMatrix,
    GradedValidityError,
    KernelCheckError,
    Presentation,
    SplitMix64,
    UnsupportedDimension,
    betti,
    chain_to_presentation,
    gen_free,
    gen_hook,
    gen_random,
    gen_staircase,
    hilbert_eval,
    homology_presentation,
    join,
    kernel_basis,
    leq,
    minimize_presentation,
    pointwise_dim,
    serialize_presentation,
    validate_graded,
)
from msb import algebra
from msb.algebra import direct_sum
from msb.io import Bifiltration, Cell


def grid_points(pres, grid=8):
    """Product grid spanned by all grade coordinates plus the corners."""
    xs = {0.0, float(grid)}
    ys = {0.0, float(grid)}
    for g in list(pres.gens) + list(pres.rels.col_grades):
        xs.add(g[0])
        ys.add(g[1])
    return [(x, y) for x in sorted(xs) for y in sorted(ys)]


def shuffled(rng, xs):
    xs = list(xs)
    for i in range(len(xs) - 1, 0, -1):
        k = rng.below(i + 1)
        xs[i], xs[k] = xs[k], xs[i]
    return xs


# ---------------------------------------------------------------------------
# GradedMatrix and validity


def test_validate_comparable_entry():
    m = GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 0): 1})
    assert validate_graded(m)


def test_validate_rejects_incomparable_entry():
    # construction is allowed so the predicate has something to reject
    m = GradedMatrix([(1.0, 0.0)], [(0.0, 1.0)], {(0, 0): 1})
    assert not validate_graded(m)
    with pytest.raises(GradedValidityError) as err:
        minimize_presentation(Presentation(m.row_grades, m))
    msg = str(err.value)
    assert "row 0" in msg and "column 0" in msg


def test_validate_staircase_relations():
    assert validate_graded(gen_staircase(4).rels)


def test_validate_graded_is_total():
    z = GradedMatrix([], [], {}, dim=2)
    assert validate_graded(z)


def test_entries_are_reduced_mod_p():
    m = GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 0): 5}, field=3)
    assert m.entries[(0, 0)] == 2
    # entries that reduce to zero are dropped
    m2 = GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 0): 4}, field=2)
    assert m2.entries == {}


def test_nonprime_field_rejected():
    with pytest.raises(ValueError):
        GradedMatrix([], [], {}, field=4, dim=1)


def test_matrix_immutable():
    m = GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 0): 1})
    with pytest.raises(AttributeError):
        m.field = 3


def test_matrix_constructors_take_only_integers():
    # indices and coefficients are not truncated: (0.7, 0) is no row 0
    for entries in ({(0.7, 0): 1}, {(0, 0.0): 1}, {(0, 0): 2.5}):
        with pytest.raises(TypeError):
            GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], entries, field=3)
    for col in ({0.7: 1}, {0: 2.5}):
        with pytest.raises(TypeError):
            Presentation.from_relations([(0.0, 0.0)], [((1.0, 1.0), col)], field=3)
    with pytest.raises(TypeError):  # nor a field order of 3.0, whose entries would be floats
        GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 0): 2}, field=3.0)
    # any integer type is taken, and coefficients reduce mod p
    m = GradedMatrix([(0.0, 0.0)] * 2, [(1.0, 1.0)], {(True, 0): -1}, field=3)
    assert m.entries == {(1, 0): 2}


def test_entries_is_a_view_not_state():
    rg, cg = [(0.0, 0.0)] * 2, [(1.0, 1.0)] * 2
    m = GradedMatrix(rg, cg, {(0, 0): 1, (1, 1): 2}, field=3)
    h = hash(m)
    view = m.entries
    view[(0, 0)] = 0
    view[(1, 0)] = 1
    del view[(1, 1)]
    m.columns()[0][0] = 2
    assert m.entries == {(0, 0): 1, (1, 1): 2}
    assert m == GradedMatrix(rg, cg, {(1, 1): 2, (0, 0): 1}, field=3) and hash(m) == h
    # the same entries in another insertion order: equal, with one hash
    entries = {(0, 0): 1, (1, 0): 2, (0, 1): 1, (1, 1): 1}
    a = GradedMatrix(rg, cg, entries, field=3)
    b = GradedMatrix(rg, cg, dict(reversed(entries.items())), field=3)
    assert list(a.cols[0]) == [0, 1] and list(b.cols[0]) == [1, 0]
    assert a == b and hash(a) == hash(b)


def test_renumber_against_a_round_trip_through_pairs():
    # the reference unpacks each column to (row, coeff) pairs, maps the
    # kept rows through a dict and packs the column again
    def reference(cols, rows, p):
        at = {r: k for k, r in enumerate(rows)}
        pairs = ([(at[r], v) for r, v in algebra._items(col) if r in at] for col in cols)
        return tuple(algebra._column(c, p) for c in pairs)

    rng = SplitMix64(67)
    for p in (2, 3, 5):
        assert algebra._renumber([], [2, 0, 1], p) == ()
        for _ in range(80):
            n = 1 + rng.below(70)  # past 64 rows, an F_2 column is more than one machine word
            cols = [
                algebra._column([(r, 1 + rng.below(p - 1)) for r in range(n) if rng.below(4) == 0], p)
                for _ in range(rng.below(9))
            ]
            maps = [
                range(n),  # the identity
                shuffled(rng, range(n)),  # a permutation
                range(n - 1),  # the top row dropped
                [],  # every row dropped
                [r for r in range(n) if r % 3 != 1],  # rows between kept ones dropped
                shuffled(rng, [r for r in range(n) if rng.below(2)]),  # drops, then a permutation
            ]
            before = [dict(c) if p != 2 else c for c in cols]
            for rows in maps:
                assert algebra._renumber(cols, rows, p) == reference(cols, rows, p)
            assert cols == before  # the input columns are left as they were


def test_presentation_refuses_a_field_or_dim_its_relations_disagree_with():
    m = GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 0): 1})
    with pytest.raises(ValueError, match=r"^field 3 disagrees with the relations' field 2$"):
        Presentation([(0.0, 0.0)], m, field=3)
    with pytest.raises(DimensionMismatch, match=r"^grade dimensions differ: 3 vs 2$"):
        Presentation([(0.0, 0.0)], m, dim=3)
    # agreeing values, and none, are taken; with no relations the field defaults to 2
    assert Presentation([(0.0, 0.0)], m, field=2, dim=2) == Presentation([(0.0, 0.0)], m)
    assert Presentation([(0.0, 0.0)]).field == 2 and Presentation([(0.0, 0.0)], field=5).field == 5


def test_presentation_takes_a_dim_its_empty_relations_lack():
    # a matrix with neither rows nor columns may have no dimension; a given
    # dim is then taken, as it is with no relations at all
    empty = GradedMatrix((), (), {}, field=3)
    assert empty.dim is None
    pres = Presentation((), empty, dim=3)
    assert (pres.dim, pres.rels.dim, pres.field) == (3, 3, 3)
    assert pres == Presentation((), field=3, dim=3) and pres.dim == Presentation((), dim=3).dim
    assert Presentation((), empty).dim is None
    with pytest.raises(DimensionMismatch, match=r"^grade dimensions differ: 2 vs 3$"):
        Presentation((), GradedMatrix((), (), {}, dim=3), dim=2)
    with pytest.raises(ValueError, match=r"^grade dimension must be a positive integer, got 0$"):
        Presentation((), empty, dim=0)


def test_constructors_refuse_what_does_not_fit():
    # each refusal with its exact message
    with pytest.raises(IndexError, match=r"^entry \(1, 0\) outside matrix shape$"):
        GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(1, 0): 1})
    with pytest.raises(IndexError, match=r"^entry \(0, 1\) outside matrix shape$"):
        GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 1): 1})
    with pytest.raises(IndexError, match=r"^entry \(-1, 0\) outside matrix shape$"):
        GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(-1, 0): 1})
    m = GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 0): 1})
    with pytest.raises(ValueError, match=r"^generator grades disagree with relation row grades$"):
        Presentation([(0.0, 1.0)], m)
    with pytest.raises(ValueError, match=r"^generator grades disagree with relation row grades$"):
        Presentation([(0.0, 0.0)] * 2, m)


def test_products_and_sums_refuse_mismatched_operands():
    f2 = GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 0): 1})
    f3 = GradedMatrix([(1.0, 1.0)], [(2.0, 2.0)], {(0, 0): 2}, field=3)
    with pytest.raises(ValueError, match=r"^field mismatch in matrix product$"):
        f2.matmul(GradedMatrix([(1.0, 1.0)], [(2.0, 2.0)], {(0, 0): 1}, field=3))
    with pytest.raises(DimensionMismatch, match=r"^inner grades disagree in matrix product$"):
        f2.matmul(GradedMatrix([(0.0, 1.0)], [(2.0, 2.0)], {(0, 0): 1}))
    with pytest.raises(ValueError, match=r"^direct_sum needs at least one presentation$"):
        direct_sum()
    with pytest.raises(ValueError, match=r"^field mismatch in direct sum$"):
        direct_sum(Presentation(f2.row_grades, f2), Presentation(f3.row_grades, f3))
    with pytest.raises(ValueError, match=r"^chain maps over different fields$"):
        ChainPair(f=f3, g=f2)
    # f's rows at (1, 1) against g's columns at (1, 1) and (2, 2)
    g = GradedMatrix([(0.0, 0.0)], [(1.0, 1.0), (2.0, 2.0)], {})
    f = GradedMatrix([(1.0, 1.0)], [(3.0, 3.0)], {})
    with pytest.raises(DimensionMismatch, match=r"^column grades of g must equal row grades of f$"):
        ChainPair(f=f, g=g)


def _combine(coeffs, cols, n, p):
    """``sum(c * cols[k])`` over the ``(k, c)`` pairs ``coeffs``, for dict
    columns ``cols``, as a dense list of length ``n``."""
    out = [0] * n
    for k, c in coeffs:
        for r, v in cols[k].items():
            out[r] = (out[r] + c * v) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reducer_label_rows_hold_the_combinations(p):
    # each column goes in stacked over a 1 on its own label row; the labels
    # of every column insert does not keep combine the inserted columns to
    # zero, reduce leaves a column of the span with labels that rebuild it,
    # and every stored column's labels rebuild its matrix rows.  With keys,
    # a stored column's labels are its own plus labels of smaller keys.
    rng = SplitMix64(71 + p)
    for trial in range(120):
        # past 64 rows a packed F_2 column spans words; few rows leave many columns dependent
        n, m = 1 + rng.below(70 if trial % 3 else 8), rng.below(14)
        density = 1 + rng.below(4)
        sparse = [
            {r: 1 + rng.below(p - 1) for r in range(n) if rng.below(density) == 0} for _ in range(m)
        ]
        keys = shuffled(rng, range(m)) if trial % 2 else [None] * m
        red = algebra._Reducer(p, m)
        left = 0
        for k, col in enumerate(sparse):
            out = red.insert(algebra._shift(algebra._column(col.items(), p), m, p, k), keys[k])
            if out is None:
                continue
            left += 1
            vec, key = out
            labels = list(algebra._items(vec))
            assert labels and all(r < m for r, _ in labels)
            assert _combine(labels, sparse, n, p) == [0] * n
            if key is not None:  # the column left is the one of the largest key among its labels
                assert key == max(keys[r] for r, _ in labels)
        assert left == m - dense_rank(sparse, n, p)
        for r, stored in red.pivots.items():
            assert r >= m and algebra._lead(stored) == r and dict(algebra._items(stored))[r] == 1
            labels = [(k, v) for k, v in algebra._items(stored) if k < m]
            rows = {k - m: v for k, v in algebra._items(stored) if k >= m}
            assert _combine(labels, sparse, n, p) == _combine([(0, 1)], [rows], n, p)
            if keys[0] is not None:
                own = red.keys[r]
                assert own in [keys[k] for k, _ in labels]
                assert all(keys[k] <= own for k, _ in labels)
        for _ in range(4):
            target = _combine([(k, rng.below(p)) for k in range(m)], sparse, n, p)
            packed = algebra._column([(r, v) for r, v in enumerate(target) if v], p)
            cur, _ = red.reduce(algebra._shift(packed, m, p))
            labels = list(algebra._items(cur))
            assert all(r < m for r, _ in labels)
            assert _combine([(k, p - v) for k, v in labels], sparse, n, p) == target
        extra = {r: 1 for r in range(n) if rng.below(2)}
        cur, _ = red.reduce(algebra._shift(algebra._column(extra.items(), p), m, p))
        outside = dense_rank(sparse + [extra], n, p) > dense_rank(sparse, n, p)
        assert any(r >= m for r, _ in algebra._items(cur)) == outside


# ---------------------------------------------------------------------------
# minimize_presentation


def test_minimize_free_is_identity():
    p = gen_free((2.0, 3.0))
    q = minimize_presentation(p)
    assert q.gens == p.gens
    assert q.num_rels == 0


def test_minimize_unit_pivot_equal_grade():
    p = Presentation.from_relations(
        [(0.0, 0.0), (0.0, 0.0)], [((0.0, 0.0), {0: 1, 1: 1})]
    )
    q = minimize_presentation(p)
    assert q.gens == ((0.0, 0.0),)
    assert q.num_rels == 0


def test_minimize_redundant_generator():
    # two axis generators, one relation at the corner, plus a third
    # generator born at the corner that equals the image of the first;
    # minimization removes the redundant generator and its relation
    p = Presentation.from_relations(
        [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        [
            ((1.0, 1.0), {0: 1, 1: 1}),
            ((1.0, 1.0), {0: 1, 2: 1}),
        ],
    )
    q = minimize_presentation(p)
    assert sorted(q.gens) == [(0.0, 1.0), (1.0, 0.0)]
    assert q.rels.col_grades == ((1.0, 1.0),)


def test_minimize_prunes_duplicate_relations():
    p = Presentation.from_relations(
        [(0.0, 0.0)], [((1.0, 1.0), {0: 1}), ((1.0, 1.0), {0: 1})]
    )
    q = minimize_presentation(p)
    assert q.gens == ((0.0, 0.0),)
    assert q.rels.col_grades == ((1.0, 1.0),)


def test_minimize_prunes_relation_implied_at_lower_grade():
    # the second relation repeats the first at a higher grade
    p = Presentation.from_relations(
        [(0.0, 0.0)], [((1.0, 1.0), {0: 1}), ((2.0, 2.0), {0: 1})]
    )
    q = minimize_presentation(p)
    assert q.rels.col_grades == ((1.0, 1.0),)


def test_minimize_no_equal_grade_entries():
    rng = SplitMix64(23)
    for trial in range(100):
        p = gen_random(3000 + trial, 1 + rng.below(8), rng.below(9), 6)
        q = minimize_presentation(p)
        for (i, j) in q.rels.entries:
            assert q.gens[i] != q.rels.col_grades[j]


def test_minimize_preserves_module():
    rng = SplitMix64(29)
    for trial in range(200):
        p = gen_random(4000 + trial, 1 + rng.below(8), rng.below(9), 6)
        q = minimize_presentation(p)
        for _ in range(50):
            x = (float(rng.below(8)), float(rng.below(8)))
            assert pointwise_dim(p, x) == pointwise_dim(q, x)


def test_minimize_rejects_invalid_input():
    with pytest.raises(GradedValidityError):
        Presentation.from_relations([(2.0, 2.0)], [((0.0, 0.0), {0: 1})])


# ---------------------------------------------------------------------------
# kernel_basis


def test_kernel_of_axis_pair_map():
    # two columns at the axis grades mapping onto one generator
    m = GradedMatrix([(0.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)], {(0, 0): 1, (0, 1): 1})
    bars, inc = kernel_basis(m)
    assert bars.bars == ((1.0, 1.0),)
    assert inc.col_grades == ((1.0, 1.0),)
    assert inc.entries == {(0, 0): 1, (1, 0): 1}


def test_kernel_of_injective_map_is_empty():
    m = GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 0): 1})
    bars, inc = kernel_basis(m)
    assert bars.bars == ()
    assert inc.num_cols == 0


def test_kernel_of_zero_map_is_identity():
    m = GradedMatrix([], [(0.0, 1.0), (2.0, 0.0)], {}, dim=2)
    bars, inc = kernel_basis(m)
    assert bars.bars == ((0.0, 1.0), (2.0, 0.0))
    assert sorted(inc.col_grades) == [(0.0, 1.0), (2.0, 0.0)]
    assert len(inc.entries) == 2
    for (i, j), v in inc.entries.items():
        assert v == 1
        assert m.col_grades[i] == inc.col_grades[j]


def test_kernel_with_incomparable_column_grades():
    # three columns at (2,0), (1,1), (0,2) into one row: the kernel
    # generators sit at the pairwise joins (2,1) and (1,2), not at the
    # joins of a column with the running span
    m = GradedMatrix(
        [(0.0, 0.0)],
        [(2.0, 0.0), (1.0, 1.0), (0.0, 2.0)],
        {(0, 0): 1, (0, 1): 1, (0, 2): 1},
    )
    bars, inc = kernel_basis(m)
    assert bars.bars == ((1.0, 2.0), (2.0, 1.0))
    # each kernel column really is in the nullspace
    assert m.matmul(inc).entries == {}


def assert_kernel_sound(m, top):
    """Check the kernel of ``m`` against routes other than its own sweep:
    every inclusion column is in the nullspace and its support joins to its
    recorded grade, and the count of generators at or below each point of
    the coordinate grid (with ``top`` added on each axis) is the nullity of
    the columns there."""
    bars, inc = kernel_basis(m)
    assert m.matmul(inc).entries == {}
    for k, col in enumerate(inc.columns()):
        assert join(*(m.col_grades[i] for i in col)) == inc.col_grades[k]
    as_pres = Presentation(m.row_grades, m)
    axes = [sorted({c[a] for c in m.col_grades} | {top}) for a in range(m.dim)]
    for pt in itertools.product(*axes):
        ncols_below = sum(1 for c in m.col_grades if leq(c, pt))
        nrows_below = sum(1 for r in m.row_grades if leq(r, pt))
        # pointwise_dim gives rows minus rank, so rank falls out
        rank_below = nrows_below - pointwise_dim(as_pres, pt)
        ker_below = sum(1 for b in bars if leq(b, pt))
        assert ker_below == ncols_below - rank_below


def test_kernel_rank_identity_random():
    rng = SplitMix64(31)
    for trial in range(120):
        p = gen_random(5000 + trial, 1 + rng.below(6), rng.below(7), 5)
        # the minimized relations all have zero kernel; the raw ones do not
        for m in (p.rels, minimize_presentation(p).rels):
            assert_kernel_sound(m, 5.0)


def test_kernel_output_pinned_on_random_corpus():
    # generator grades, inclusion columns and their coefficients are
    # pinned over the corpus above, raw and minimized, so a rewrite of the
    # sweep cannot move a kernel vector or its order unnoticed
    digest = hashlib.sha256()
    rng = SplitMix64(31)
    for trial in range(120):
        p = gen_random(5000 + trial, 1 + rng.below(6), rng.below(7), 5)
        for m in (p.rels, minimize_presentation(p).rels):
            bars, inc = kernel_basis(m)
            digest.update(repr((bars.bars, inc.col_grades, sorted(inc.entries.items()))).encode())
    assert digest.hexdigest() == "2642cb664ddaa26858632b466aabebf3db5dce787c8c12152905685ac66afac2"


def graded_matrix_over(rng, p, rows, cols, dim):
    """Grade-valid matrix over F_p on the given grades: each entry at or
    below its column's grade is a random unit with probability 1/2."""
    entries = {}
    for j, c in enumerate(cols):
        for i, r in enumerate(rows):
            if leq(r, c) and rng.below(2):
                entries[(i, j)] = 1 + rng.below(p - 1)
    return GradedMatrix(rows, cols, entries, field=p, dim=dim)


def random_graded_matrix(rng, p, dim):
    """Grade-valid matrix over F_p: grades on {0..4}^dim, random units."""

    def grade():
        return tuple(float(rng.below(5)) for _ in range(dim))

    rows = [grade() for _ in range(rng.below(7))]
    cols = [grade() for _ in range(1 + rng.below(11))]
    return graded_matrix_over(rng, p, rows, cols, dim)


def test_kernel_rank_identity_over_odd_fields_in_one_and_two_parameters():
    rng = SplitMix64(59)
    for p in (3, 5, 7):
        for dim in (1, 2):
            for _ in range(40):
                assert_kernel_sound(random_graded_matrix(rng, p, dim), 4.0)


def test_kernel_output_pinned_over_odd_fields_in_one_and_two_parameters():
    # the pin above is F_2 in two parameters only; here coefficients other
    # than 1 and the one-parameter sweep are pinned too
    digest = hashlib.sha256()
    rng = SplitMix64(59)
    for p in (3, 5, 7):
        for dim in (1, 2):
            for _ in range(40):
                bars, inc = kernel_basis(random_graded_matrix(rng, p, dim))
                digest.update(repr((bars.bars, inc.col_grades, sorted(inc.entries.items()))).encode())
    assert digest.hexdigest() == "8207b42adc2edd7c2b05a2da4007a7441776d2bcda48e8b3cce5cb450a1d7099"


@pytest.mark.parametrize("degree, grades", [(0, 25), (1, 22)])
def test_kernel_birth_grades_on_lower_star_grid(degree, grades):
    # the generators of a boundary kernel of a seeded lower-star grid are
    # born at this many distinct grades, under the exhaustive check
    from test_cli import lower_star_square

    bars, _ = kernel_basis(lower_star_square(20240, 5, 50).boundary_matrix(degree), verify=True)
    assert len(set(bars.bars)) == grades


def test_kernel_grades_pinned_where_they_are_unique():
    # the kernel vectors are one basis of many, but the grade of each
    # generator in discovery order, the dependent columns and betti's
    # degree-2 bars are not: over the matrices of the two pins above and
    # the lower-star kernels, this pin holds whichever basis the sweep picks
    from test_cli import lower_star_square

    mats = []
    rng = SplitMix64(31)
    for trial in range(120):
        p = gen_random(5000 + trial, 1 + rng.below(6), rng.below(7), 5)
        mats += [p.rels, minimize_presentation(p).rels]
    rng = SplitMix64(59)
    mats += [random_graded_matrix(rng, p, dim) for p in (3, 5, 7) for dim in (1, 2) for _ in range(40)]
    bif = lower_star_square(20240, 5, 50)
    mats += [bif.boundary_matrix(degree) for degree in (0, 1)]
    digest = hashlib.sha256()
    for m in mats:
        _, inc = kernel_basis(m)
        found = [(g, k) for g, k, _ in algebra._sweep(m.cols, m.col_grades, m.field, True, "kernel_basis")]
        assert [(g, k) for g, k, _ in algebra._sweep(m.cols, m.col_grades, m.field, False, None)] == found
        dep = {k for g, k in found if g == m.col_grades[k]}
        b2 = betti(Presentation(m.row_grades, m)).by_degree[2:]
        digest.update(repr((inc.col_grades, sorted(dep), [b.bars for b in b2])).encode())
    assert digest.hexdigest() == "cc3e11c92f7f51143d15334bf2164c91d1463bc5c533654a0c117aa344895906"


def test_kernel_verify_flag_runs_clean():
    rng = SplitMix64(37)
    for trial in range(100):
        p = gen_random(6000 + trial, 1 + rng.below(6), rng.below(7), 5)
        kernel_basis(p.rels, verify=True)


def test_kernel_check_catches_a_dropped_vector(monkeypatch):
    # the exhaustive check shares no state with the sweep and runs in the
    # transposed order (x outer, keys by row): when the sweep's reducer
    # reports a column left zero as one that took a pivot, the sweep drops
    # its vector, the unchecked kernel is wrong, and the checked one is
    # refused at the grade where the generator is missing
    m = GradedMatrix([(0.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)], {(0, 0): 1, (0, 1): 1})
    good, _ = kernel_basis(m)

    class Lossy(algebra._Reducer):
        def insert(self, col, key=None):
            left = super().insert(col, key)
            if self.low and left is not None:  # only the sweep tracks combinations
                left = None
            return left

    monkeypatch.setattr(algebra, "_Reducer", Lossy)
    with pytest.raises(
        KernelCheckError,
        match=r"grade \(1\.0, 1\.0\): 0 generators born, fiber kernel has dimension 1$",
    ):
        kernel_basis(m)
    bad, _ = kernel_basis(m, verify=False)
    assert bad != good


def test_kernel_check_refuses_a_miscounted_rank(monkeypatch):
    # the sweep is left alone and only the check's reducer (keyed, no label
    # rows) lies: it reports a column that took a pivot as one left zero, so
    # the count finds a fiber kernel where the sweep rightly found none
    m = GradedMatrix([(0.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)], {(0, 0): 1, (0, 1): 1})

    class Miscounting(algebra._Reducer):
        def insert(self, col, key=None):
            left = super().insert(col, key)
            if not self.low and key is not None and left is None:
                left = algebra._column((), self.p), key
            return left

    monkeypatch.setattr(algebra, "_Reducer", Miscounting)
    with pytest.raises(
        KernelCheckError,
        match=r"^kernel_basis: kernel rank check failed at grade \(0\.0, 1\.0\): "
        r"0 generators born, fiber kernel has dimension 1$",
    ):
        kernel_basis(m)
    assert kernel_basis(m, verify=False)[0].bars == ((1.0, 1.0),)


def test_kernel_check_reports_the_prefix_counts(monkeypatch):
    # with no rows every column is a generator at its own grade: two at
    # (0, 0) and one at (0, 1).  The sweep drops the one at (0, 1), a row
    # above the other two, and the message gives the counts of the rows up
    # to it: 2 generators born against a fiber kernel of dimension 3
    m = GradedMatrix([], [(0.0, 0.0), (0.0, 0.0), (0.0, 1.0)], {}, dim=2)

    class Lossy(algebra._Reducer):
        def insert(self, col, key=None):
            left = super().insert(col, key)
            return None if self.low and key == 2 else left

    monkeypatch.setattr(algebra, "_Reducer", Lossy)
    with pytest.raises(
        KernelCheckError,
        match=r"^kernel_basis: kernel rank check failed at grade \(0\.0, 1\.0\): "
        r"2 generators born, fiber kernel has dimension 3$",
    ):
        kernel_basis(m)
    assert kernel_basis(m, verify=False)[0].bars == ((0.0, 0.0), (0.0, 0.0))


FAULTS = ["zero", "off the kernel", "duplicate", "lower"]
# the check that refuses each mutant of faulty_reducer on THREE_AND_ONE
FAULT_MESSAGE = {
    "zero": r"\(1\.0, 1\.0\) is zero",
    "off the kernel": r"\(1\.0, 1\.0\) does not send the columns to zero",
    "duplicate": r"\(1\.0, 1\.0\) depends linearly on the generators before it",
    "lower": r"\(2\.0, 2\.0\) is not the join of the grades of its columns",
}


def faulty_reducer(fault, handed):
    """A ``_Reducer`` whose tracked sweeps (label rows set, keyed columns)
    hand on a wrong kernel vector, as ``fault`` says; ``handed`` collects
    the right ones.  The grades and the count of the vectors stay right."""

    def mutant(comb):
        return {
            "zero": 0,
            "off the kernel": comb ^ 1,
            "duplicate": handed[0],
            "lower": handed[0] if len(handed) % 3 == 0 else comb,
        }[fault]

    class Faulty(algebra._Reducer):
        def insert(self, col, key=None):
            left = super().insert(col, key)
            if self.low and key is not None and left is not None:  # a vector the sweep hands on
                handed.append(left[0])
                left = mutant(left[0]), left[1]
            return left

    return Faulty


# three equal columns at (1, 1) and a fourth at (2, 2): the sweep hands on
# two kernel vectors at (1, 1) and one at (2, 2)
THREE_AND_ONE = GradedMatrix(
    [(0.0, 0.0)], [(1.0, 1.0)] * 3 + [(2.0, 2.0)], {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1}
)
# a vertex at (0, 0), three edges at (1, 1) and one at (2, 2), each on the
# vertex alone: no local pair, so its chunked degree-1 boundary is THREE_AND_ONE
THREE_AND_ONE_EDGES = Bifiltration(
    [Cell(0, (0.0, 0.0), ())] + [Cell(1, g, ((0, 1),)) for g in THREE_AND_ONE.col_grades]
)
# one generator and relations at (1, 0) and (0, 1): one degree-2 bar, at (1, 1)
CORNER = Presentation.from_relations([(0.0, 0.0)], [((1.0, 0.0), {0: 1}), ((0.0, 1.0), {0: 1})])


@pytest.mark.parametrize("fault", FAULTS)
def test_kernel_check_certifies_each_vector(monkeypatch, fault):
    # each mutant leaves the count of generators at every grid point right,
    # so it is refused by the check of the vectors themselves: a zero
    # vector, one off the kernel, the first vector again, or the first in
    # place of the last
    m = THREE_AND_ONE
    _, good = kernel_basis(m)
    handed = []
    monkeypatch.setattr(algebra, "_Reducer", faulty_reducer(fault, handed))
    message = r"^kernel_basis: generator born at grade %s$" % FAULT_MESSAGE[fault]
    with pytest.raises(KernelCheckError, match=message):
        kernel_basis(m)
    _, bad = kernel_basis(m, verify=False)
    assert len(handed) == 6 and bad != good


def test_kernel_check_refuses_a_zero_vector_over_an_odd_field(monkeypatch):
    # over F_3 each vector is scaled to 1 on the column that found it; a
    # vector with no entry there is refused by the check, not by the scaling
    m = GradedMatrix(
        [(0.0, 0.0)], [(1.0, 1.0)] * 3 + [(2.0, 2.0)], {(0, 0): 1, (0, 1): 2, (0, 2): 1, (0, 3): 1}, field=3
    )
    assert kernel_basis(m)[0].bars == ((1.0, 1.0), (1.0, 1.0), (2.0, 2.0))

    class Faulty(algebra._Reducer):
        def insert(self, col, key=None):
            left = super().insert(col, key)
            return ({}, left[1]) if self.low and left is not None else left

    monkeypatch.setattr(algebra, "_Reducer", Faulty)
    with pytest.raises(KernelCheckError, match=r"^kernel_basis: generator born at grade \(1\.0, 1\.0\) is zero$"):
        kernel_basis(m)


def betti_corpus():
    """Two-parameter presentations with degree-2 bars, and without."""
    from test_cli import lower_star_square

    rng = SplitMix64(71)
    mats = [THREE_AND_ONE] + [random_graded_matrix(rng, p, 2) for p in (2, 3) for _ in range(20)]
    corpus = [CORNER, chain_to_presentation(lower_star_square(20240, 5, 50), 0)]
    corpus += [Presentation(m.row_grades, m) for m in mats]
    assert sum(len(betti(p).by_degree[2]) for p in corpus) > 10
    return corpus


def test_betti_builds_no_matrix_or_presentation(monkeypatch):
    # betti reads the grades of what minimization keeps straight from its
    # passes; only minimize_presentation builds a matrix of them
    corpus = betti_corpus()
    built = []
    for cls in (GradedMatrix, Presentation):
        trusted = cls._trusted.__func__
        counting = classmethod(lambda c, *values, f=trusted: built.append(c) or f(c, *values))
        monkeypatch.setattr(cls, "_trusted", counting)
    for pres in corpus:
        betti(pres)
    assert built == []
    for pres in corpus:
        minimize_presentation(pres)
    assert built.count(GradedMatrix) == built.count(Presentation) == len(corpus)


def test_betti_stacks_no_label_rows(monkeypatch):
    # betti needs the grades of the kernel, not its vectors: its sweep runs
    # untracked, so no reducer it makes has label rows, while kernel_basis
    # still stacks one per column, and one per vector where it checks them
    corpus = betti_corpus()
    lows = []

    class Recording(algebra._Reducer):
        def __init__(self, p, low=0):
            super().__init__(p, low)
            lows.append(low)

    monkeypatch.setattr(algebra, "_Reducer", Recording)
    for pres in corpus:
        betti(pres)
    assert lows and not any(lows)
    kernel_basis(corpus[0].rels)
    assert lows[-3:] == [2, 0, 1]  # the tracked sweep, its rank count, the vectors' check


@pytest.mark.parametrize("fault", FAULTS)
def test_a_wrong_kernel_vector_leaves_betti_as_it_is(monkeypatch, fault):
    # a mutant that corrupts only the vectors the tracked sweep hands on
    # cannot reach betti, which builds none, and is still refused by
    # kernel_basis, which returns them
    corpus = betti_corpus()
    want = [betti(pres) for pres in corpus]
    monkeypatch.setattr(algebra, "_Reducer", faulty_reducer(fault, []))
    assert [betti(pres) for pres in corpus] == want
    with pytest.raises(KernelCheckError, match=r"^kernel_basis: generator born at grade "):
        kernel_basis(THREE_AND_ONE)


def test_betti_refuses_a_lost_kernel_grade(monkeypatch):
    # guard: the rank count still gates betti's degree 2.  The first reducer
    # to take a keyed column is the sweep's, the count's comes after it;
    # when the sweep's reports the column that turns zero at (1, 1) as one
    # that kept a pivot, that grade goes missing and betti is refused there
    assert betti(CORNER).by_degree[2].bars == ((1.0, 1.0),)
    sweep = []

    class Lossy(algebra._Reducer):
        def insert(self, col, key=None):
            left = super().insert(col, key)
            if key is not None and not sweep:
                sweep.append(self)
            return None if sweep and sweep[0] is self else left

    monkeypatch.setattr(algebra, "_Reducer", Lossy)
    with pytest.raises(
        KernelCheckError,
        match=r"^betti: kernel rank check failed at grade \(1\.0, 1\.0\): "
        r"0 generators born, fiber kernel has dimension 1$",
    ):
        betti(CORNER)


def test_kernel_one_param():
    m = GradedMatrix([(0.0,)], [(1.0,), (2.0,)], {(0, 0): 1, (0, 1): 1})
    bars, inc = kernel_basis(m)
    assert bars.bars == ((2.0,),)


def test_kernel_rejects_high_dimension():
    m = GradedMatrix([(0.0, 0.0, 0.0)], [(1.0, 1.0, 1.0)], {(0, 0): 1})
    with pytest.raises(UnsupportedDimension):
        kernel_basis(m)


def test_three_parameter_betti_and_homology_refused():
    pres = Presentation.from_relations([(0.0, 0.0, 0.0)], [((1.0, 1.0, 1.0), {0: 1})])
    message = r"^Betti barcodes support 1 or 2 parameters, got 3$"
    with pytest.raises(UnsupportedDimension, match=message):
        betti(pres)
    # a filled triangle graded in three parameters
    bif = Bifiltration(
        [
            Cell(0, (0.0, 0.0, 0.0), ()),
            Cell(0, (1.0, 0.0, 0.0), ()),
            Cell(0, (0.0, 1.0, 0.0), ()),
            Cell(1, (1.0, 1.0, 0.0), ((0, 1), (1, 1))),
            Cell(1, (0.0, 1.0, 1.0), ((0, 1), (2, 1))),
            Cell(1, (1.0, 1.0, 1.0), ((1, 1), (2, 1))),
            Cell(2, (2.0, 2.0, 2.0), ((3, 1), (4, 1), (5, 1))),
        ]
    )
    chain = ChainPair(f=bif.boundary_matrix(2), g=bif.boundary_matrix(1))
    message = r"^kernel computation supports 1 or 2 parameters, got 3$"
    with pytest.raises(UnsupportedDimension, match=message):
        homology_presentation(chain)
    for degree in (0, 1, 2):
        with pytest.raises(UnsupportedDimension, match=message):
            chain_to_presentation(bif, degree)


def test_three_parameter_minimization_accepted():
    # a local pair (generator 1, relation 0) and a dependent relation (2)
    # leave; the rest is the module F(0, 0, 0) / F(2, 2, 2)
    top = (2.0, 2.0, 2.0)
    pres = Presentation.from_relations(
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
        [((1.0, 0.0, 0.0), {1: 1}), (top, {0: 1}), (top, {0: 1, 1: 1})],
    )
    mini = minimize_presentation(pres)
    assert mini.gens == ((0.0, 0.0, 0.0),)
    assert mini.rels.col_grades == (top,) and mini.rels.entries == {(0, 0): 1}


@pytest.mark.parametrize("p", [2, 3])
def test_three_parameter_minimization_against_dense_oracle(p):
    # in three parameters each row of the sweep starts a fresh reducer; by
    # dense elimination, the minimized module is the same at every point of
    # the grid of grade coordinates, no entry joins a generator and a
    # relation of one grade, and no relation is in the span of the others at
    # or below its grade
    rng = SplitMix64(73)
    changed = 0
    for _ in range(150):
        m = random_graded_matrix(rng, p, 3)
        pres = Presentation(m.row_grades, m)
        mini = minimize_presentation(pres)
        grades = pres.gens + m.col_grades
        for x in itertools.product(*(sorted({g[a] for g in grades}) for a in range(3))):
            assert pointwise_dim(mini, x) == pointwise_dim(pres, x)
        rels, n = mini.rels, len(mini.gens)
        assert all(mini.gens[i] != rels.col_grades[j] for i, j in rels.entries)
        cols = rels.columns()
        for j, g in enumerate(rels.col_grades):
            others = [c for k, c in enumerate(cols) if k != j and leq(rels.col_grades[k], g)]
            assert dense_rank(others + [cols[j]], n, p) > dense_rank(others, n, p)
        changed += mini != pres
    assert changed > 100


# ---------------------------------------------------------------------------
# betti


def test_betti_of_free_module():
    res = betti(gen_free((2.0, 1.0)))
    assert res.by_degree[0].bars == ((2.0, 1.0),)
    assert res.by_degree[1].bars == ()
    assert res.by_degree[2].bars == ()
    assert res.signed.positive.bars == ((2.0, 1.0),)
    assert res.signed.negative.bars == ()


def test_betti_of_hook():
    res = betti(gen_hook((0.0, 0.0), (1.0, 1.0)))
    assert res.signed.positive.bars == ((0.0, 0.0),)
    assert res.signed.negative.bars == ((1.0, 1.0),)


def test_betti_of_staircase_two():
    res = betti(gen_staircase(2))
    assert res.by_degree[0].bars == ((0.0, 1.0), (0.5, 0.5), (1.0, 0.0))
    assert res.by_degree[1].bars == ((0.5, 1.0), (1.0, 0.5))
    assert res.by_degree[2].bars == ()


def test_betti_degrees_above_dimension_empty():
    rng = SplitMix64(41)
    for trial in range(60):
        p = gen_random(7000 + trial, 1 + rng.below(6), rng.below(7), 5)
        res = betti(p)
        assert len(res.by_degree) == 3
        # third syzygies of the minimized presentation vanish
        mini = minimize_presentation(p)
        k2, inc = kernel_basis(mini.rels)
        k3, _ = kernel_basis(inc)
        assert k3.bars == ()


def test_betti_one_param():
    p = Presentation.from_relations([(0.0,)], [((2.0,), {0: 1})])
    res = betti(p)
    assert res.by_degree[0].bars == ((0.0,),)
    assert res.by_degree[1].bars == ((2.0,),)
    assert len(res.by_degree) == 2


def test_betti_signed_is_even_odd_split():
    rng = SplitMix64(43)
    for trial in range(40):
        p = gen_random(7500 + trial, 1 + rng.below(6), rng.below(7), 5)
        res = betti(p)
        b0, b1, b2 = res.by_degree
        assert sorted(res.signed.positive.bars) == sorted(b0.bars + b2.bars)
        assert res.signed.negative.bars == b1.bars


def test_sweep_enters_a_dependent_column_once(monkeypatch):
    # one reducer lasts the whole sweep and each grid row inserts only the
    # columns born in it, so every column goes in exactly once, under its
    # key; a sweep that starts afresh in each row enters a column again in
    # every row above its own, about C * rows / 2 inserts in all.  The rank
    # check's one keyed reducer (no label rows) takes each column once too,
    # under key row * C + column, where one fresh reducer per x index
    # entered a column again at every x index right of its own
    from test_cli import lower_star_square

    keys, checked = [], []

    class Counting(algebra._Reducer):
        def insert(self, col, key=None):
            if key is not None:  # the check of the vectors takes no key
                (keys if self.low else checked).append(key)
            return super().insert(col, key)

    monkeypatch.setattr(algebra, "_Reducer", Counting)
    # with no rows every column is zero, so each is dependent in its own row
    C = 12
    m = GradedMatrix([], [(float(C - k), float(k)) for k in range(C)], {}, dim=2)
    bars, _ = kernel_basis(m)
    assert bars.bars == tuple(sorted(m.col_grades))
    assert sorted(keys) == list(range(C))
    assert sorted(key % C for key in checked) == list(range(C))
    # the chunked degree-1 boundary of a 14 x 14 grid at 1000 levels
    g = lower_star_square(7, 14, 1000)._chunked(1)[0]
    assert (g.num_cols, len({c[1] for c in g.col_grades})) == (140, 107)
    keys.clear()
    checked.clear()
    kernel_basis(g)
    assert sorted(keys) == list(range(140))
    assert sorted(key % 140 for key in checked) == list(range(140))


def test_betti_agrees_with_minimizing_then_sweeping_the_kernel():
    # betti reads degrees 1 and 2 from one sweep over the columns left by
    # the local pairs, and degree 0 from the rows those pairs leave; the
    # route it replaced minimized, then took the kernel of the minimized
    # relations in a second sweep
    from test_cli import lower_star_square, random_presentation

    rng = SplitMix64(31)
    corpus = [gen_random(5000 + t, 1 + rng.below(6), rng.below(7), 5) for t in range(120)]
    rng = SplitMix64(97)
    corpus += [random_presentation(rng, p, dim) for p in (3, 5) for dim in (1, 2) for _ in range(40)]
    for field in (2, 3):
        bif = lower_star_square(20240, 5, 50, field=field)
        corpus += [chain_to_presentation(bif, d) for d in (0, 1)]
    b2 = 0
    for p in corpus:
        mini = minimize_presentation(p)
        want = [tuple(sorted(mini.rels.col_grades)), kernel_basis(mini.rels)[0].bars]
        by_degree = betti(p).by_degree
        assert by_degree[0].bars == tuple(sorted(mini.gens))
        assert [b.bars for b in by_degree[1:]] == want[: p.dim]
        b2 += len(want[1])
    assert b2 >= 10


# ---------------------------------------------------------------------------
# homology_presentation and chain pairs


def test_matmul_output_pinned_over_odd_fields():
    # products with coefficients other than 1, where terms cancel mod p
    digest = hashlib.sha256()
    rng = SplitMix64(67)
    for p in (3, 5):
        for dim in (1, 2):
            for _ in range(60):
                z, y, x = (
                    [tuple(float(rng.below(4)) for _ in range(dim)) for _ in range(1 + rng.below(k))]
                    for k in (6, 9, 7)
                )
                a = graded_matrix_over(rng, p, z, y, dim)
                prod = a.matmul(graded_matrix_over(rng, p, y, x, dim))
                digest.update(repr((prod.row_grades, prod.col_grades, sorted(prod.entries.items()))).encode())
    assert digest.hexdigest() == "4fa6e6ee7d8c803cfdd095c3d74bb55765e678b9b35dcd437ef5fd35ed0fc5b6"


@pytest.mark.parametrize("p", [3, 5])
def test_homology_output_pinned_over_odd_fields(p):
    # signed boundaries of an oriented grid: the relations carry
    # coefficients other than 1 and the kernel generators are normalized
    from test_cli import lower_star_square

    bif = lower_star_square(20242, 5, 6, field=p)
    digest = hashlib.sha256()
    for degree in (0, 1):
        chain = ChainPair(f=bif.boundary_matrix(degree + 1), g=bif.boundary_matrix(degree))
        digest.update(serialize_presentation(homology_presentation(chain)).encode())
    assert digest.hexdigest() == {
        3: "a517b168d2e766ba797989e30588c0a094e003b99049e47a5fae040a739cc94e",
        5: "dad03da0f02422b37bcb718eefe05b62653204e300c4dcc0de440676fcb60e65",
    }[p]


def test_chain_pair_requires_zero_composite():
    f = GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 0): 1})
    g = GradedMatrix([(0.0, 0.0)], [(0.0, 0.0)], {(0, 0): 1})
    with pytest.raises(ValueError):
        ChainPair(f=f, g=g)


def test_homology_with_zero_upper_map():
    # g = 0: homology is presented by f itself
    f = GradedMatrix([(0.0, 0.0), (1.0, 0.0)], [(1.0, 1.0)], {(0, 0): 1, (1, 0): 1})
    g = GradedMatrix([], [(0.0, 0.0), (1.0, 0.0)], {}, dim=2)
    pres = homology_presentation(ChainPair(f=f, g=g))
    assert sorted(pres.gens) == [(0.0, 0.0), (1.0, 0.0)]
    assert pres.rels.col_grades == ((1.0, 1.0),)


def test_homology_zero_module():
    # f = 0 into an injective g: no homology
    g = GradedMatrix([(0.0, 0.0)], [(1.0, 1.0)], {(0, 0): 1})
    f = GradedMatrix([(1.0, 1.0)], [], {}, dim=2)
    pres = homology_presentation(ChainPair(f=f, g=g))
    assert pres.num_gens == 0
    assert betti(pres).signed.positive.bars == ()


def test_homology_of_staged_cycle():
    # three vertices at the origin, edges at (1,0), (0,1), (1,1): the
    # cycle appears once all edges are present
    verts = [(0.0, 0.0)] * 3
    g = GradedMatrix(
        verts,
        [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1, (0, 2): 1, (2, 2): 1},
    )
    f = GradedMatrix([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], [], {}, dim=2)
    pres = homology_presentation(ChainPair(f=f, g=g))
    res = betti(pres)
    assert res.by_degree[0].bars == ((1.0, 1.0),)
    assert res.by_degree[1].bars == ()


def _triangle_with_kernel(gens):
    # a triangle's boundary pair, with _kernel_basis replaced by one that
    # returns the given (grade, column) generators of g's kernel: their
    # inclusion matrix over F_2 and the reducer holding column k over label
    # row k, unchecked
    g = GradedMatrix(
        [(0.0, 0.0)] * 3,
        [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1, (0, 2): 1, (2, 2): 1},
    )
    f = GradedMatrix(g.col_grades, [(2.0, 2.0)], {(0, 0): 1, (1, 0): 1, (2, 0): 1})
    entries = {(i, k): v for k, (_, col) in enumerate(gens) for i, v in col.items()}
    inc = GradedMatrix(g.col_grades, [grade for grade, _ in gens], entries)
    span = algebra._Reducer(2, len(gens))
    for k, col in enumerate(inc.cols):
        span.insert(algebra._shift(col, len(gens), 2, k))
    return ChainPair(f=f, g=g), lambda m: (inc, span)


def test_homology_error_names_stage_column_and_grade(monkeypatch):
    # with a kernel that lost its generator, the boundary of the triangle
    # cannot be written in the kernel basis
    chain, kernel = _triangle_with_kernel([])
    monkeypatch.setattr(algebra, "_kernel_basis", kernel)
    with pytest.raises(RuntimeError, match=r"homology_presentation: column 0 .*\(2\.0, 2\.0\)"):
        homology_presentation(chain)


def test_homology_error_when_generator_is_born_too_late(monkeypatch):
    # the cycle spans f's column, but only from grade (3, 3) on, above the
    # column's grade (2, 2)
    chain, kernel = _triangle_with_kernel([((3.0, 3.0), {0: 1, 1: 1, 2: 1})])
    monkeypatch.setattr(algebra, "_kernel_basis", kernel)
    with pytest.raises(RuntimeError, match=r"homology_presentation: column 0 .*\(2\.0, 2\.0\)"):
        homology_presentation(chain)


def test_homology_error_when_generators_are_dependent(monkeypatch):
    # the solve writes f's column in the reducer _kernel_basis hands on; a
    # dependent generator never reaches it, as _kernel_basis refuses it
    # first (test_homology_route_refuses_each_wrong_kernel_vector)
    cycle = ((1.0, 1.0), {0: 1, 1: 1, 2: 1})
    chain, kernel = _triangle_with_kernel([cycle])
    monkeypatch.setattr(algebra, "_kernel_basis", kernel)
    assert homology_presentation(chain).rels.entries == {(0, 0): 1}


@pytest.mark.parametrize("fault", FAULTS)
def test_homology_route_refuses_each_wrong_kernel_vector(monkeypatch, fault):
    # the homology solve makes no reducer of its own: it reads the one
    # _kernel_basis certified the vectors in, so both routes into it refuse
    # every mutant there, with kernel_basis's message.  On
    # lower_star_square(20240, 5, 50) the duplicate is refused by the join
    # check instead; here it reaches the independence check
    bif = THREE_AND_ONE_EDGES
    assert bif._chunked(1)[0] == THREE_AND_ONE
    chain = ChainPair(f=bif._chunked(2)[0], g=THREE_AND_ONE)
    message = r"^kernel_basis: generator born at grade %s$" % FAULT_MESSAGE[fault]
    for route in (lambda: homology_presentation(chain), lambda: chain_to_presentation(bif, 1)):
        with monkeypatch.context() as patched, pytest.raises(KernelCheckError, match=message):
            patched.setattr(algebra, "_Reducer", faulty_reducer(fault, []))
            route()


def test_ingest_inserts_each_kernel_vector_once_outside_the_sweep(monkeypatch):
    # independence is certified once, in the reducer the homology solve
    # then reads: besides the sweep and its rank count, whose columns carry
    # keys, chain_to_presentation inserts each kernel vector once, over
    # its own label row
    from test_cli import lower_star_square

    bifs = [lower_star_square(20240, 5, 50), lower_star_square(20242, 5, 6, field=3), THREE_AND_ONE_EDGES]
    inserted = []

    class Recording(algebra._Reducer):
        def insert(self, col, key=None):
            if key is None:
                inserted.append((self.low, col))
            return super().insert(col, key)

    monkeypatch.setattr(algebra, "_Reducer", Recording)
    gens = 0
    for bif in bifs:
        for degree in (0, 1):
            inserted.clear()
            n = chain_to_presentation(bif, degree).num_gens
            assert [low for low, _ in inserted] == [n] * n
            labels = [sorted((r, v) for r, v in algebra._items(col) if r < n) for _, col in inserted]
            assert labels == [[(k, 1)] for k in range(n)]
            gens += n
    assert gens > 20


def test_ingest_route_matches_dense_homology_oracle():
    # an oracle on the complex itself, sharing no code with the chunk
    # reduction, the kernel sweep or the homology solve: at each grid point
    # x, dim H_d(K_x) = #(d-cells <= x) - rank d_d|<=x - rank d_{d+1}|<=x,
    # each rank by dense elimination over the unchunked cells
    from test_cli import lower_star_square

    checks = cycles = 0
    for field in (2, 3):
        for seed in range(6):
            bif = lower_star_square(seed, 5, 6, field)
            cells = bif.cells
            at, count = {}, [0] * 3  # cell -> its index among the cells of its dimension
            for k, cell in enumerate(cells):
                at[k] = count[cell.dim]
                count[cell.dim] += 1
            pres = [chain_to_presentation(bif, degree) for degree in (0, 1)]
            for x in sorted({c.grade[0] for c in cells}):
                for y in sorted({c.grade[1] for c in cells}):
                    born = [c for c in cells if c.grade[0] <= x and c.grade[1] <= y]
                    rank = [0] * 4  # rank[d]: of the boundary of the d-cells born by (x, y)
                    for d in (1, 2):
                        cols = [{at[i]: v for i, v in c.boundary} for c in born if c.dim == d]
                        rank[d] = dense_rank(cols, count[d - 1], field)
                    for degree in (0, 1):
                        want = sum(1 for c in born if c.dim == degree) - rank[degree] - rank[degree + 1]
                        assert pointwise_dim(pres[degree], (x, y)) == want
                        checks += 1
                        cycles += degree * want
    assert checks == 840 and cycles > 0


def _padded_triangle():
    # the triangle of _triangle_with_kernel as a bifiltration, after a
    # vertex and an edge both born at (5, 5); chunk reduction removes that
    # local pair, so the triangle's edges, cells 5-7, are chunked columns
    # 0-2 of d_1 and its face, cell 8, is column 0 of d_2
    v = Cell(0, (0.0, 0.0), ())
    return Bifiltration(
        [
            v, v, v,
            Cell(0, (5.0, 5.0), ()),
            Cell(1, (5.0, 5.0), ((0, 1), (3, 1))),
            Cell(1, (1.0, 0.0), ((0, 1), (1, 1))),
            Cell(1, (0.0, 1.0), ((1, 1), (2, 1))),
            Cell(1, (1.0, 1.0), ((0, 1), (2, 1))),
            Cell(2, (2.0, 2.0), ((5, 1), (6, 1), (7, 1))),
        ]
    )


def test_ingest_errors_name_input_cells(monkeypatch):
    # on the chunked complex a column index points at nothing in the
    # input, so the errors reached from chain_to_presentation name cells
    bif = _padded_triangle()
    assert bif._chunked(1)[1] == (5, 6, 7) and bif._chunked(2)[1] == (8,)
    _, kernel = _triangle_with_kernel([])
    monkeypatch.setattr(algebra, "_kernel_basis", kernel)
    with pytest.raises(
        RuntimeError,
        match=r"homology_presentation: the boundary of cell 8 \(grade \(2\.0, 2\.0\)\) is not",
    ):
        chain_to_presentation(bif, 1)


def test_homology_matches_rank_oracle():
    rng = SplitMix64(47)
    for trial in range(60):
        # random valid chain pair: start from a random presentation,
        # use its relation matrix as g's input and a zero f
        p = gen_random(8000 + trial, 1 + rng.below(5), rng.below(6), 4)
        g = p.rels
        f = GradedMatrix(g.col_grades, [], {}, field=g.field, dim=2)
        pres = homology_presentation(ChainPair(f=f, g=g))
        bars, _ = kernel_basis(g)
        assert sorted(pres.gens) == sorted(bars.bars)


# ---------------------------------------------------------------------------
# pointwise_dim


def dense_rank(cols, nrows, p):
    """Rank over F_p of sparse columns (dicts row -> coeff) by elimination
    on dense lists: an oracle that shares no code with the library's
    column reducer or its column encodings."""
    pivots = []  # (row, column with a 1 there and 0 at every earlier pivot row)
    for col in cols:
        v = [0] * nrows
        for r, c in col.items():
            v[r] = c % p
        for r, w in pivots:
            f = v[r]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, w)]
        for r, a in enumerate(v):
            if a:
                inv = pow(a, p - 2, p)
                pivots.append((r, [b * inv % p for b in v]))
                break
    return len(pivots)


def tall_graded_matrix(rng, p, nrows, ncols):
    """Grade-valid matrix over F_p with grades on {0..3}^2; every third
    column is a combination of two earlier ones, at or above their join,
    so the fibers have kernels."""

    def grade():
        return (float(rng.below(4)), float(rng.below(4)))

    rows = [grade() for _ in range(nrows)]
    cols, grades = [], []
    for j in range(ncols):
        if j % 3 == 2:
            a, b = rng.below(j), rng.below(j)
            g = tuple(max(cs) for cs in zip(grades[a], grades[b], grade()))
            ca, cb = 1 + rng.below(p - 1), 1 + rng.below(p - 1)
            col = {i: ca * v for i, v in cols[a].items()}
            for i, v in cols[b].items():
                col[i] = col.get(i, 0) + cb * v
        else:
            g = grade()
            col = {
                i: 1 + rng.below(p - 1)
                for i, r in enumerate(rows)
                if r[0] <= g[0] and r[1] <= g[1] and not rng.below(max(2, nrows // 40))
            }
        cols.append(col)
        grades.append(g)
    entries = {(i, j): v for j, col in enumerate(cols) for i, v in col.items()}
    return GradedMatrix(rows, grades, entries, field=p, dim=2)


def assert_ranks_match_dense_oracle(m):
    """At every point of the grid of column grades, pointwise_dim and the
    count of kernel generators born at or below the point agree with the
    dense rank of the columns born there."""
    bars, _ = kernel_basis(m)
    pres = Presentation(m.row_grades, m)
    cols = [{} for _ in m.col_grades]
    for (i, j), v in m.entries.items():
        cols[j][i] = v
    for x in sorted({c[0] for c in m.col_grades}):
        for y in sorted({c[1] for c in m.col_grades}):
            below = [cols[j] for j, c in enumerate(m.col_grades) if c[0] <= x and c[1] <= y]
            rank = dense_rank(below, m.num_rows, m.field)
            rows = sum(1 for r in m.row_grades if r[0] <= x and r[1] <= y)
            assert pointwise_dim(pres, (x, y)) == rows - rank
            assert sum(1 for b in bars if b[0] <= x and b[1] <= y) == len(below) - rank
    return bars


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("nrows, ncols, trials", [(6, 12, 20), (80, 30, 3), (1100, 24, 1)])
def test_ranks_match_dense_oracle_on_random_matrices(p, nrows, ncols, trials):
    # over F_2 columns of more than 64 (and 1000) rows are multi-word ints
    rng = SplitMix64(61 + nrows)
    born = 0
    for _ in range(trials):
        born += len(assert_ranks_match_dense_oracle(tall_graded_matrix(rng, p, nrows, ncols)))
    assert born >= trials


@pytest.mark.parametrize("degree", [1, 2])
def test_ranks_match_dense_oracle_on_lower_star_grid(degree):
    # the boundaries of an ingest-coarse sized grid: 196 x 533 and 533 x 338
    from test_cli import lower_star_square

    m = lower_star_square(20241, 14, 8).boundary_matrix(degree)
    assert m.num_rows > 64 and m.num_cols > 64
    bars = assert_ranks_match_dense_oracle(m)
    # the cycles of the graph are the kernel of d_1; d_2 of a disk is injective
    assert len(bars) > 64 if degree == 1 else not bars


def test_pointwise_dim_hook():
    p = gen_hook((0.0, 0.0), (1.0, 1.0))
    assert pointwise_dim(p, (0.5, 2.0)) == 1
    assert pointwise_dim(p, (1.0, 1.0)) == 0


def test_pointwise_dim_free():
    p = gen_free((0.0, 0.0))
    assert pointwise_dim(p, (0.0, 0.0)) == 1
    assert pointwise_dim(p, (3.0, 7.0)) == 1
    assert pointwise_dim(p, (-1.0, 0.0)) == 0


def test_pointwise_dim_staircase():
    p = gen_staircase(2)
    assert pointwise_dim(p, (0.6, 0.6)) == 1
    assert pointwise_dim(p, (1.0, 1.0)) == 1


def test_hilbert_identity_on_join_grid():
    rng = SplitMix64(53)
    for trial in range(100):
        p = gen_random(9000 + trial, 1 + rng.below(8), rng.below(9), 8)
        signed = betti(p).signed
        for x in grid_points(p):
            assert hilbert_eval(signed, x) == pointwise_dim(p, x)


def test_direct_sum_adds_dimensions():
    a = gen_hook((0.0, 0.0), (1.0, 1.0))
    b = gen_free((2.0, 2.0))
    s = direct_sum(a, b)
    assert pointwise_dim(s, (2.0, 2.0)) == pointwise_dim(a, (2.0, 2.0)) + 1
    assert s.num_gens == 2 and s.num_rels == 1
