"""Text formats: parsing, serialization, round trips, error positions."""

import itertools
import math
import re
from collections import Counter

import pytest

from msb import (
    Barcode,
    ChainPair,
    GradedMatrix,
    ParseError,
    Presentation,
    SignedBarcode,
    SplitMix64,
    betti,
    chain_to_presentation,
    gen_chain,
    gen_free,
    gen_hook,
    gen_one_param_interval,
    gen_random,
    gen_staircase,
    homology_presentation,
    join,
    parse_any,
    parse_bifiltration,
    parse_chain_pair,
    parse_presentation,
    parse_signed_barcode,
    pointwise_dim,
    serialize_bifiltration,
    serialize_chain_pair,
    serialize_presentation,
    serialize_signed_barcode,
)
from msb.algebra import (
    _addmul,
    _colex,
    _column,
    _first_invalid,
    _is_prime,
    _items,
    _local_pairs,
    _require_prime,
)
from msb.io import Bifiltration, Cell, _grade_str, fmt_float, sniff_format


def all_sample_presentations():
    yield gen_free((0.0, 0.0))
    yield gen_hook((0.0, 0.0), (1.0, 1.0))
    yield gen_staircase(2)
    yield gen_staircase(3)
    yield gen_chain(3, 0.5)
    yield gen_one_param_interval(0, 2)
    for seed in range(5):
        yield gen_random(seed, 4, 3, 8)


# ---------------------------------------------------------------------------
# float formatting


def test_fmt_float_integral():
    assert fmt_float(1.0) == "1"
    assert fmt_float(-2.0) == "-2"
    assert fmt_float(0.0) == "0"


def test_fmt_float_shortest_roundtrip():
    assert fmt_float(0.5) == "0.5"
    assert fmt_float(1 / 3) == repr(1 / 3)
    assert float(fmt_float(0.1)) == 0.1


def test_fmt_float_infinite():
    assert fmt_float(math.inf) == "inf"


# ---------------------------------------------------------------------------
# sbarc


def test_sbarc_round_trip_on_generator_outputs():
    for p in all_sample_presentations():
        s = betti(p).signed
        text = serialize_signed_barcode(s)
        back = parse_signed_barcode(text)
        assert back.positive.bars == s.positive.bars
        assert back.negative.bars == s.negative.bars
        # canonical output: serializing again gives identical bytes
        assert serialize_signed_barcode(back) == text


def test_sbarc_empty():
    text = "sbarc 1\nn 2\npositive 0\nnegative 0\n"
    s = parse_signed_barcode(text)
    assert s.positive.bars == () and s.negative.bars == ()
    assert serialize_signed_barcode(s) == text


def test_sbarc_comments_and_whitespace():
    text = "# header\nsbarc 1  # magic\n n 2\npositive 1\n0.5   1 # a bar\nnegative 0\n"
    s = parse_signed_barcode(text)
    assert s.positive.bars == ((0.5, 1.0),)


def test_sbarc_bad_magic_position():
    with pytest.raises(ParseError) as err:
        parse_signed_barcode("sbrc 1\nn 2\npositive 0\nnegative 0\n")
    assert "line 1, column 1" in str(err.value)


def test_sbarc_bad_version():
    with pytest.raises(ParseError) as err:
        parse_signed_barcode("sbarc 2\nn 2\npositive 0\nnegative 0\n")
    assert "version" in str(err.value)
    assert err.value.line == 1


def test_sbarc_non_numeric_token_position():
    with pytest.raises(ParseError) as err:
        parse_signed_barcode("sbarc 1\nn 2\npositive 1\n0.5 oops\nnegative 0\n")
    assert err.value.line == 4
    assert err.value.column == 5


def test_sbarc_truncated_input():
    with pytest.raises(ParseError) as err:
        parse_signed_barcode("sbarc 1\nn 2\npositive 2\n0 0\n")
    assert "end of input" in str(err.value)


def test_sbarc_trailing_garbage():
    with pytest.raises(ParseError) as err:
        parse_signed_barcode("sbarc 1\nn 2\npositive 0\nnegative 0\nextra\n")
    assert "trailing" in str(err.value)
    assert err.value.line == 5


# ---------------------------------------------------------------------------
# mpres


def test_mpres_round_trip_on_generator_outputs():
    for p in all_sample_presentations():
        text = serialize_presentation(p)
        back = parse_presentation(text)
        assert back.gens == p.gens
        assert back.rels.col_grades == p.rels.col_grades
        assert back.rels.entries == p.rels.entries
        assert back.field == p.field
        assert serialize_presentation(back) == text


def test_mpres_odd_field():
    p = gen_staircase(2, field=5)
    text = serialize_presentation(p)
    assert "field 5" in text
    back = parse_presentation(text)
    assert back.field == 5
    assert back.rels.entries == p.rels.entries


def test_mpres_validity_error_names_entry_with_position():
    text = "mpres 1\nfield 2\nn 2\ngens 1\n1 1\nrels 1\n0 0 1 0:1\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    msg = str(err.value)
    assert "relation 0" in msg and "generator 0" in msg
    assert "(0, 0)" in msg and "(1, 1)" in msg
    assert err.value.line == 7


def test_mpres_coefficient_range():
    text = "mpres 1\nfield 2\nn 2\ngens 1\n0 0\nrels 1\n1 1 1 0:2\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert "coefficient" in str(err.value)


def test_mpres_row_index_range():
    text = "mpres 1\nfield 2\nn 2\ngens 1\n0 0\nrels 1\n1 1 1 3:1\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert "out of range" in str(err.value)


def test_mpres_wrong_field_token():
    with pytest.raises(ParseError) as err:
        parse_presentation("mpres 1\nfield x\nn 2\ngens 0\nrels 0\n")
    assert err.value.line == 2


def test_mpres_composite_field_rejected():
    with pytest.raises(ParseError):
        parse_presentation("mpres 1\nfield 6\nn 2\ngens 0\nrels 0\n")


def test_mpres_grade_order_scanned_once(monkeypatch):
    # the reader's positioned check is the one scan of grade validity; the
    # matrix and presentation are then frozen as read, unchecked
    from msb import algebra, io

    calls, first_invalid = [], algebra._first_invalid

    def spy(m):
        calls.append(m)
        return first_invalid(m)

    monkeypatch.setattr(algebra, "_first_invalid", spy)
    monkeypatch.setattr(io, "_first_invalid", spy)
    for p in all_sample_presentations():
        calls.clear()
        back = parse_presentation(serialize_presentation(p))
        assert calls == [back.rels]


# ---------------------------------------------------------------------------
# mchain


def test_mchain_round_trip():
    g = GradedMatrix(
        [(0.0, 0.0)] * 3,
        [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1, (0, 2): 1, (2, 2): 1},
    )
    f = GradedMatrix([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], [], {}, dim=2)
    pair = ChainPair(f=f, g=g)
    text = serialize_chain_pair(pair)
    back = parse_chain_pair(text)
    assert back.g.row_grades == pair.g.row_grades
    assert back.g.entries == pair.g.entries
    assert back.f.col_grades == pair.f.col_grades
    assert serialize_chain_pair(back) == text


def test_mchain_rejects_nonzero_composite():
    text = (
        "mchain 1\nfield 2\nn 2\n"
        "Z 1\n0 0\n"
        "Y 1\n1 1 1 0:1\n"
        "X 1\n2 2 1 0:1\n"
    )
    with pytest.raises(ParseError):
        parse_chain_pair(text)


@pytest.mark.parametrize(
    "blocks, line, names",
    [
        # Z at (1,1), a Y column at (0,0) holding row 0
        ("Z 1\n1 1\nY 1\n0 0 1 0:1\nX 0\n", 7, ("Y column 0", "Z generator 0")),
        # an X column at (0,0) on the Y column at (1,1)
        ("Z 0\nY 2\n0 0 0\n1 1 0\nX 1\n0 0 1 1:1\n", 9, ("X column 0", "Y column 1")),
    ],
    ids=["Y", "X"],
)
def test_mchain_grade_order_error_names_column_and_line(blocks, line, names):
    with pytest.raises(ParseError) as err:
        parse_chain_pair("mchain 1\nfield 2\nn 2\n" + blocks)
    assert err.value.line == line and err.value.column == 1
    msg = str(err.value)
    assert all(name in msg for name in names)
    assert "(0, 0)" in msg and "(1, 1)" in msg and "not below it" in msg


# ---------------------------------------------------------------------------
# mbif


def hollow_triangle(edge_grades, fill=None):
    cells = [Cell(0, (0.0, 0.0), ()) for _ in range(3)]
    pairs = [(0, 1), (1, 2), (0, 2)]
    for grade, (u, v) in zip(edge_grades, pairs):
        cells.append(Cell(1, grade, ((u, 1), (v, 1))))
    if fill is not None:
        cells.append(Cell(2, fill, ((3, 1), (4, 1), (5, 1))))
    return Bifiltration(cells, 2)


def test_mbif_round_trip():
    bif = hollow_triangle([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    text = serialize_bifiltration(bif)
    back = parse_bifiltration(text)
    assert back == bif
    assert serialize_bifiltration(back) == text


def test_mbif_rejects_forward_reference():
    text = "mbif 1\nfield 2\nn 2\ncells 1\n1 0 0 2 0:1 1:1\n"
    with pytest.raises(ParseError):
        parse_bifiltration(text)


def test_mbif_rejects_nonmonotone_grades():
    cells = [
        Cell(0, (1.0, 1.0), ()),
        Cell(0, (0.0, 0.0), ()),
        Cell(1, (0.0, 0.0), ((0, 1), (1, 1))),
    ]
    with pytest.raises(ValueError):
        Bifiltration(cells, 2)


def test_mbif_rejects_bad_face_dimension():
    cells = [Cell(0, (0.0, 0.0), ()), Cell(2, (1.0, 1.0), ((0, 1),))]
    with pytest.raises(ValueError):
        Bifiltration(cells, 2)


def test_bifiltration_takes_only_integers():
    # a coefficient of 2.5 is not kept as is, nor truncated to 2
    vertex = Cell(0, (0.0, 0.0), ())
    for dim, boundary in ((1, ((0, 2.5), (1, 1))), (1, ((0.0, 2), (1, 1))), (1.0, ((0, 2), (1, 1)))):
        with pytest.raises(TypeError):
            Bifiltration([vertex, vertex, Cell(dim, (1.0, 1.0), boundary)], 3)
    with pytest.raises(TypeError):
        Bifiltration([vertex, vertex, Cell(1, (1.0, 1.0), ((0, 2), (1, 1)))], 3.0)
    bif = Bifiltration([vertex, vertex, Cell(1, (1.0, 1.0), ((0, -1), (1, 1)))], 3)
    assert bif.cells[2].boundary == ((0, 2), (1, 1))
    assert chain_to_presentation(bif, 0).rels.entries == {(0, 0): 2, (1, 0): 1}


def test_bifiltration_refuses_bad_references_and_zero_coefficients():
    # built directly, not parsed: the constructor's own checks
    vertex = Cell(0, (0.0, 0.0), ())
    for idx in (2, 3, -1):  # the cell itself, a later cell, no cell
        with pytest.raises(ValueError, match=r"^cell 2 boundary references cell %d, not an earlier cell$" % idx):
            Bifiltration([vertex, vertex, Cell(1, (1.0, 1.0), ((0, 1), (idx, 1)))], 2)
    with pytest.raises(ValueError, match=r"^cell 2 has zero boundary coefficient on cell 1$"):
        Bifiltration([vertex, vertex, Cell(1, (1.0, 1.0), ((0, 1), (1, 3)))], 3)


def test_equal_values_hash_equal():
    # equal values built in different ways hash equal, so a dict keyed by
    # one finds the other: a presentation over F_3 from the same entries in
    # two insertion orders, and each value type after a parse round trip
    entries = {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 2): 1}
    rows, cols = [(0.0, 0.0), (1.0, 0.0)], [(1.0, 1.0), (2.0, 0.0), (1.0, 2.0)]
    pres = Presentation(rows, GradedMatrix(rows, cols, entries, field=3))
    other = Presentation(rows, GradedMatrix(rows, cols, dict(reversed(entries.items())), field=3))
    signed = betti(pres).signed
    bif = hollow_triangle([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], fill=(2.0, 2.0))
    pairs = [
        (pres, other),
        (pres, parse_presentation(serialize_presentation(pres))),
        (signed, parse_signed_barcode(serialize_signed_barcode(signed))),
        (signed.negative, betti(other).signed.negative),
        (bif, parse_bifiltration(serialize_bifiltration(bif))),
        (bif, Bifiltration(list(bif.cells), bif.field)),
    ]
    assert signed.positive.bars and signed.negative.bars
    for x, y in pairs:
        assert x is not y and x == y and hash(x) == hash(y)
        assert {x: "found"}[y] == "found"


def test_mbif_field_override():
    bif = hollow_triangle([(0.0, 0.0)] * 3)
    text = serialize_bifiltration(bif)
    over = parse_bifiltration(text, field=3)
    assert over.field == 3


def test_cell_is_a_frozen_value():
    cell = Cell(1, (0.0, 1.0), ((0, 1), (1, 1)))
    same = Cell(dim=1, grade=(0.0, 1.0), boundary=((0, 1), (1, 1)))
    assert repr(cell) == "Cell(dim=1, grade=(0.0, 1.0), boundary=((0, 1), (1, 1)))"
    assert cell == same and hash(cell) == hash(same)
    assert cell != (1, (0.0, 1.0), ((0, 1), (1, 1))) and cell != Cell(1, (0.0, 1.0), ((0, 1),))
    assert Cell._trusted(1, (0.0, 1.0), ((0, 1), (1, 1))) == cell
    vertex = Cell(0, (0.0, 0.0), ())
    assert Cell._trusted_many([1, 0], [(0.0, 1.0), (0.0, 0.0)], [cell.boundary, ()]) == [cell, vertex]
    with pytest.raises(AttributeError):
        cell.dim = 2
    with pytest.raises(AttributeError):
        del cell.grade


def _matrix(p, rows=((0.0, 0.0), (1.0, 0.0)), cols=((1.0, 1.0),), entries=None, dim=None):
    return GradedMatrix(rows, cols, {(0, 0): 1} if entries is None else entries, field=p, dim=dim)


# pairs of values that differ in exactly one compared field; over F_2 only
# matrices with no columns differ in the field alone, since a column's
# encoding follows the field (an int over F_2, a dict over an odd prime)
ONE_FIELD_APART = {
    "GradedMatrix row_grades": (_matrix(3), _matrix(3, rows=((0.0, 0.0), (0.0, 1.0)))),
    "GradedMatrix col_grades": (_matrix(2), _matrix(2, cols=((2.0, 1.0),))),
    "GradedMatrix cols F_2": (_matrix(2), _matrix(2, entries={(1, 0): 1})),
    "GradedMatrix cols F_3": (_matrix(3), _matrix(3, entries={(0, 0): 2})),
    "GradedMatrix field F_2": (_matrix(2, cols=(), entries={}), _matrix(3, cols=(), entries={})),
    "GradedMatrix field F_3": (_matrix(3), _matrix(5)),
    "Presentation rels": (Presentation(_matrix(3).row_grades, _matrix(3)), Presentation(_matrix(3).row_grades, _matrix(5))),
    "Barcode bars": (Barcode([(0.0, 0.0)]), Barcode([(0.0, 1.0)])),
    "SignedBarcode positive": (SignedBarcode([(0.0, 0.0)], [(1.0, 1.0)]), SignedBarcode([(0.0, 1.0)], [(1.0, 1.0)])),
    "SignedBarcode negative": (SignedBarcode([(0.0, 0.0)], [(1.0, 1.0)]), SignedBarcode([(0.0, 0.0)], [(1.0, 2.0)])),
    "Bifiltration cells": (Bifiltration([Cell(0, (0.0, 0.0), ())]), Bifiltration([Cell(0, (0.0, 1.0), ())])),
    "Bifiltration field": (Bifiltration([Cell(0, (0.0, 0.0), ())], 2), Bifiltration([Cell(0, (0.0, 0.0), ())], 3)),
    "Cell dim": (Cell(1, (0.0, 0.0), ()), Cell(0, (0.0, 0.0), ())),
    "Cell grade": (Cell(0, (0.0, 0.0), ()), Cell(0, (0.0, 1.0), ())),
    "Cell boundary": (Cell(1, (1.0, 1.0), ((0, 1),)), Cell(1, (1.0, 1.0), ((0, 1), (1, 1)))),
}

# pairs of values that differ only in their grade dimension
DIM_APART = {
    "GradedMatrix F_2": (_matrix(2, (), (), {}, dim=2), _matrix(2, (), (), {}, dim=None)),
    "GradedMatrix F_3": (_matrix(3, (), (), {}, dim=2), _matrix(3, (), (), {}, dim=3)),
    "Presentation": (Presentation((), field=3, dim=1), Presentation((), field=3, dim=2)),
    "Barcode": (Barcode([], dim=1), Barcode([], dim=2)),
    "SignedBarcode": (SignedBarcode(Barcode([], dim=1)), SignedBarcode(Barcode([], dim=2))),
    "Bifiltration": (Bifiltration([], dim=1), Bifiltration([], dim=2)),
}


@pytest.mark.parametrize("pair", ONE_FIELD_APART.values(), ids=ONE_FIELD_APART)
def test_values_one_compared_field_apart_are_unequal(pair):
    x, y = pair
    assert x != y and y != x and not x == y
    for value in (x, y):
        fields = tuple(getattr(value, name) for name in type(value).__slots__)
        assert value == type(value)._trusted(*fields) and value != fields and fields != value
        assert value.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("pair", DIM_APART.values(), ids=DIM_APART)
def test_values_apart_only_in_dim_are_equal(pair):
    x, y = pair
    assert x.dim != y.dim
    assert x == y and y == x and hash(x) == hash(y)


# Duplicate indices in a sparse column: a later pair for an index replaces
# an earlier one in the matrix; an .mbif cell keeps every listed pair.
DUPLICATES = {2: "0:1 1:1 1:1", 3: "0:1 1:2 1:1"}


@pytest.mark.parametrize("field", [2, 3])
def test_a_later_pair_for_an_index_replaces_an_earlier_one(field):
    pairs = DUPLICATES[field]
    head = "field %d\nn 2\n" % field
    pres = parse_presentation("mpres 1\n" + head + "gens 2\n0 0\n0 0\nrels 1\n1 1 3 %s\n" % pairs)
    assert pres.rels.entries == {(0, 0): 1, (1, 0): 1}
    chain = parse_chain_pair("mchain 1\n" + head + "Z 2\n0 0\n0 0\nY 1\n1 1 3 %s\nX 0\n" % pairs)
    assert chain.g.entries == {(0, 0): 1, (1, 0): 1}
    text = "mbif 1\n" + head + "cells 3\n0 0 0 0\n0 0 0 0\n1 1 1 3 %s\n" % pairs
    listed = tuple((int(i), int(c)) for i, c in (t.split(":") for t in pairs.split()))
    vertex = Cell(0, (0.0, 0.0), ())
    built = Bifiltration([vertex, vertex, Cell(1, (1.0, 1.0), listed)], field)
    for bif in (parse_bifiltration(text), built):
        assert bif.cells[2].boundary == listed
        assert bif._chunked(1)[0].entries == {(0, 0): 1, (1, 0): 1}
        assert bif.boundary_matrix(1).entries == {(0, 0): 1, (1, 0): 1}
        assert serialize_bifiltration(bif) == text
    assert parse_bifiltration(text) == built


def triangle_text(field, faces):
    """A filled triangle in .mbif over F_field, ``faces`` the entry count and
    pairs of its 2-cell."""
    edges = "1 1 0 2 0:%d 1:1\n1 1 1 2 1:%d 2:1\n1 0 1 2 0:%d 2:1\n" % ((field - 1,) * 3)
    return "mbif 1\nfield %d\nn 2\ncells 7\n%s%s2 2 2 %s\n" % (field, "0 0 0 0\n" * 3, edges, faces)


DUPLICATE_FACES = [(2, "4 3:1 4:1 5:1 5:1"), (3, "4 3:1 4:1 5:1 5:2")]


@pytest.mark.parametrize("field, faces", DUPLICATE_FACES)
def test_boundary_of_boundary_reads_the_packed_column(field, faces):
    # the last pair on cell 5 is the one that counts: summed, the listed
    # pairs would cancel cell 5 (1 + 1 over F_2, 1 + 2 over F_3), and a
    # triangle on cells 3 and 4 alone has a nonzero boundary of its boundary
    bif = parse_bifiltration(triangle_text(field, faces))
    assert bif._chunked(2)[0].num_cols == 1 and len(bif._chunked(2)[0].entries) == 3
    with pytest.raises(ParseError, match="cell 6 .* has a boundary whose boundary is nonzero"):
        parse_bifiltration(triangle_text(field, "2 3:1 4:1"))


@pytest.mark.parametrize("field", [0, 1, 4, -3])
def test_mbif_nonprime_field_rejected(field):
    bif = hollow_triangle([(0.0, 0.0)] * 3)
    message = "field order must be prime, got %d" % field
    with pytest.raises(ValueError, match=message):
        Bifiltration(bif.cells, field)
    with pytest.raises(ValueError, match=message):
        parse_bifiltration(serialize_bifiltration(bif), field=field)


def test_boundary_matrices_built_once(monkeypatch):
    # construction builds the chunk-reduced d_0 .. d_3 and nothing else, and
    # they serve the homology of every degree; _chunk_reduce builds them with
    # the trusted constructor, so builds by either constructor are counted
    from msb import algebra, io

    built = []
    graded_matrix = algebra.GradedMatrix

    class Counted:
        def __new__(cls, *args, **kwargs):
            built.append(1)
            return graded_matrix(*args, **kwargs)

        @staticmethod
        def _trusted(*values):
            built.append(1)
            return graded_matrix._trusted(*values)

    with monkeypatch.context() as m:
        m.setattr(algebra, "GradedMatrix", Counted)
        bif = hollow_triangle([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], fill=(2.0, 2.0))
    assert len(built) == 4
    # the homology solve builds its output through the same name, so count
    # the boundaries it reads instead: each is one of the four built above
    chunks = [bif._chunked(d)[0] for d in range(4)]
    read = []
    homology = io._homology_presentation

    def spy(f, g, cells):
        read.append((f, g))
        return homology(f, g, cells)

    monkeypatch.setattr(io, "_homology_presentation", spy)
    for _ in range(2):
        for degree in (0, 1, 2):
            chain_to_presentation(bif, degree)
    assert len(read) == 6
    for (f, g), degree in zip(read, [0, 1, 2] * 2):
        assert f is chunks[degree + 1] and g is chunks[degree]


# ---------------------------------------------------------------------------
# homology from bifiltrations


def test_circle_homology_from_flat_triangle():
    bif = hollow_triangle([(0.0, 0.0)] * 3)
    pres = chain_to_presentation(bif, 1)
    assert pres.gens == ((0.0, 0.0),)
    assert pres.num_rels == 0


def test_staged_circle_homology():
    bif = hollow_triangle([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    res = betti(chain_to_presentation(bif, 1))
    assert res.by_degree[0].bars == ((1.0, 1.0),)
    assert res.by_degree[1].bars == ()


def test_filled_triangle_hook_homology():
    bif = hollow_triangle([(0.0, 0.0)] * 3, fill=(1.0, 1.0))
    res = betti(chain_to_presentation(bif, 1))
    assert res.by_degree[0].bars == ((0.0, 0.0),)
    assert res.by_degree[1].bars == ((1.0, 1.0),)
    assert res.by_degree[2].bars == ()


def test_merging_components_presentation():
    cells = [
        Cell(0, (0.0, 0.0), ()),
        Cell(0, (1.0, 0.0), ()),
        Cell(1, (1.0, 0.0), ((0, 1), (1, 1))),
    ]
    bif = Bifiltration(cells, 2)
    raw = homology_presentation(ChainPair(f=bif.boundary_matrix(1), g=bif.boundary_matrix(0)))
    # the presentation of the full complex keeps both components and the
    # merge relation
    assert sorted(raw.gens) == [(0.0, 0.0), (1.0, 0.0)]
    assert raw.rels.col_grades == ((1.0, 0.0),)
    # the edge and the vertex born with it are a local pair, which chunk
    # reduction removes before the presentation is built
    pres = chain_to_presentation(bif, 0)
    assert pres.gens == ((0.0, 0.0),)
    assert pres.num_rels == 0
    # minimal form is a single free summand
    for res in (betti(raw), betti(pres)):
        assert res.by_degree[0].bars == ((0.0, 0.0),)
        assert res.by_degree[1].bars == ()


def test_degree_defaults_and_validation():
    bif = hollow_triangle([(0.0, 0.0)] * 3)
    default = chain_to_presentation(bif)
    explicit = chain_to_presentation(bif, 0)
    assert default.gens == explicit.gens
    assert default.rels.entries == explicit.rels.entries
    with pytest.raises(ValueError):
        chain_to_presentation(bif, -1)


def test_homology_degree_above_complex_dimension():
    bif = hollow_triangle([(0.0, 0.0)] * 3)
    pres = chain_to_presentation(bif, 2)
    assert pres.num_gens == 0


# ---------------------------------------------------------------------------
# chunk reduction against the presentation of the full complex


def random_simplicial_bifiltration(rng, p, levels):
    """A random simplicial complex on at most 7 vertices over F_p, with
    vertex grades on {0 .. levels - 1}^2 and each simplex born at the join
    of its faces' grades or one step above it in one coordinate.  Small
    grids put many cells at one grade, so local pairs cascade."""
    cells = []
    index = {}
    vertices = range(3 + rng.below(5))
    for v in vertices:
        index[(v,)] = len(cells)
        cells.append(Cell(0, (float(rng.below(levels)), float(rng.below(levels))), ()))
    for size in (2, 3, 4):
        for simplex in itertools.combinations(vertices, size):
            faces = [simplex[:i] + simplex[i + 1 :] for i in range(size)]
            if not all(f in index for f in faces) or rng.below(3) == 0:
                continue
            grade = list(join(*(cells[index[f]].grade for f in faces)))
            if rng.below(4) == 0:
                grade[rng.below(2)] += 1.0
            boundary = tuple((index[f], (-1) ** i % p) for i, f in enumerate(faces))
            index[simplex] = len(cells)
            cells.append(Cell(size - 1, tuple(grade), boundary))
    return Bifiltration(cells, p)


def chunk_corpus():
    from test_cli import lower_star_square

    rng = SplitMix64(113)
    for p in (2, 3):
        for trial in range(40):
            yield random_simplicial_bifiltration(rng, p, 1 + trial % 3)
        for seed in range(3):
            yield lower_star_square(700 + seed, 4, 3, field=p)


def test_chunk_reduction_presents_the_same_module():
    # on every degree 0-2, the presentation of the chunk-reduced complex
    # has the dimension of the full complex's at every point of the grid of
    # cell grades, the same Betti barcodes, and no more generators plus
    # relations; and the chunk-reduced boundaries still form chain pairs
    shrunk = 0
    for bif in chunk_corpus():
        xs = sorted({c.grade[0] for c in bif.cells})
        ys = sorted({c.grade[1] for c in bif.cells})
        for degree in (0, 1, 2):
            ChainPair(f=bif._chunked(degree + 1)[0], g=bif._chunked(degree)[0])
            full = homology_presentation(
                ChainPair(f=bif.boundary_matrix(degree + 1), g=bif.boundary_matrix(degree))
            )
            pres = chain_to_presentation(bif, degree)
            assert pres.field == full.field
            for x in itertools.product(xs, ys):
                assert pointwise_dim(pres, x) == pointwise_dim(full, x)
            assert betti(pres).by_degree == betti(full).by_degree
            size = pres.num_gens + pres.num_rels
            assert size <= full.num_gens + full.num_rels
            shrunk += size < full.num_gens + full.num_rels
    assert shrunk > 100


def test_chunk_cache_is_immutable():
    bif = hollow_triangle([(0.0, 0.0)] * 3)
    chain_to_presentation(bif, 1)
    with pytest.raises(AttributeError, match="Bifiltration is immutable"):
        bif._chunks = {}
    with pytest.raises(AttributeError, match="Bifiltration is immutable"):
        del bif._chunks
    assert chain_to_presentation(bif, 1).gens == ((0.0, 0.0),)


# ---------------------------------------------------------------------------
# sniffing


def test_sniff_and_parse_any():
    p = gen_staircase(2)
    s = betti(p).signed
    bif = hollow_triangle([(0.0, 0.0)] * 3)
    docs = {
        "mpres": serialize_presentation(p),
        "sbarc": serialize_signed_barcode(s),
        "mbif": serialize_bifiltration(bif),
    }
    for kind, text in docs.items():
        assert sniff_format(text) == kind
        parse_any(text)
    with pytest.raises(ParseError):
        sniff_format("garbage 1\n")


def test_parse_any_round_trips_random_presentations():
    rng = SplitMix64(149)
    for trial in range(50):
        p = gen_random(15000 + trial, 1 + rng.below(6), rng.below(7), 8)
        back = parse_any(serialize_presentation(p))
        assert back.gens == p.gens
        assert back.rels.entries == p.rels.entries


# ---------------------------------------------------------------------------
# exact error messages

_PRES = "mpres 1\nfield 2\nn 2\ngens 2\n0 0\n1 0\nrels "
_CHAIN = "mchain 1\nfield 2\nn 2\nZ 2\n0 0\n0 0\nY 2\n1 0 2 0:1 1:1\n0 1 2 0:1 1:1\nX "
_BIF = "mbif 1\nfield 2\nn 2\ncells "

# (document, the full message of the ParseError that parse_any raises)
PARSE_ERRORS = [
    ("", "line 1, column 1: unexpected end of input, expected format magic"),
    ("mpres", "line 1, column 1: unexpected end of input, expected format version"),
    ("spres 1", "line 1, column 1: unknown format 'spres'"),
    ("sbarc 2\n", "line 1, column 7: unsupported sbarc version '2'"),
    ("sbarc 1\nn x\n", "line 2, column 3: expected grade dimension, got 'x'"),
    ("sbarc 1\nn 0\n", "line 2, column 3: grade dimension must be positive, got 0"),
    ("sbarc 1\nm 2\n", "line 2, column 1: expected 'n', got 'm'"),
    ("sbarc 1\nn 2\npositive two\n",
     "line 3, column 10: expected count positive bar count, got 'two'"),
    ("sbarc 1\nn 2\npositive -1\n",
     "line 3, column 10: positive bar count must be nonnegative, got -1"),
    ("sbarc 1\nn 2\npositive 1\n0 zero\n",
     "line 4, column 3: expected number bar coordinate, got 'zero'"),
    ("sbarc 1\nn 2\npositive 1\n0 inf\n",
     "line 4, column 3: bar coordinate must be finite, got 'inf'"),
    ("sbarc 1\nn 2\npositive 1\n0 nan\n",
     "line 4, column 3: bar coordinate must be finite, got 'nan'"),
    ("sbarc 1\nn 2\npositive 1\n0\n",
     "line 4, column 1: unexpected end of input, expected bar coordinate"),
    ("sbarc 1\nn 2\npositive 0\nnegative 0\n0 0 # trailing\n",
     "line 5, column 1: trailing input '0'"),
    ("mpres 1\nfield x\n", "line 2, column 7: expected field order, got 'x'"),
    ("mpres 1\nfield 4\n", "line 2, column 7: field order must be prime, got 4"),
    ("mpres 1\nfield 2\nn 2\ngens x\n",
     "line 4, column 6: expected count generator count, got 'x'"),
    (_PRES + "x\n", "line 7, column 6: expected count relation count, got 'x'"),
    ("mpres 1\nfield 2\nn 2\ngens 0\nrels -1\n",
     "line 5, column 6: relation count must be nonnegative, got -1"),
    (_PRES + "1\n1 y 1 0:1\n",
     "line 8, column 3: expected number relation 0 coordinate, got 'y'"),
    (_PRES + "1\n1 1 -2\n",
     "line 8, column 5: entry count of relation 0 must be nonnegative, got -2"),
    (_PRES + "1\n1 1 1 0\n",
     "line 8, column 7: expected index:coeff pair for relation 0 entry, got '0'"),
    (_PRES + "1\n1 1 1 a:1\n", "line 8, column 7: malformed pair 'a:1' for relation 0 entry"),
    (_PRES + "1\n1 1 1 2:1\n",
     "line 8, column 7: index 2 out of range [0, 2) for relation 0 entry"),
    (_PRES + "1\n1 1 1 0:2\n",
     "line 8, column 7: coefficient 2 outside [1, 2) for relation 0 entry"),
    (_PRES + "2\n1 1 1 0:1\n0 0 1 1:1\n",
     "line 9, column 1: relation 1 at grade (0, 0) has an entry on generator 1 "
     "at grade (1, 0), which is not below it"),
    (_PRES + "1\n1 1 2 0:1\n",
     "line 8, column 7: unexpected end of input, expected relation 0 entry"),
    (_PRES + "0\nrels\n", "line 8, column 1: trailing input 'rels'"),
    ("mchain 1\nfield 3\nn 2\nZ x\n", "line 4, column 3: expected count Z grade count, got 'x'"),
    ("mchain 1\nfield 3\nn 2\nZ 1\n0 0\nW 0\n", "line 6, column 1: expected 'Y', got 'W'"),
    ("mchain 1\nfield 3\nn 2\nZ 1\n0 0\nY x\n",
     "line 6, column 3: expected count Y column count, got 'x'"),
    ("mchain 1\nfield 3\nn 2\nZ 1\n0 0\nY 1\nq 0 0\n",
     "line 7, column 1: expected number Y column 0 coordinate, got 'q'"),
    ("mchain 1\nfield 3\nn 2\nZ 1\n0 0\nY 1\n0 0 z\n",
     "line 7, column 5: expected count entry count of Y column 0, got 'z'"),
    ("mchain 1\nfield 3\nn 2\nZ 1\n0 0\nY 1\n0 0 1 1:1\n",
     "line 7, column 7: index 1 out of range [0, 1) for Y column 0 entry"),
    ("mchain 1\nfield 3\nn 2\nZ 1\n0 0\nY 1\n0 0 1 0:3\n",
     "line 7, column 7: coefficient 3 outside [1, 3) for Y column 0 entry"),
    ("mchain 1\nfield 3\nn 2\nZ 1\n1 1\nY 1\n0 0 1 0:1\nX 0\n",
     "line 7, column 1: Y column 0 at grade (0, 0) has an entry on Z generator 0 "
     "at grade (1, 1), which is not below it"),
    (_CHAIN + "x\n", "line 10, column 3: expected count X column count, got 'x'"),
    (_CHAIN + "1\n1 1 1 2:1\n",
     "line 11, column 7: index 2 out of range [0, 2) for X column 0 entry"),
    (_CHAIN + "1\n0 0 2 0:1 1:1\n",
     "line 11, column 1: X column 0 at grade (0, 0) has an entry on Y column 0 "
     "at grade (1, 0), which is not below it"),
    (_CHAIN + "1\n1 1 1 0:1\n", "g @ f is not zero; not a chain pair"),
    (_CHAIN + "1\n1 1 2 0:1\n",
     "line 11, column 7: unexpected end of input, expected X column 0 entry"),
    (_CHAIN + "0\nZ\n", "line 11, column 1: trailing input 'Z'"),
    (_BIF + "x\n", "line 4, column 7: expected count cell count, got 'x'"),
    (_BIF + "1\nd 0 0 0\n", "line 5, column 1: expected integer dimension of cell 0, got 'd'"),
    (_BIF + "1\n0 0 0 q\n", "line 5, column 7: expected count boundary size of cell 0, got 'q'"),
    ("mbif 1\nfield 2\nn 1\ncells 1\n0 0 -1\n",
     "line 5, column 5: boundary size of cell 0 must be nonnegative, got -1"),
    (_BIF + "2\n0 0 0 0\n1 0 0 1 1:1\n",
     "line 6, column 9: index 1 out of range [0, 1) for cell 1 boundary"),
    ("mbif 1\nfield 3\nn 1\ncells 2\n0 0 0\n1 0 1 0:3\n",
     "line 6, column 7: coefficient 3 outside [1, 3) for cell 1 boundary"),
    (_BIF + "2\n0 1 1 0\n1 0 0 1 0:1\n",
     "cell 1 born at (0, 0) has boundary cell 0 born later at (1, 1)"),
    (_BIF + "2\n0 0 0 0\n2 0 0 1 0:1\n",
     "cell 1 (dimension 2) has boundary cell 0 of dimension 0"),
    (_BIF + "1\n-1 0 0 0\n", "cell 0 has negative dimension"),
    (_BIF + "4\n0 0 0 0\n0 0 0 0\n1 0 0 2 0:1 1:1\n2 0 0 1 2:1\n",
     "cell 3 (dimension 2) born at (0, 0) has a boundary whose boundary is nonzero"),
    # unit coefficients: the triangle's boundary is a cycle over F_2, not over F_3
    ("mbif 1\nfield 3\nn 2\ncells 7\n0 0 0 0\n0 0 0 0\n0 0 0 0\n1 0 0 2 0:1 1:1\n"
     "1 0 0 2 1:1 2:1\n1 0 0 2 0:1 2:1\n2 1 1 3 3:1 4:1 5:1\n",
     "cell 6 (dimension 2) born at (1, 1) has a boundary whose boundary is nonzero"),
    # a signed triangle is a cycle over F_3; the first bad cell in input order
    # is the 3-cell on it, not the later 2-cell on one edge
    ("mbif 1\nfield 3\nn 2\ncells 9\n0 0 0 0\n0 0 0 0\n0 0 0 0\n1 0 0 2 0:2 1:1\n"
     "1 0 0 2 1:2 2:1\n1 0 0 2 0:2 2:1\n2 0 0 3 3:1 4:1 5:2\n3 0 2 1 6:1\n2 1 0 1 3:1\n",
     "cell 7 (dimension 3) born at (0, 2) has a boundary whose boundary is nonzero"),
    (_BIF + "2\n0 0 0 0\n",
     "line 5, column 7: unexpected end of input, expected dimension of cell 1"),
    (_BIF + "1\n0 0 0 0\n1\n", "line 6, column 1: trailing input '1'"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS, ids=[m for _, m in PARSE_ERRORS])
def test_parse_error_message_is_exact(text, message):
    with pytest.raises(ParseError) as info:
        parse_any(text)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# the token reader against a copy of the reader it replaced
#
# The oracle below is the per-token reader the package used before its flat
# reader: a (token, line, column) tuple per token and one typed read per
# token.  It builds bifiltrations through the public constructor, so it also
# checks the parser's checked-once route into Bifiltration.


def _old_scan(text):
    for lineno, line in enumerate(text.splitlines(), 1):
        hash_at = line.find("#")
        if hash_at >= 0:
            line = line[:hash_at]
        for m in re.finditer(r"\S+", line):
            yield m.group(), lineno, m.start() + 1


class _OldTokens:
    def __init__(self, text):
        self._toks = list(_old_scan(text))
        self._pos = 0
        self._last = (1, 1)

    def next(self, what):
        if self._pos >= len(self._toks):
            raise ParseError("unexpected end of input, expected %s" % what, *self._last)
        tok = self._toks[self._pos]
        self._pos += 1
        self._last = (tok[1], tok[2])
        return tok

    def pos(self):
        if self._pos < len(self._toks):
            tok = self._toks[self._pos]
            return tok[1], tok[2]
        return self._last

    def keyword(self, word):
        tok, line, col = self.next("'%s'" % word)
        if tok != word:
            raise ParseError("expected '%s', got '%s'" % (word, tok), line, col)

    def int_(self, what, expected):
        tok, line, col = self.next(what)
        try:
            return int(tok), line, col
        except ValueError:
            raise ParseError("expected %s, got '%s'" % (expected, tok), line, col)

    def count(self, what):
        n, line, col = self.int_(what, "count " + what)
        if n < 0:
            raise ParseError("%s must be nonnegative, got %d" % (what, n), line, col)
        return n

    def float_(self, what):
        tok, line, col = self.next(what)
        try:
            v = float(tok)
        except ValueError:
            raise ParseError("expected number %s, got '%s'" % (what, tok), line, col)
        if v != v or v in (float("inf"), float("-inf")):
            raise ParseError("%s must be finite, got '%s'" % (what, tok), line, col)
        return v

    def grade(self, n, what):
        return tuple(self.float_("%s coordinate" % what) for _ in range(n))

    def pair(self, what, limit, field):
        tok, line, col = self.next(what)
        head, sep, tail = tok.partition(":")
        if not sep:
            raise ParseError("expected index:coeff pair for %s, got '%s'" % (what, tok), line, col)
        try:
            idx = int(head)
            coeff = int(tail)
        except ValueError:
            raise ParseError("malformed pair '%s' for %s" % (tok, what), line, col)
        if not 0 <= idx < limit:
            raise ParseError("index %d out of range [0, %d) for %s" % (idx, limit, what), line, col)
        if not 0 < coeff < field:
            raise ParseError(
                "coefficient %d outside [1, %d) for %s" % (coeff, field, what), line, col
            )
        return idx, coeff

    def done(self):
        if self._pos < len(self._toks):
            tok, line, col = self._toks[self._pos]
            raise ParseError("trailing input '%s'" % tok, line, col)

    def header(self, magic):
        self.keyword(magic)
        tok, line, col = self.next("format version")
        if tok != "1":
            raise ParseError("unsupported %s version '%s'" % (magic, tok), line, col)

    def field(self):
        self.keyword("field")
        p, line, col = self.int_("field order", "field order")
        if not _is_prime(p):
            raise ParseError("field order must be prime, got %d" % p, line, col)
        return p

    def ndim(self):
        self.keyword("n")
        n, line, col = self.int_("grade dimension", "grade dimension")
        if n < 1:
            raise ParseError("grade dimension must be positive, got %d" % n, line, col)
        return n


def _old_sniff_format(text):
    first = next(_old_scan(text), None)
    if first is None:
        raise ParseError("unexpected end of input, expected format magic", 1, 1)
    tok, line, col = first
    if tok not in ("sbarc", "mpres", "mchain", "mbif"):
        raise ParseError("unknown format '%s'" % tok, line, col)
    return tok


def _old_parse_signed_barcode(text):
    t = _OldTokens(text)
    t.header("sbarc")
    n = t.ndim()
    t.keyword("positive")
    pos = [t.grade(n, "bar") for _ in range(t.count("positive bar count"))]
    t.keyword("negative")
    neg = [t.grade(n, "bar") for _ in range(t.count("negative bar count"))]
    t.done()
    return SignedBarcode(Barcode(pos, dim=n), Barcode(neg, dim=n))


def _old_parse_block(t, name, label, n, field, nrows):
    t.keyword(name)
    count = t.count("%s count" % label)
    grades, entries, pos = [], {}, []
    for j in range(count):
        pos.append(t.pos())
        grades.append(t.grade(n, "%s %d" % (label, j)))
        nnz = t.count("entry count of %s %d" % (label, j))
        for _ in range(nnz):
            i, coeff = t.pair("%s %d entry" % (label, j), nrows, field)
            entries[(i, j)] = coeff
    return grades, entries, pos


def _old_check_grade_order(m, col_what, row_what, col_pos):
    bad = _first_invalid(m)
    if bad is not None:
        i, j = bad
        raise ParseError(
            "%s %d at grade %s has an entry on %s %d at grade %s, which is not below it"
            % (col_what, j, _grade_str(m.col_grades[j]), row_what, i, _grade_str(m.row_grades[i])),
            *col_pos[j],
        )


def _old_parse_presentation(text):
    t = _OldTokens(text)
    t.header("mpres")
    field = t.field()
    n = t.ndim()
    t.keyword("gens")
    gens = [t.grade(n, "generator") for _ in range(t.count("generator count"))]
    col_grades, entries, rel_pos = _old_parse_block(t, "rels", "relation", n, field, len(gens))
    t.done()
    m = GradedMatrix(tuple(gens), tuple(col_grades), entries, field=field, dim=n)
    _old_check_grade_order(m, "relation", "generator", rel_pos)
    return Presentation(m.row_grades, m)


def _old_parse_chain_pair(text):
    t = _OldTokens(text)
    t.header("mchain")
    field = t.field()
    n = t.ndim()
    t.keyword("Z")
    zcount = t.count("Z grade count")
    zgrades = [t.grade(n, "Z grade") for _ in range(zcount)]
    ygrades, gentries, ypos = _old_parse_block(t, "Y", "Y column", n, field, zcount)
    xgrades, fentries, xpos = _old_parse_block(t, "X", "X column", n, field, len(ygrades))
    t.done()
    g = GradedMatrix(tuple(zgrades), tuple(ygrades), gentries, field=field, dim=n)
    f = GradedMatrix(tuple(ygrades), tuple(xgrades), fentries, field=field, dim=n)
    _old_check_grade_order(g, "Y column", "Z generator", ypos)
    _old_check_grade_order(f, "X column", "Y column", xpos)
    try:
        return ChainPair(f=f, g=g)
    except ValueError as e:
        raise ParseError(str(e))


def _old_parse_bifiltration(text, field=None):
    t = _OldTokens(text)
    t.header("mbif")
    file_field = t.field()
    p = file_field if field is None else field
    _require_prime(p)
    n = t.ndim()
    t.keyword("cells")
    count = t.count("cell count")
    cells = []
    for k in range(count):
        what = "dimension of cell %d" % k
        d = t.int_(what, "integer " + what)[0]
        grade = t.grade(n, "cell %d" % k)
        nnz = t.count("boundary size of cell %d" % k)
        boundary = tuple(t.pair("cell %d boundary" % k, k, p) for _ in range(nnz))
        cells.append(Cell(d, grade, boundary))
    t.done()
    try:
        return Bifiltration(cells, field=p, dim=n)
    except ValueError as e:
        raise ParseError(str(e))


_OLD_PARSERS = {
    "sbarc": _old_parse_signed_barcode,
    "mpres": _old_parse_presentation,
    "mchain": _old_parse_chain_pair,
    "mbif": _old_parse_bifiltration,
}


def _old_parse_any(text):
    return _OLD_PARSERS[_old_sniff_format(text)](text)


_SERIALIZERS = {
    SignedBarcode: serialize_signed_barcode,
    Presentation: serialize_presentation,
    ChainPair: serialize_chain_pair,
    Bifiltration: serialize_bifiltration,
}


def outcome(parse, *args, **kwargs):
    """What a parse gives: the type and serialization of the object (with
    the cells, field and dimension of a bifiltration), or the type and
    message of the exception."""
    try:
        obj = parse(*args, **kwargs)
    except Exception as e:
        return "raised", type(e), str(e)
    extra = (obj.cells, obj.field, obj.dim) if isinstance(obj, Bifiltration) else ()
    return "parsed", type(obj), _SERIALIZERS[type(obj)](obj), extra


# one valid file per format, with comments, blank lines and an odd field;
# then one per format whose records start and end mid-line, over F_3
VALID_FILES = {
    "sbarc": "sbarc 1\nn 2\npositive 2\n0 0.5\n1 1\nnegative 1\n2 1.5\n",
    "mpres": "# a presentation\nmpres 1\nfield 3\nn 2\ngens 2\n0 0\n1 0\n\n"
    "rels 2\n1 1 2 0:1 1:2  # two entries\n2 0 1 1:1\n",
    "mchain": _CHAIN + "1\n1 1 2 0:1 1:1\n",
    "mbif": "mbif 1  # a triangle\nfield 2\nn 2\ncells 7\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"
    "1 1 0 2 0:1 1:1\n1 0 1 2 1:1 2:1\n1 1 1 2 0:1 2:1\n2 2 2 3 3:1 4:1 5:1\n",
    "sbarc across lines": "sbarc 1 n 2 positive\n2 0\n0.5 1 1\nnegative 1 2\n1.5\n",
    "mpres across lines": "mpres 1\nfield 3 n 2\ngens 2 0 0\n1\n0 rels 2 1 1\n2 0:1\n"
    "1:2 2 0 1\n1:1\n",
    "mchain across lines": "mchain 1 field 3 n 2 Z 2 0\n0 0 0 Y 2 1\n0 2 0:1\n1:2 0 1 2\n"
    "0:1 1:2 X 1 1 1\n2 0:1 1:2\n",
    "mbif across lines": "mbif 1 field 3\nn 2 cells 7 0\n0 0 0 0 0\n0 0 0 0\n0 0 1 1 0 2\n"
    "0:2 1:1 1 0 1 2 1:2\n2:1 1 1 1 2 0:2 2:1\n2 2 2 3 3:1\n4:1 5:2\n",
}

# tokens that int() or float() read in ways a bulk split could get wrong:
# pairs with two colons or an empty side, an overflow to inf, signs, and a
# digit that is not ASCII
SUBSTITUTES = ["x", "-1", "0", "nan", "inf", "1_0", ":", "0:0", "9:1"]
SUBSTITUTES += ["1:2:3", "1:", ":1", "1e400", "-0:1", "+1:1", "\u0663"]


def token_variants(text):
    """``text`` with each token deleted, and with each token replaced by
    each of SUBSTITUTES; the rest of the text keeps its bytes."""
    spans = [
        (start + m.start(), start + m.end())
        for start, line in _line_starts(text)
        for m in re.finditer(r"\S+", line.partition("#")[0])
    ]
    for a, b in spans:
        yield text[:a] + text[b:]
        for sub in SUBSTITUTES:
            yield text[:a] + sub + text[b:]


def _line_starts(text):
    start = 0
    for line in text.splitlines(keepends=True):
        yield start, line
        start += len(line)


def test_reader_matches_the_per_token_reader():
    texts = [text for text, _ in PARSE_ERRORS]
    for text in VALID_FILES.values():
        texts.append(text)
        texts.extend(token_variants(text))
    seen = Counter()
    for text in texts:
        want = outcome(_old_parse_any, text)
        assert outcome(parse_any, text) == want, text
        seen[want[0]] += 1
    # the field override reads F_2 boundaries over F_3: the filled triangle's
    # boundary is no cycle there, the hollow triangle's edges are fine
    mbif = VALID_FILES["mbif"]
    hollow = mbif.replace("cells 7", "cells 6").replace("2 2 2 3 3:1 4:1 5:1\n", "")
    for text in [mbif, hollow, *token_variants(hollow)]:
        want = outcome(_old_parse_bifiltration, text, field=3)
        assert outcome(parse_bifiltration, text, field=3) == want, text
        seen["override " + want[0]] += 1
    assert seen == {"parsed": 212, "raised": 3694, "override parsed": 50, "override raised": 598}


def reader_corpus():
    """Every text of the differential reader test, with its field override."""
    for text, _ in PARSE_ERRORS:
        yield text, None
    for text in VALID_FILES.values():
        for variant in (text, *token_variants(text)):
            yield variant, None
            if variant.startswith("mbif"):
                yield variant, 3


def test_per_token_reads_run_only_to_raise(monkeypatch):
    # blocks are read in bulk; a block is read again one token at a time
    # only when the bulk read refuses it, and that read raises
    from msb.io import _Reader

    calls = []
    for name in ("coordinate", "pair"):

        def spy(self, *args, _read=getattr(_Reader, name)):
            calls.append(args)
            return _read(self, *args)

        monkeypatch.setattr(_Reader, name, spy)
    seen = Counter()
    for text, field in reader_corpus():
        calls.clear()
        got = outcome(parse_any, text) if field is None else outcome(parse_bifiltration, text, field)
        assert not calls or got[:2] == ("raised", ParseError), text
        seen[got[0], bool(calls)] += 1
    assert seen == {("parsed", False): 244, ("raised", False): 1980, ("raised", True): 3180}


@pytest.mark.parametrize(
    "text, message",
    [
        ("mbif 1\nfield 2\nn 1\ncells 99999999999999\n0 0 -2\n",
         "line 5, column 5: boundary size of cell 0 must be nonnegative, got -2"),
        ("mpres 1\nfield 2\nn 1\ngens 1\n0\nrels 99999999999999\n0 -1 0 0 0\n",
         "line 7, column 3: entry count of relation 0 must be nonnegative, got -1"),
        ("sbarc 1\nn 2\npositive 99999999999999\n0 0\n",
         "line 4, column 3: unexpected end of input, expected bar coordinate"),
    ],
)
def test_a_huge_block_count_ends_at_the_first_bad_token(text, message):
    # a negative entry count ends the bulk read before it can step back
    with pytest.raises(ParseError) as info:
        parse_any(text)
    assert str(info.value) == message
    assert outcome(_old_parse_any, text) == outcome(parse_any, text)


@pytest.mark.parametrize(
    "text, message",
    [
        (_BIF + "2\n0 0 0 0\n1 0 0 2 0 0:1:1\n",
         "line 6, column 9: expected index:coeff pair for cell 1 boundary, got '0'"),
        (_PRES + "1\n1 1 2 0:1:1 1\n",
         "line 8, column 7: malformed pair '0:1:1' for relation 0 entry"),
        (_CHAIN + "1\n1 1 2 1 0:1:1\n",
         "line 11, column 7: expected index:coeff pair for X column 0 entry, got '1'"),
    ],
)
def test_a_pair_without_a_colon_and_one_with_two(text, message):
    # the two split into as many parts as two good pairs would
    with pytest.raises(ParseError) as info:
        parse_any(text)
    assert str(info.value) == message
    assert outcome(_old_parse_any, text) == outcome(parse_any, text)


# an early cell whose boundary has a nonzero boundary, then a later cell
# that fails a check: the check's error comes first
_DD = _BIF + "6\n0 0 0 0\n0 0 0 0\n1 0 0 2 0:1 1:1\n2 0 0 1 2:1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_DD + "2 0 0 1 0:1\n0 0 0 0\n", "cell 4 (dimension 2) has boundary cell 0 of dimension 0"),
        (_DD + "0 1 1 0\n1 0 0 2 0:1 4:1\n",
         "cell 5 born at (0, 0) has boundary cell 4 born later at (1, 1)"),
        (_DD + "0 0 0 0\n-1 0 0 0\n", "cell 5 has negative dimension"),
        (_DD + "0 0 0 0\n1 0 0 2 0:1 4:1\n",
         "cell 3 (dimension 2) born at (0, 0) has a boundary whose boundary is nonzero"),
    ],
)
def test_a_failed_check_comes_before_a_nonzero_boundary_of_a_boundary(text, message):
    with pytest.raises(ParseError) as info:
        parse_any(text)
    assert str(info.value) == message
    assert outcome(_old_parse_any, text) == outcome(parse_any, text)
    cells = []
    for line in text.splitlines()[4:]:
        d, x, y, _, *pairs = line.split()
        boundary = tuple(tuple(map(int, pair.split(":"))) for pair in pairs)
        cells.append(Cell(int(d), (float(x), float(y)), boundary))
    with pytest.raises(ValueError, match=re.escape(message)):
        Bifiltration(cells, 2)


def _old_chunk_reduce(cells, p, dim):
    """The chunk reduction before its checks, packing and boundary of the
    boundary became one pass: the packed columns, then the boundary of the
    boundary of each cell from its packed column, unpacked again."""
    top = max((c.dim for c in cells), default=-1)
    order = [[] for _ in range(top + 2)]
    for k, cell in enumerate(cells):
        order[cell.dim].append(k)
    at = {}
    for ks in order:
        ks.sort(key=lambda k: _colex(cells[k].grade))
        at.update((k, j) for j, k in enumerate(ks))
    cols = [[_column(((at[i], c) for i, c in cells[k].boundary), p) for k in ks] for ks in order]
    for k, cell in enumerate(cells):
        dd = _column((), p)
        for i, c in _items(cols[cell.dim][at[k]]):
            dd = _addmul(dd, cols[cell.dim - 1][i], c, p)
        if dd:
            raise ValueError(
                "cell %d (dimension %d) born at %s has a boundary whose boundary is nonzero"
                % (k, cell.dim, _grade_str(cell.grade))
            )
    grades = [[cells[k].grade for k in ks] for ks in order]
    rest = [{} for _ in order]
    skip = ()
    for d in range(top, -1, -1):
        skip, rest[d] = _local_pairs(cols[d], grades[d - 1], grades[d], p, skip)
    out = {}
    for d in range(top + 2):
        row = {j: n for n, j in enumerate(rest[d - 1])}
        kept = rest[d].values()
        entries = {(row[i], n): v for n, col in enumerate(kept) for i, v in _items(col) if i in row}
        ks = tuple(order[d][j] for j in rest[d])
        rg = tuple(grades[d - 1][j] for j in row)
        m = GradedMatrix(rg, tuple(cells[k].grade for k in ks), entries, field=p, dim=dim)
        out[d] = (m, ks)
    return out


def test_chunks_match_the_chunk_reduction_of_separate_passes():
    from test_cli import lower_star_square

    bifs = [lower_star_square(seed, n, levels, field=p)
            for p in (2, 3) for seed, n, levels in ((50, 6, 1000), (51, 7, 3), (52, 5, 1))]
    bifs += chunk_corpus()
    for text, field in reader_corpus():
        try:
            bifs.append(parse_bifiltration(text, field))
        except ParseError:
            pass
    bifs += [parse_bifiltration(triangle_text(field, faces)) for field, faces in DUPLICATE_FACES]
    for bif in bifs:
        assert bif._chunks == _old_chunk_reduce(list(bif.cells), bif.field, bif.dim)
    assert len(bifs) == 192


# every separator str.split knows, some of which str.splitlines also breaks
# lines at: \x0b, \x0c, \x1c, \x85 and \u2028 count lines, \t and \xa0 do not
SEPARATORS = ["\r\n", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\xa0"]


def whitespace_variants():
    for text in VALID_FILES.values():
        yield text.rstrip("\n")  # no final newline
        yield text.replace("\n", "#glued to the last token\n")
        for sep in SEPARATORS:
            # a comment ends at a line break of str.splitlines only
            yield text.replace("\n", sep)
            for old in (" ", "\n"):
                variant = re.sub("#.*", "", text).replace(old, sep)
                yield variant
                # an error at the last token, and the end of input after it
                head, _, last = variant.rstrip().rpartition(variant.split()[-1])
                yield head + "x" + last
                yield head + last
    yield from ("", "\n\n", "# only a comment", "# comment\n\n  # another\n")


def test_whitespace_and_comments_match_the_per_token_reader():
    seen = Counter()
    for text in whitespace_variants():
        want = outcome(_old_parse_any, text)
        assert outcome(parse_any, text) == want, repr(text)
        seen[want[0]] += 1
    assert seen == {"parsed": 204, "raised": 264}


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_signed_barcode, "sbarc\x0b1\x1cn 2\x85positive 1\u20280 zero",
         "line 5, column 3: expected number bar coordinate, got 'zero'"),
        (parse_signed_barcode, "sbarc 1\r\nn\xa0x",
         "line 2, column 3: expected grade dimension, got 'x'"),
        (parse_signed_barcode, "sbarc 1\x0cn\t2\npositive 0#c\nnegative 1\n0",
         "line 5, column 1: unexpected end of input, expected bar coordinate"),
        (parse_presentation, "mpres 1#c\nfield 2\x0bn 1\ngens 1\n0\nrels 1\n1 1 0#c\n0:1",
         "line 7, column 5: expected index:coeff pair for relation 0 entry, got '0'"),
        (parse_presentation, "", "line 1, column 1: unexpected end of input, expected 'mpres'"),
        (parse_presentation, "# c\n\nmpres 1 # c\n",
         "line 3, column 7: unexpected end of input, expected 'field'"),
        (parse_any, "# only a comment",
         "line 1, column 1: unexpected end of input, expected format magic"),
    ],
)
def test_error_positions_count_every_line_break(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def test_parse_and_constructor_build_the_same_bifiltration():
    # the parser's checked-once route into Bifiltration and the public
    # constructor give equal cells, field, dimension and chunked boundaries
    from test_cli import lower_star_square

    for seed, field in ((40, 2), (41, 3)):
        built = lower_star_square(seed, 5, 4, field=field)
        parsed = parse_bifiltration(serialize_bifiltration(built))
        assert (parsed.cells, parsed.field, parsed.dim) == (built.cells, built.field, built.dim)
        for d in range(4):
            assert parsed._chunked(d) == built._chunked(d)
