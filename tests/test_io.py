"""Text formats: parsing, serialization, round trips, error positions."""

import itertools
import math

import pytest

from msb import (
    Barcode,
    ChainPair,
    GradedMatrix,
    ParseError,
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
from msb.io import Bifiltration, Cell, fmt_float, sniff_format


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


def test_mbif_field_override():
    bif = hollow_triangle([(0.0, 0.0)] * 3)
    text = serialize_bifiltration(bif)
    over = parse_bifiltration(text, field=3)
    assert over.field == 3


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
    # they serve the homology of every degree
    from msb import io

    built = []
    graded_matrix = io.GradedMatrix
    monkeypatch.setattr(io, "GradedMatrix", lambda *a, **k: built.append(1) or graded_matrix(*a, **k))
    bif = hollow_triangle([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], fill=(2.0, 2.0))
    assert len(built) == 4
    for _ in range(2):
        for degree in (0, 1, 2):
            chain_to_presentation(bif, degree)
    assert len(built) == 4


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
