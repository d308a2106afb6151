"""Text formats for barcodes, presentations, chain pairs, bifiltrations.

A file holds one object as a sequence of tokens.  Its lines are those of
``str.splitlines``; a ``#`` starts a comment that runs to the end of its
line, and the rest splits into tokens at whitespace as ``str.split``
defines it.  Line breaks matter only there and in the line and column a
:class:`ParseError` names.  Counts, indices, coefficients and the field
order are read by ``int()``, coordinates by ``float()`` and must be
finite, so ``1_0`` reads as 10 and ``+3`` as 3.  The formats:

``sbarc 1``
    ``n <dim>``, then ``positive <count>`` followed by count grades,
    then ``negative <count>`` likewise.
``mpres 1``
    ``field <p>``, ``n <dim>``, ``gens <count>`` followed by count
    grades, then ``rels <count>`` followed by per relation its grade,
    an entry count, and that many ``row:coeff`` pairs.
``mchain 1``
    ``field <p>``, ``n <dim>``, then blocks ``Z``, ``Y``, ``X``.  The
    ``Z`` block lists target grades; each ``Y`` column is a grade plus
    a sparse column of the map into Z (rows are Z indices), as in a
    ``rels`` block; each ``X`` column likewise maps into Y.
``mbif 1``
    ``field <p>``, ``n <dim>``, ``cells <count>``, then per cell its
    dimension, its grade, an entry count, and that many ``index:coeff``
    boundary pairs referring to earlier cells.

In a sparse column a later pair for an index replaces an earlier one; a
cell keeps the pairs it lists.  Blocks are read in bulk; one that fails a
check is read again token by token, which raises the error of that token.

Serialization is canonical: barcodes are emitted in sorted order,
floats use the shortest decimal that round-trips (integral values drop
the fractional part), and sparse entries are sorted by index, so equal
objects always produce identical bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, islice, repeat
from math import isfinite
from operator import contains, ge, index

from .algebra import (
    ChainPair,
    GradedMatrix,
    Presentation,
    _chunk_reduce,
    _first_invalid,
    _homology_presentation,
    _is_prime,
    _require_prime,
    _sorted_items,
)
from .grades import Barcode, SignedBarcode, _Frozen, _grade_str, _merge_dims, as_grade, fmt_float


class ParseError(ValueError):
    """Input rejected, with the line and column of the offending token."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = "line %d" % line
            if column is not None:
                where += ", column %d" % column
            message = "%s: %s" % (where, message)
        super().__init__(message)


def _grade_lines(grades) -> list[str]:
    """One line of space-separated coordinates per grade."""
    return [" ".join(fmt_float(c) for c in g) for g in grades]


_TOKEN_RE = re.compile(r"\S+")


def _scan(text: str):
    """Yield ``(token, line, column)`` outside ``#`` comments, in order."""
    for lineno, line in enumerate(text.splitlines(), 1):
        for m in _TOKEN_RE.finditer(line.partition("#")[0]):
            yield m.group(), lineno, m.start() + 1


class _Reader:
    """Typed reads, in order, of ``toks``, the tokens :func:`_scan` yields
    without positions; ``i`` indexes the next.  A read's label is a format
    string and its arguments, formatted only when the read fails."""

    __slots__ = ("text", "toks", "i")

    def __init__(self, text: str):
        self.text = text
        if "#" in text:
            text = "\n".join(line.partition("#")[0] for line in text.splitlines())
        self.toks = text.split()
        self.i = 0

    def error(self, message: str, i: int | None = None) -> ParseError:
        """ParseError at token ``i``, by default the last one read; past the end, the last."""
        at = (1, 1)
        for _, line, col in islice(_scan(self.text), self.i if i is None else i + 1):
            at = line, col
        return ParseError(message, *at)

    def end(self, what: str) -> ParseError:
        return self.error("unexpected end of input, expected " + what, len(self.toks))

    def next(self, what: str, *args) -> str:
        if self.i == len(self.toks):
            raise self.end(what % args)
        self.i += 1
        return self.toks[self.i - 1]

    def keyword(self, word: str) -> None:
        if self.next("'%s'", word) != word:
            raise self.error("expected '%s', got '%s'" % (word, self.toks[self.i - 1]))

    def int_(self, kind: str, what: str, *args) -> int:
        """The next token as ``int()`` reads it; ``kind`` prefixes the label if it is none."""
        tok = self.next(what, *args)
        try:
            return int(tok)
        except ValueError:
            raise self.error("expected %s%s, got '%s'" % (kind, what % args, tok))

    def count(self, what: str, *args) -> int:
        n = self.int_("count ", what, *args)
        if n < 0:
            raise self.error("%s must be nonnegative, got %d" % (what % args, n))
        return n

    def coordinate(self, what: str, *args) -> float:
        """The next token as a finite float, a coordinate of ``what``."""
        tok = self.next(what + " coordinate", *args)
        try:
            v = float(tok)
        except ValueError:
            raise self.error("expected number %s coordinate, got '%s'" % (what % args, tok))
        if not isfinite(v):
            raise self.error("%s coordinate must be finite, got '%s'" % (what % args, tok))
        return v

    def pair(self, limit: int, p: int, what: str, *args) -> tuple:
        """The next token as an ``index:coeff`` pair in [0, limit) x [1, p)."""
        tok = self.next(what, *args)
        head, sep, tail = tok.partition(":")
        if not sep:
            raise self.error("expected index:coeff pair for %s, got '%s'" % (what % args, tok))
        try:
            idx, coeff = int(head), int(tail)
        except ValueError:
            raise self.error("malformed pair '%s' for %s" % (tok, what % args))
        if not 0 <= idx < limit:
            raise self.error("index %d out of range [0, %d) for %s" % (idx, limit, what % args))
        if not 0 < coeff < p:
            raise self.error("coefficient %d outside [1, %d) for %s" % (coeff, p, what % args))
        return idx, coeff

    def grades(self, count: int, n: int, what: str) -> list:
        """The next ``count`` grades of ``n`` coordinates each."""
        i, j = self.i, self.i + count * n
        try:
            vals = list(map(float, self.toks[i:j]))
        except ValueError:
            vals = ()
        if len(vals) == j - i and all(map(isfinite, vals)):
            self.i = j
            return list(zip(*[iter(vals)] * n))
        return [tuple(self.coordinate(what) for _ in range(n)) for _ in range(count)]

    def columns(self, count: int, n: int, labels: tuple, limit: int | None, p: int) -> tuple:
        """The next ``count`` sparse columns, and per column its first token index: an int if
        ``labels[0]`` names one, a grade, and a count of ``index:coeff`` pairs in [0, limit) x
        [1, p), a None limit being the column's position.  ``labels`` name these four."""
        toks, start, lead = self.toks, self.i, labels[0] is not None
        i, head, starts, ints, heads, sizes, pairs = start, n + lead, [], [], [], [], []
        try:
            for _ in range(count):
                starts.append(i)
                ints += toks[i : i + lead]
                heads += toks[i + lead : i + head]
                i += head + 1
                nnz = int(toks[i - 1])
                if nnz < 0:  # before it can move i back
                    raise ValueError
                sizes.append(nnz)
                pairs += toks[i : i + nnz]
                i += nnz
            ints, vals = list(map(int, ints)), list(map(float, heads))
            flat = ":".join(pairs).split(":") if pairs else []
            index, coeffs = list(map(int, flat[::2])), list(map(int, flat[1::2]))
            own = chain.from_iterable(map(repeat, range(count), sizes))  # the column's position
            ok = (i <= len(toks) and all(map(isfinite, vals)) and len(flat) == 2 * len(pairs)
                  and all(map(contains, pairs, repeat(":")))  # so one ":" in each
                  and min(index, default=0) >= 0 and 0 < min(coeffs, default=1)
                  and max(coeffs, default=0) < p
                  and not any(map(ge, index, own if limit is None else repeat(limit))))
        except (ValueError, IndexError):
            ok = False
        if ok:
            self.i, entries = i, iter(zip(index, coeffs))
            grades = list(zip(*[iter(vals)] * n))
            return starts, ints, grades, list(map(tuple, map(islice, repeat(entries), sizes)))
        # read again one token at a time, which raises at the first bad one
        self.i, (lead, grade, size, entry) = start, labels
        starts, ints, grades, cols = [], [], [], []
        for k in range(count):
            starts.append(self.i)
            if lead is not None:
                ints.append(self.int_("integer ", lead, k))
            grades.append(tuple(self.coordinate(grade, k) for _ in range(n)))
            nnz, below = self.count(size, k), k if limit is None else limit
            cols.append(tuple(self.pair(below, p, entry, k) for _ in range(nnz)))
        return starts, ints, grades, cols

    def done(self) -> None:
        if self.i < len(self.toks):
            raise self.error("trailing input '%s'" % self.toks[self.i], self.i)

    def header(self, magic: str) -> None:
        self.keyword(magic)
        if self.next("format version") != "1":
            raise self.error("unsupported %s version '%s'" % (magic, self.toks[self.i - 1]))

    def field(self) -> int:
        self.keyword("field")
        p = self.int_("", "field order")
        if not _is_prime(p):
            raise self.error("field order must be prime, got %d" % p)
        return p

    def ndim(self) -> int:
        self.keyword("n")
        n = self.int_("", "grade dimension")
        if n < 1:
            raise self.error("grade dimension must be positive, got %d" % n)
        return n


def sniff_format(text: str) -> str:
    """First token of the file: one of sbarc, mpres, mchain, mbif."""
    tok, line, col = next(_scan(text), (None, 1, 1))
    if tok is None:
        raise ParseError("unexpected end of input, expected format magic", line, col)
    if tok not in ("sbarc", "mpres", "mchain", "mbif"):
        raise ParseError("unknown format '%s'" % tok, line, col)
    return tok


# ---------------------------------------------------------------------------
# sbarc


def parse_signed_barcode(text: str) -> SignedBarcode:
    r = _Reader(text)
    r.header("sbarc")
    n = r.ndim()
    r.keyword("positive")
    pos = r.grades(r.count("positive bar count"), n, "bar")
    r.keyword("negative")
    neg = r.grades(r.count("negative bar count"), n, "bar")
    r.done()
    return SignedBarcode._trusted(
        Barcode._trusted(tuple(sorted(pos)), n), Barcode._trusted(tuple(sorted(neg)), n)
    )


def serialize_signed_barcode(s: SignedBarcode) -> str:
    dim = s.dim if s.dim is not None else 1
    lines = ["sbarc 1", "n %d" % dim, "positive %d" % len(s.positive)]
    lines += _grade_lines(s.positive)
    lines.append("negative %d" % len(s.negative))
    lines += _grade_lines(s.negative)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# mpres


def _parse_block(r: _Reader, name: str, label: str, n: int, field: int, nrows: int):
    """Grades, ``(row, coeff)`` pairs and first token indices of the sparse
    columns after keyword ``name``; messages call column j "``label`` j"."""
    r.keyword(name)
    labels = (None, label + " %d", "entry count of " + label + " %d", label + " %d entry")
    starts, _, grades, cols = r.columns(r.count("%s count", label), n, labels, nrows, field)
    return grades, cols, starts


def parse_presentation(text: str) -> Presentation:
    r = _Reader(text)
    r.header("mpres")
    field = r.field()
    n = r.ndim()
    r.keyword("gens")
    gens = r.grades(r.count("generator count"), n, "generator")
    col_grades, cols, rel_starts = _parse_block(r, "rels", "relation", n, field, len(gens))
    r.done()
    m = GradedMatrix._trusted_pairs(tuple(gens), tuple(col_grades), cols, field, n)
    _check_grade_order(m, "relation", "generator", r, rel_starts)
    return Presentation._trusted(m)


def _check_grade_order(m: GradedMatrix, col_what: str, row_what: str, r: _Reader, starts) -> None:
    """ParseError at the first token of the column holding the least entry
    whose row grade is not at or below its column grade."""
    bad = _first_invalid(m)
    if bad is not None:
        i, j = bad
        raise r.error(
            "%s %d at grade %s has an entry on %s %d at grade %s, which is not below it"
            % (col_what, j, _grade_str(m.col_grades[j]), row_what, i, _grade_str(m.row_grades[i])),
            starts[j],
        )


def _block_lines(name: str, m: GradedMatrix) -> list[str]:
    """The block that :func:`_parse_block` reads back as ``m``'s columns."""
    lines = ["%s %d" % (name, m.num_cols)]
    for grade, col in zip(m.col_grades, m.cols):
        pairs = ["%d:%d" % rc for rc in _sorted_items(col)]
        lines.append(" ".join([fmt_float(c) for c in grade] + [str(len(pairs))] + pairs))
    return lines


def serialize_presentation(p: Presentation) -> str:
    dim = p.dim if p.dim is not None else 1
    lines = ["mpres 1", "field %d" % p.field, "n %d" % dim, "gens %d" % p.num_gens]
    lines += _grade_lines(p.gens) + _block_lines("rels", p.rels)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# mchain


def parse_chain_pair(text: str) -> ChainPair:
    r = _Reader(text)
    r.header("mchain")
    field = r.field()
    n = r.ndim()
    r.keyword("Z")
    zgrades = r.grades(r.count("Z grade count"), n, "Z grade")
    ygrades, gcols, ystarts = _parse_block(r, "Y", "Y column", n, field, len(zgrades))
    xgrades, fcols, xstarts = _parse_block(r, "X", "X column", n, field, len(ygrades))
    r.done()
    g = GradedMatrix._trusted_pairs(tuple(zgrades), tuple(ygrades), gcols, field, n)
    f = GradedMatrix._trusted_pairs(tuple(ygrades), tuple(xgrades), fcols, field, n)
    _check_grade_order(g, "Y column", "Z generator", r, ystarts)
    _check_grade_order(f, "X column", "Y column", r, xstarts)
    try:
        return ChainPair(f=f, g=g)
    except ValueError as e:
        raise ParseError(str(e))


def serialize_chain_pair(c: ChainPair) -> str:
    dim = c.g.dim if c.g.dim is not None else 1
    lines = ["mchain 1", "field %d" % c.g.field, "n %d" % dim]
    lines.append("Z %d" % c.g.num_rows)
    lines += _grade_lines(c.g.row_grades) + _block_lines("Y", c.g) + _block_lines("X", c.f)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bifiltrations


@dataclass(frozen=True, slots=True)
class Cell(_Frozen):
    """One cell: dimension, birth grade, sparse boundary over earlier cells.
    Equality and hash are the dataclass's, over all three fields."""

    dim: int
    grade: tuple
    boundary: tuple[tuple[int, int], ...]


class Bifiltration(_Frozen):
    """A one-critical filtered complex: cells with grades and boundaries.

    Validity: boundary references point to earlier cells of dimension
    one less, born at or below the referencing cell, coefficients lie
    in [1, field), and the composite boundary vanishes over the field.
    The constructor takes integer dimensions, references and coefficients
    (``TypeError`` otherwise, nothing is truncated), reduces coefficients
    mod the field and checks the references and coefficients; the one pass
    of :func:`msb.algebra._chunk_reduce`, which chunk-reduces the complex
    once, at construction, checks the rest.
    """

    __slots__ = ("cells", "field", "dim", "_chunks")  # _chunks: what _chunk_reduce returns
    _eq = ("cells", "field")

    def __init__(self, cells, field: int = 2, dim: int | None = None):
        _require_prime(field)
        norm = []
        for k, cell in enumerate(cells):
            grade = as_grade(cell.grade)
            dim = _merge_dims(dim, len(grade))
            boundary = tuple((index(i), index(c) % field) for i, c in cell.boundary)
            for idx, coeff in boundary:
                if not 0 <= idx < k:
                    msg = "cell %d boundary references cell %d, not an earlier cell"
                    raise ValueError(msg % (k, idx))
                if not coeff:
                    raise ValueError("cell %d has zero boundary coefficient on cell %d" % (k, idx))
            norm.append(Cell._trusted(index(cell.dim), grade, boundary))
        dim = _merge_dims(dim)
        self._freeze(tuple(norm), field, dim, _chunk_reduce(norm, field, dim))

    def cells_of_dim(self, d: int) -> list[int]:
        return [k for k, c in enumerate(self.cells) if c.dim == d]

    def boundary_matrix(self, d: int) -> GradedMatrix:
        """Boundary map from d-cells to (d-1)-cells as a graded matrix,
        built anew on each call; the homology route reads the chunk-reduced
        complex instead."""
        rows = self.cells_of_dim(d - 1)
        cols = self.cells_of_dim(d)
        rowpos = {k: i for i, k in enumerate(rows)}
        return GradedMatrix._trusted_pairs(
            tuple(self.cells[k].grade for k in rows),
            tuple(self.cells[k].grade for k in cols),
            [[(rowpos[idx], coeff) for idx, coeff in self.cells[k].boundary] for k in cols],
            self.field,
            self.dim,
        )

    def _chunked(self, d: int) -> tuple[GradedMatrix, tuple[int, ...]]:
        """The boundary of degree ``d`` of the chunk-reduced complex and the
        index in ``cells`` of each of its columns."""
        if d in self._chunks:
            return self._chunks[d]
        return GradedMatrix((), (), {}, field=self.field, dim=self.dim), ()

    def __repr__(self):
        return "Bifiltration(%d cells, F_%d)" % (len(self.cells), self.field)


def parse_bifiltration(text: str, field: int | None = None) -> Bifiltration:
    r = _Reader(text)
    r.header("mbif")
    file_field = r.field()
    p = file_field if field is None else field
    _require_prime(p)
    n = r.ndim()
    r.keyword("cells")
    labels = ("dimension of cell %d", "cell %d", "boundary size of cell %d", "cell %d boundary")
    _, dims, grades, boundaries = r.columns(r.count("cell count"), n, labels, None, p)
    r.done()
    cells = Cell._trusted_many(dims, grades, boundaries)
    try:  # the reader checked what Bifiltration.__init__ checks before _chunk_reduce
        return Bifiltration._trusted(tuple(cells), p, n, _chunk_reduce(cells, p, n))
    except ValueError as e:
        raise ParseError(str(e))


def serialize_bifiltration(b: Bifiltration) -> str:
    dim = b.dim if b.dim is not None else 1
    lines = ["mbif 1", "field %d" % b.field, "n %d" % dim, "cells %d" % len(b.cells)]
    for cell in b.cells:
        parts = [str(cell.dim)]
        parts.extend(fmt_float(c) for c in cell.grade)
        parts.append(str(len(cell.boundary)))
        parts.extend("%d:%d" % (i, c) for i, c in cell.boundary)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def chain_to_presentation(bif: Bifiltration, degree: int = 0) -> Presentation:
    """Presentation of the degree-d homology of a bifiltration.

    The complex was chunk-reduced (see :func:`_chunk_reduce`) when the
    bifiltration was built: its local pairs, which add nothing to homology,
    left it.  The result is :func:`homology_presentation` of the boundary
    pair of the remaining cells around degree ``degree``: a presentation of
    the same module as on the full complex, with fewer generators and
    relations, but not necessarily minimal.  Errors name the cells of the
    input.
    """
    if degree < 0:
        raise ValueError("homology degree must be nonnegative, got %d" % degree)
    g = bif._chunked(degree)[0]
    f, cells = bif._chunked(degree + 1)
    return _homology_presentation(f, g, cells)


# ---------------------------------------------------------------------------


_PARSERS = {
    "sbarc": parse_signed_barcode,
    "mpres": parse_presentation,
    "mchain": parse_chain_pair,
    "mbif": parse_bifiltration,
}


def parse_any(text: str):
    """Parse a document of any supported format by its magic token."""
    return _PARSERS[sniff_format(text)](text)
