"""Text formats for barcodes, presentations, chain pairs, bifiltrations.

Four whitespace-tokenized formats, one object per file, with ``#``
starting a comment that runs to end of line:

``sbarc 1``
    ``n <dim>``, then ``positive <count>`` followed by count grade
    lines, then ``negative <count>`` likewise.

``mpres 1``
    ``field <p>``, ``n <dim>``, ``gens <count>`` followed by count
    grade lines, then ``rels <count>`` followed by one line per
    relation: the grade, an entry count, and that many ``row:coeff``
    pairs.

``mchain 1``
    ``field <p>``, ``n <dim>``, then blocks ``Z``, ``Y``, ``X``.  The
    ``Z`` block lists target grades; each ``Y`` line carries a grade
    plus a sparse column of the map into Z (row references are Z
    indices); each ``X`` line likewise defines a column of the map
    into Y.

``mbif 1``
    ``field <p>``, ``n <dim>``, ``cells <count>``, then one line per
    cell: its dimension, its grade, an entry count, and that many
    ``index:coeff`` boundary pairs referring to earlier cells.

Serialization is canonical: barcodes are emitted in sorted order,
floats use the shortest decimal that round-trips (integral values drop
the fractional part), and sparse entries are sorted by index, so equal
objects always produce identical bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import (
    ChainPair,
    GradedMatrix,
    Presentation,
    _addmul,
    _colex,
    _column,
    _first_invalid,
    _homology_presentation,
    _is_prime,
    _items,
    _local_pairs,
    _require_prime,
)
from .grades import Barcode, SignedBarcode, _Frozen, _merge_dims, as_grade, leq


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


def fmt_float(v: float) -> str:
    """Shortest round-trip decimal; integral values print as integers."""
    if v != v or v in (float("inf"), float("-inf")):
        return repr(v)
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _grade_lines(grades) -> list[str]:
    """One line of space-separated coordinates per grade."""
    return [" ".join(fmt_float(c) for c in g) for g in grades]


_TOKEN_RE = re.compile(r"\S+")


def _scan(text: str):
    """Yield ``(token, line, column)`` outside ``#`` comments, in order."""
    for lineno, line in enumerate(text.splitlines(), 1):
        hash_at = line.find("#")
        if hash_at >= 0:
            line = line[:hash_at]
        for m in _TOKEN_RE.finditer(line):
            yield m.group(), lineno, m.start() + 1


class _Tokens:
    """Token stream with line/column tracking and typed readers."""

    def __init__(self, text: str):
        self._toks = list(_scan(text))
        self._pos = 0
        self._last = (1, 1)

    def next(self, what: str) -> tuple[str, int, int]:
        if self._pos >= len(self._toks):
            raise ParseError("unexpected end of input, expected %s" % what, *self._last)
        tok = self._toks[self._pos]
        self._pos += 1
        self._last = (tok[1], tok[2])
        return tok

    def pos(self) -> tuple[int, int]:
        if self._pos < len(self._toks):
            tok = self._toks[self._pos]
            return tok[1], tok[2]
        return self._last

    def keyword(self, word: str) -> None:
        tok, line, col = self.next("'%s'" % word)
        if tok != word:
            raise ParseError("expected '%s', got '%s'" % (word, tok), line, col)

    def _int(self, what: str, expected: str) -> tuple[int, int, int]:
        """The next token as an integer, with its line and column."""
        tok, line, col = self.next(what)
        try:
            return int(tok), line, col
        except ValueError:
            raise ParseError("expected %s, got '%s'" % (expected, tok), line, col)

    def count(self, what: str) -> int:
        n, line, col = self._int(what, "count " + what)
        if n < 0:
            raise ParseError("%s must be nonnegative, got %d" % (what, n), line, col)
        return n

    def float_(self, what: str) -> float:
        tok, line, col = self.next(what)
        try:
            v = float(tok)
        except ValueError:
            raise ParseError("expected number %s, got '%s'" % (what, tok), line, col)
        if v != v or v in (float("inf"), float("-inf")):
            raise ParseError("%s must be finite, got '%s'" % (what, tok), line, col)
        return v

    def grade(self, n: int, what: str) -> tuple:
        return tuple(self.float_("%s coordinate" % what) for _ in range(n))

    def pair(self, what: str, limit: int, field: int) -> tuple[int, int]:
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
            raise ParseError(
                "index %d out of range [0, %d) for %s" % (idx, limit, what), line, col
            )
        if not 0 < coeff < field:
            raise ParseError(
                "coefficient %d outside [1, %d) for %s" % (coeff, field, what), line, col
            )
        return idx, coeff

    def done(self) -> None:
        if self._pos < len(self._toks):
            tok, line, col = self._toks[self._pos]
            raise ParseError("trailing input '%s'" % tok, line, col)

    def header(self, magic: str) -> None:
        self.keyword(magic)
        tok, line, col = self.next("format version")
        if tok != "1":
            raise ParseError("unsupported %s version '%s'" % (magic, tok), line, col)

    def field(self) -> int:
        self.keyword("field")
        p, line, col = self._int("field order", "field order")
        if not _is_prime(p):
            raise ParseError("field order must be prime, got %d" % p, line, col)
        return p

    def ndim(self) -> int:
        self.keyword("n")
        n, line, col = self._int("grade dimension", "grade dimension")
        if n < 1:
            raise ParseError("grade dimension must be positive, got %d" % n, line, col)
        return n


def sniff_format(text: str) -> str:
    """First token of the file: one of sbarc, mpres, mchain, mbif."""
    first = next(_scan(text), None)
    if first is None:
        raise ParseError("unexpected end of input, expected format magic", 1, 1)
    tok, line, col = first
    if tok not in ("sbarc", "mpres", "mchain", "mbif"):
        raise ParseError("unknown format '%s'" % tok, line, col)
    return tok


# ---------------------------------------------------------------------------
# sbarc


def parse_signed_barcode(text: str) -> SignedBarcode:
    t = _Tokens(text)
    t.header("sbarc")
    n = t.ndim()
    t.keyword("positive")
    pos = [t.grade(n, "bar") for _ in range(t.count("positive bar count"))]
    t.keyword("negative")
    neg = [t.grade(n, "bar") for _ in range(t.count("negative bar count"))]
    t.done()
    return SignedBarcode(Barcode(pos, dim=n), Barcode(neg, dim=n))


def serialize_signed_barcode(s: SignedBarcode) -> str:
    dim = s.dim
    if dim is None:
        dim = 1
    lines = ["sbarc 1", "n %d" % dim, "positive %d" % len(s.positive)]
    lines += _grade_lines(s.positive)
    lines.append("negative %d" % len(s.negative))
    lines += _grade_lines(s.negative)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# mpres


def _parse_block(t: _Tokens, name: str, label: str, n: int, field: int, nrows: int):
    """Grades, entries and input positions of the sparse columns after
    keyword ``name``; messages call column j "``label`` j"."""
    t.keyword(name)
    count = t.count("%s count" % label)
    grades = []
    entries = {}
    pos = []
    for j in range(count):
        pos.append(t.pos())
        grades.append(t.grade(n, "%s %d" % (label, j)))
        nnz = t.count("entry count of %s %d" % (label, j))
        for _ in range(nnz):
            i, coeff = t.pair("%s %d entry" % (label, j), nrows, field)
            entries[(i, j)] = coeff
    return grades, entries, pos


def parse_presentation(text: str) -> Presentation:
    t = _Tokens(text)
    t.header("mpres")
    field = t.field()
    n = t.ndim()
    t.keyword("gens")
    gens = [t.grade(n, "generator") for _ in range(t.count("generator count"))]
    col_grades, entries, rel_pos = _parse_block(t, "rels", "relation", n, field, len(gens))
    t.done()
    m = GradedMatrix(tuple(gens), tuple(col_grades), entries, field=field, dim=n)
    _check_grade_order(m, "relation", "generator", rel_pos)
    return Presentation(m.row_grades, m)


def _grade_str(g) -> str:
    return "(" + ", ".join(fmt_float(c) for c in g) + ")"


def _check_grade_order(m: GradedMatrix, col_what: str, row_what: str, col_pos) -> None:
    """ParseError at the input position of the column holding the least
    entry whose row grade is not at or below its column grade."""
    bad = _first_invalid(m)
    if bad is not None:
        i, j = bad
        raise ParseError(
            "%s %d at grade %s has an entry on %s %d at grade %s, which is not below it"
            % (col_what, j, _grade_str(m.col_grades[j]), row_what, i, _grade_str(m.row_grades[i])),
            *col_pos[j],
        )


def _block_lines(name: str, m: GradedMatrix) -> list[str]:
    """The block that :func:`_parse_block` reads back as ``m``'s columns."""
    lines = ["%s %d" % (name, m.num_cols)]
    for grade, col in zip(m.col_grades, m.columns()):
        pairs = ["%d:%d" % (i, col[i]) for i in sorted(col)]
        lines.append(" ".join([fmt_float(c) for c in grade] + [str(len(col))] + pairs))
    return lines


def serialize_presentation(p: Presentation) -> str:
    dim = p.dim if p.dim is not None else 1
    lines = ["mpres 1", "field %d" % p.field, "n %d" % dim, "gens %d" % p.num_gens]
    lines += _grade_lines(p.gens) + _block_lines("rels", p.rels)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# mchain


def parse_chain_pair(text: str) -> ChainPair:
    t = _Tokens(text)
    t.header("mchain")
    field = t.field()
    n = t.ndim()
    t.keyword("Z")
    zcount = t.count("Z grade count")
    zgrades = [t.grade(n, "Z grade") for _ in range(zcount)]
    ygrades, gentries, ypos = _parse_block(t, "Y", "Y column", n, field, zcount)
    xgrades, fentries, xpos = _parse_block(t, "X", "X column", n, field, len(ygrades))
    t.done()
    g = GradedMatrix(tuple(zgrades), tuple(ygrades), gentries, field=field, dim=n)
    f = GradedMatrix(tuple(ygrades), tuple(xgrades), fentries, field=field, dim=n)
    _check_grade_order(g, "Y column", "Z generator", ypos)
    _check_grade_order(f, "X column", "Y column", xpos)
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


@dataclass(frozen=True)
class Cell:
    """One cell: dimension, birth grade, sparse boundary over earlier cells."""

    dim: int
    grade: tuple
    boundary: tuple[tuple[int, int], ...]


class Bifiltration(_Frozen):
    """A one-critical filtered complex: cells with grades and boundaries.

    Validity: boundary references point to earlier cells of dimension
    one less, born at or below the referencing cell, coefficients lie
    in [1, field), and the composite boundary vanishes over the field.
    The complex is chunk-reduced (see :func:`_chunk_reduce`) once, at
    construction.
    """

    __slots__ = ("cells", "field", "dim", "_chunks")

    def __init__(self, cells, field: int = 2, dim: int | None = None):
        _require_prime(field)
        norm = []
        for k, cell in enumerate(cells):
            grade = as_grade(cell.grade)
            dim = _merge_dims(dim, len(grade))
            if cell.dim < 0:
                raise ValueError("cell %d has negative dimension" % k)
            for idx, coeff in cell.boundary:
                if not 0 <= idx < k:
                    raise ValueError(
                        "cell %d boundary references cell %d, not an earlier cell"
                        % (k, idx)
                    )
                face = norm[idx]
                if face.dim != cell.dim - 1:
                    raise ValueError(
                        "cell %d (dimension %d) has boundary cell %d of dimension %d"
                        % (k, cell.dim, idx, face.dim)
                    )
                if not leq(face.grade, grade):
                    raise ValueError(
                        "cell %d born at %s has boundary cell %d born later at %s"
                        % (k, _grade_str(grade), idx, _grade_str(face.grade))
                    )
                if not 0 < coeff % field:
                    raise ValueError(
                        "cell %d has zero boundary coefficient on cell %d" % (k, idx)
                    )
            norm.append(
                Cell(cell.dim, grade, tuple((i, c % field) for i, c in cell.boundary))
            )
        # _chunks: degree -> chunk-reduced boundary and its column cells
        chunks = _chunk_reduce(norm, field, dim)
        self._freeze(cells=tuple(norm), field=field, dim=dim, _chunks=chunks)

    def max_cell_dim(self) -> int:
        return max((c.dim for c in self.cells), default=-1)

    def cells_of_dim(self, d: int) -> list[int]:
        return [k for k, c in enumerate(self.cells) if c.dim == d]

    def boundary_matrix(self, d: int) -> GradedMatrix:
        """Boundary map from d-cells to (d-1)-cells as a graded matrix,
        built anew on each call; the homology route reads the chunk-reduced
        complex instead."""
        rows = self.cells_of_dim(d - 1)
        cols = self.cells_of_dim(d)
        rowpos = {k: i for i, k in enumerate(rows)}
        entries = {}
        for j, k in enumerate(cols):
            for idx, coeff in self.cells[k].boundary:
                entries[(rowpos[idx], j)] = coeff
        return GradedMatrix(
            tuple(self.cells[k].grade for k in rows),
            tuple(self.cells[k].grade for k in cols),
            entries,
            field=self.field,
            dim=self.dim,
        )

    def _chunked(self, d: int) -> tuple[GradedMatrix, tuple[int, ...]]:
        """The boundary of degree ``d`` of the chunk-reduced complex and the
        index in ``cells`` of each of its columns."""
        if d in self._chunks:
            return self._chunks[d]
        return GradedMatrix((), (), {}, field=self.field, dim=self.dim), ()

    def __eq__(self, other):
        if not isinstance(other, Bifiltration):
            return NotImplemented
        return self.cells == other.cells and self.field == other.field

    def __repr__(self):
        return "Bifiltration(%d cells, F_%d)" % (len(self.cells), self.field)


def _chunk_reduce(cells, p: int, dim: int | None) -> dict:
    """Chunk reduction (Fugacci-Kerber, arXiv:1812.08580) of every degree.

    The boundary of each cell is packed once, over the cells of the degree
    below numbered in colex grade order, ties by index.  ``ValueError``
    names the first cell, in input order, whose boundary has a nonzero
    boundary.  Then, from the top degree down, :func:`_local_pairs` takes
    the local pairs of each boundary, skipping the cells that left as rows
    of the degree above; both cells of a pair leave the complex.  The
    remaining boundaries drop their entries on cells that left as columns.

    Returns, per degree d from 0 to the top degree + 1, the boundary from
    the remaining d-cells to the remaining (d-1)-cells, both in colex
    order, and the indices in ``cells`` of those d-cells.
    """
    top = max((c.dim for c in cells), default=-1)
    # degree -> cells in colex order; here degree -1 reads as the empty
    # degree top + 1
    order = [[] for _ in range(top + 2)]
    for k, cell in enumerate(cells):
        order[cell.dim].append(k)
    at = {}  # cell -> its position in the order of its degree
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
    rest = [{} for _ in order]  # position of a remaining cell -> its column
    skip = ()
    for d in range(top, -1, -1):
        skip, rest[d] = _local_pairs(cols[d], grades[d - 1], grades[d], p, skip)
    out = {}
    for d in range(top + 2):
        row = {j: n for n, j in enumerate(rest[d - 1])}
        kept = rest[d].values()
        entries = {(row[i], n): v for n, col in enumerate(kept) for i, v in _items(col) if i in row}
        ks = tuple(order[d][j] for j in rest[d])
        m = GradedMatrix(
            tuple(grades[d - 1][j] for j in row),
            tuple(cells[k].grade for k in ks),
            entries,
            field=p,
            dim=dim,
        )
        out[d] = (m, ks)
    return out


def parse_bifiltration(text: str, field: int | None = None) -> Bifiltration:
    t = _Tokens(text)
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
        d = t._int(what, "integer " + what)[0]
        grade = t.grade(n, "cell %d" % k)
        nnz = t.count("boundary size of cell %d" % k)
        boundary = tuple(
            t.pair("cell %d boundary" % k, k, p) for _ in range(nnz)
        )
        cells.append(Cell(d, grade, boundary))
    t.done()
    try:
        return Bifiltration(cells, field=p, dim=n)
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
    g, ycells = bif._chunked(degree)
    f, xcells = bif._chunked(degree + 1)
    return _homology_presentation(f, g, (ycells, xcells))


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
