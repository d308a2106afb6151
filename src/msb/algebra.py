"""Graded matrices over a prime field, presentations, and Betti barcodes.

A ``GradedMatrix`` records a map of free persistence modules: rows are
target generators, columns are source generators, and each carries a
grade.  The matrix is grade-valid when every nonzero entry sits in a
row whose grade is componentwise below its column's grade.  A
``Presentation`` is such a matrix read as generators (rows) and
relations (columns); the presented module is its cokernel.

The minimal Hilbert decomposition of a finitely presented module over
one or two parameters is computed from a minimal presentation plus, in
the two-parameter case, the kernel of its relation matrix (the module
of second syzygies, which is free).  Kernel output is never trusted
blindly: each kernel vector is checked where it leaves (independence in
the reducer the homology solve then reads), and the number of generators
at every point of the grid of column grade coordinates, which alone fixes
the Betti grades, against a rank count made in one pass of its own, or
the computation aborts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import index, le

from .grades import (
    Barcode,
    DimensionMismatch,
    Grade,
    SignedBarcode,
    _Frozen,
    _grade_str,
    _merge_dims,
    as_grade,
    barcode_union,
    leq,
)


class GradedValidityError(ValueError):
    """A nonzero entry violates row_grade <= col_grade."""


class UnsupportedDimension(ValueError):
    """Raised for operations only available in one or two parameters."""


class KernelCheckError(RuntimeError):
    """The computed kernel failed its check of the vectors or of the ranks."""


# ---------------------------------------------------------------------------
# field elements are plain ints in [0, p)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _require_prime(p: int) -> None:
    if not _is_prime(index(p)):
        raise ValueError("field order must be prime, got %r" % (p,))


def _inv(a: int, p: int) -> int:
    return pow(a, p - 2, p)


def _colex(g: Grade):
    return tuple(reversed(g))


# ---------------------------------------------------------------------------


class GradedMatrix(_Frozen):
    """Sparse matrix over a prime field with graded rows and columns.

    ``cols`` holds the columns in the encoding of the field (see the
    column helpers below): an int per column over F_2, a dict row ->
    coeff over an odd prime.  The constructor takes ``entries``, a map
    ``(row, col) -> coeff`` of integers, and the ``entries`` property
    reads the nonzero ones back as a new dict.  ``dim`` is the grade
    dimension; it must be passed explicitly when the matrix has neither
    rows nor columns.
    """

    __slots__ = ("row_grades", "col_grades", "cols", "field", "dim")
    _eq = ("row_grades", "col_grades", "cols", "field")

    def __init__(self, row_grades, col_grades, entries, field=2, dim=None):
        _require_prime(field)
        rg = tuple(as_grade(g) for g in row_grades)
        cg = tuple(as_grade(g) for g in col_grades)
        dim = _merge_dims(dim, *map(len, rg + cg))
        cols = [[] for _ in cg]
        for (i, j), v in entries.items():
            i, j, v = index(i), index(j), index(v) % field
            if not (0 <= i < len(rg)) or not (0 <= j < len(cg)):
                raise IndexError("entry (%d, %d) outside matrix shape" % (i, j))
            if v:
                cols[j].append((i, v))
        self._freeze(rg, cg, tuple(_column(c, field) for c in cols), field, dim)

    @classmethod
    def _trusted_pairs(cls, row_grades, col_grades, cols, field, dim):
        """A new matrix whose column j has the ``(row, coeff)`` pairs of
        ``cols[j]``, known valid (a later pair for a row replacing an
        earlier one), packed unchecked."""
        return cls._trusted(row_grades, col_grades, tuple(_column(c, field) for c in cols), field, dim)

    @property
    def entries(self) -> dict:
        """``(row, col) -> coeff`` for each nonzero entry, a new dict on each read."""
        return {(i, j): v for j, col in enumerate(self.cols) for i, v in _items(col)}

    @property
    def num_rows(self) -> int:
        return len(self.row_grades)

    @property
    def num_cols(self) -> int:
        return len(self.col_grades)

    def columns(self) -> list[dict]:
        return [dict(_items(col)) for col in self.cols]

    def matmul(self, other: "GradedMatrix") -> "GradedMatrix":
        """Composite self @ other, for self: Y -> Z and other: X -> Y."""
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.col_grades != other.row_grades:
            raise DimensionMismatch("inner grades disagree in matrix product")
        p = self.field
        # column x of the product is the sum of self's columns y times other[y, x]
        out = []
        for col in other.cols:
            acc = _column((), p)
            for y, c in _items(col):
                acc = _addmul(acc, self.cols[y], c, p)
            out.append(acc)
        dim = _merge_dims(self.dim, other.dim if other.col_grades else None)
        return GradedMatrix._trusted(self.row_grades, other.col_grades, tuple(out), p, dim)

    # odd-prime columns are dicts, which cannot be hashed, so the hash reads the entries
    def __hash__(self):
        return hash(
            (self.row_grades, self.col_grades, frozenset(self.entries.items()), self.field)
        )

    def __repr__(self) -> str:
        return "GradedMatrix(%d rows, %d cols, %d entries, F_%d)" % (
            self.num_rows,
            self.num_cols,
            len(self.entries),
            self.field,
        )


def _first_invalid(m: GradedMatrix) -> tuple[int, int] | None:
    """The least ``(row, col)`` of a nonzero entry whose row grade is not
    at or below its column grade, or None when ``m`` is grade-valid."""
    rg, cg = m.row_grades, m.col_grades
    bad = ((i, j) for j, col in enumerate(m.cols) for i, _ in _items(col) if not leq(rg[i], cg[j]))
    return min(bad, default=None)


def validate_graded(m: GradedMatrix) -> bool:
    """True when every nonzero entry has row_grade <= col_grade."""
    return _first_invalid(m) is None


def _require_valid(m: GradedMatrix) -> None:
    bad = _first_invalid(m)
    if bad is not None:
        i, j = bad
        raise GradedValidityError(
            "entry at row %d (grade %r) column %d (grade %r) violates "
            "row_grade <= col_grade" % (i, m.row_grades[i], j, m.col_grades[j])
        )


class Presentation(_Frozen):
    """Generators with grades plus a grade-valid relation matrix.

    Rows of ``rels`` are the generators, columns the relations; the
    presented module is the cokernel.  A free module is a presentation
    with no relation columns, over ``field`` (2 when None).  With ``rels``
    given, a ``field`` or ``dim`` that disagrees with it raises, and a
    ``dim`` given with relations of unknown dimension is taken.
    """

    __slots__ = ("rels",)

    def __init__(self, gens, rels: GradedMatrix | None = None, field=None, dim=None):
        if rels is None:
            rels = GradedMatrix(tuple(gens), (), {}, field=2 if field is None else field, dim=dim)
        else:
            if tuple(as_grade(g) for g in gens) != rels.row_grades:
                raise ValueError("generator grades disagree with relation row grades")
            if field not in (None, rels.field):
                raise ValueError("field %r disagrees with the relations' field %d" % (field, rels.field))
            if _merge_dims(dim, rels.dim) != rels.dim:
                rels = GradedMatrix._trusted(rels.row_grades, rels.col_grades, rels.cols, rels.field, dim)
        _require_valid(rels)
        self._freeze(rels)

    @classmethod
    def from_relations(cls, gens, rel_specs, field=2, dim=None):
        """Build from ``rel_specs`` = iterable of (grade, {row: coeff})."""
        col_grades = []
        entries = {}
        for j, (grade, col) in enumerate(rel_specs):
            col_grades.append(grade)
            for i, v in col.items():
                entries[(i, j)] = v
        m = GradedMatrix(gens, col_grades, entries, field=field, dim=dim)
        _require_valid(m)
        return cls._trusted(m)

    @property
    def gens(self) -> tuple:
        return self.rels.row_grades

    @property
    def field(self) -> int:
        return self.rels.field

    @property
    def dim(self) -> int | None:
        return self.rels.dim

    @property
    def num_gens(self) -> int:
        return self.rels.num_rows

    @property
    def num_rels(self) -> int:
        return self.rels.num_cols

    def __repr__(self) -> str:
        return "Presentation(%d gens, %d rels, F_%d)" % (
            self.num_gens,
            self.num_rels,
            self.field,
        )


def direct_sum(*presentations: Presentation) -> Presentation:
    """Block-diagonal sum of presentations over one field and dimension."""
    if not presentations:
        raise ValueError("direct_sum needs at least one presentation")
    field = presentations[0].field
    dim = None
    gens, col_grades, cols = [], [], []
    for pr in presentations:
        if pr.field != field:
            raise ValueError("field mismatch in direct sum")
        dim = _merge_dims(dim, pr.dim)
        off = len(gens)
        gens += pr.gens
        col_grades += pr.rels.col_grades
        cols += (_shift(col, off, field) for col in pr.rels.cols)
    m = GradedMatrix._trusted(tuple(gens), tuple(col_grades), tuple(cols), field, dim)
    return Presentation._trusted(m)


# ---------------------------------------------------------------------------
# column reduction.  Over F_2 a column is an int with bit r set for each
# nonzero row r, so adding columns is XOR and the largest row is
# ``bit_length() - 1``; over an odd prime it is a dict row -> coeff.  The
# field fixes the encoding, and only this module packs, adds or reduces
# columns.  A ``GradedMatrix`` keeps its columns packed, so stages read
# ``m.cols`` and freeze the columns they compute; ``_column`` builds one,
# ``_shift`` moves one up (and stacks it over a label row), ``_addmul``
# combines two, ``_lead`` finds its largest row, ``_items`` unpacks one
# (``_sorted_items`` by row, for output) and ``_renumber``, the one row
# map, renumbers many.
# Beyond these helpers, ``_Reducer`` and the fused pass of ``_chunk_reduce``
# alone test the field.


def _addmul(dst, src, a: int, p: int):
    """``dst + a * src``: a new int over F_2, ``dst`` updated in place over
    an odd prime."""
    if p == 2:
        return dst ^ src
    for k, v in src.items():
        nv = (dst.get(k, 0) + a * v) % p
        if nv:
            dst[k] = nv
        elif k in dst:
            del dst[k]
    return dst


def _column(items, p: int):
    """The column with the given ``(row, coeff)`` pairs, a later pair for
    a row replacing an earlier one; the inverse of ``_items``."""
    if p != 2:
        return dict(items)
    col = 0
    for r, _ in items:
        col |= 1 << r
    return col


def _shift(col, n: int, p: int, label=None):
    """``col`` moved up ``n`` rows, over a 1 in row ``label`` when given."""
    if p == 2:
        return col << n | (0 if label is None else 1 << label)
    out = {r + n: v for r, v in col.items()}
    if label is not None:
        out[label] = 1
    return out


def _lead(col) -> int:
    """The largest row of a nonzero column in either encoding."""
    return col.bit_length() - 1 if isinstance(col, int) else max(col)


def _items(col):
    """The ``(row, coeff)`` pairs of a column in either encoding."""
    if not isinstance(col, int):
        return col.items()
    out = []
    while col:
        low = col & -col
        out.append((low.bit_length() - 1, 1))
        col ^= low
    return out


def _sorted_items(col) -> list:
    """The ``(row, coeff)`` pairs of a column in either encoding, by row."""
    return _items(col) if isinstance(col, int) else sorted(col.items())


def _renumber(cols, rows, p: int) -> tuple:
    """``cols`` with old row ``rows[k]`` moved to row ``k`` and every row
    not in ``rows`` dropped."""
    if p != 2:
        at = {r: k for k, r in enumerate(rows)}
        return tuple({at[r]: v for r, v in col.items() if r in at} for col in cols)
    bit = {r: 1 << k for k, r in enumerate(rows)}
    out = []
    for col in cols:
        new = 0
        while col:
            low = col & -col
            new |= bit.get(low.bit_length() - 1, 0)
            col ^= low
        out.append(new)
    return tuple(out)


class _Reducer:
    """Column echelon form over F_p, the one elimination loop here.

    A column is reduced while its largest row is the pivot of a stored
    column and not one of the ``low`` label rows at the bottom.  A caller
    tracking combinations stacks each column over a 1 on its own label row
    (``_shift``); the steps carry the labels, so a column left zero from
    ``low`` up is, in its labels, a combination of inserted columns.
    Stored pivot columns are monic.  Columns are encoded by the field (see
    above).  Over F_2 a step is ``col ^= pivot``; over an odd prime it
    adds ``p - c`` times the monic pivot column, where ``c`` is the
    coefficient of the largest row, so it takes no inverse.  Both give the
    same pivots, so the same reduced columns.

    A column may carry a ``key``, its place in an order the caller fixes,
    when every stored column has one.  A keyed column is reduced only by
    the pivots of columns with smaller keys.  On reaching a pivot held by a
    larger key it takes that pivot, made monic, and the displaced column
    goes on in its place: the step is the same, only the column that holds
    the pivot changes.  So each stored column, labels too, is its own
    inserted column plus columns of smaller keys, as if all had gone in in
    key order, and the column left may be another than the one inserted.
    """

    __slots__ = ("p", "low", "pivots", "keys")

    def __init__(self, p: int, low: int = 0):
        self.p = p
        self.low = low  # the number of label rows
        self.pivots: dict = {}  # largest row -> stored column
        self.keys: dict = {}  # largest row -> the key of its column

    def reduce(self, col, key=None) -> tuple:
        """``(col, key)`` of the column left: zero from ``low`` up, or with a
        non-pivot largest row.  Only a keyed column displaces stored ones."""
        pivots, low = self.pivots, self.low
        if self.p == 2:
            while (r := col.bit_length() - 1) >= low:
                piv = pivots.get(r)
                if piv is None:
                    break
                if key is not None and self.keys[r] > key:
                    # this column takes the pivot; the step below leaves the displaced one
                    keys = self.keys
                    pivots[r], keys[r], key = col, key, keys[r]
                col ^= piv
            return col, key
        p = self.p
        cur = dict(col)
        while cur and (r := max(cur)) >= low:
            piv = pivots.get(r)
            if piv is None:
                break
            if key is not None and self.keys[r] > key:
                # this column takes the pivot, made monic; the displaced one steps on
                keys = self.keys
                pivots[r], cur = _addmul({}, cur, _inv(cur[r], p), p), dict(piv)
                keys[r], key = key, keys[r]
                piv = pivots[r]
            _addmul(cur, piv, p - cur[r], p)
        return cur, key

    def insert(self, col, key=None):
        """Reduce ``col`` and keep the column left, made monic, as a pivot
        column unless it is zero from ``low`` up; returns None when it kept
        one, and otherwise ``(col, key)`` of the column left."""
        col, key = self.reduce(col, key)
        p = self.p
        r = col.bit_length() - 1 if p == 2 else max(col, default=-1)
        if r < self.low:
            return col, key
        if p != 2:
            col = _addmul({}, col, _inv(col[r], p), p)
        self.pivots[r], self.keys[r] = col, key
        return None

    def clear(self, cols) -> list:
        """Each of ``cols`` plus the multiples of stored columns that leave
        it no entry on any pivot row.  The pivot of a stored column is its
        largest row, so clearing the largest pivot row first only touches
        rows below it; over F_2 the rows left to clear are ``col & mask``.
        """
        pivots, p = self.pivots, self.p
        out = []
        if p == 2:
            mask = 0
            for r in pivots:
                mask |= 1 << r
            for col in cols:
                hit = col & mask
                while hit:
                    col ^= pivots[hit.bit_length() - 1]
                    hit = col & mask
                out.append(col)
            return out
        for col in cols:
            col = dict(col)
            hit = [r for r in col if r in pivots]
            while hit:
                r = max(hit)
                _addmul(col, pivots[r], p - col[r], p)
                hit = [r for r in col if r in pivots]
            out.append(col)
        return out


def _local_pairs(cols, row_grades, col_grades, p: int, skip=()) -> tuple:
    """The local pairs (Lesnick-Wright, arXiv:1902.05708) of a grade-valid
    matrix whose rows and columns are numbered in colex grade order, ties
    by index.

    Each column not in ``skip`` is reduced by the local columns before it,
    and is local when its largest row then has its grade.  A grade-valid
    column's rows are at or below its grade, so under this numbering that
    largest row is the largest row of the column's grade, if it has one.
    The row and column of a local pair leave together: they add nothing to
    the cokernel, nor to homology.  Returns the pivot rows of the local
    columns, and (position -> column) every other column not in ``skip``
    plus the unique combination of local columns that leaves it no entry
    on those rows (``_Reducer.clear``); clearing with columns of their
    pivot rows' grades keeps the matrix grade-valid.
    """
    local = _Reducer(p)
    rest = {}
    for j, col in enumerate(cols):
        if j in skip:
            continue
        col = local.reduce(col)[0]
        if col and row_grades[_lead(col)] == col_grades[j]:
            local.insert(col)
        else:
            rest[j] = col
    return set(local.pivots), dict(zip(rest, local.clear(rest.values())))


def _chunk_reduce(cells, p: int, dim: int | None) -> dict:
    """Check ``cells``, whose grades and boundary entries (earlier cells,
    coefficients in [1, p)) are known valid, and chunk-reduce (Fugacci-Kerber,
    arXiv:1812.08580) every degree.

    The cells of each degree are numbered in colex grade order, ties by
    index.  One pass over the cells in input order then checks each cell (a
    nonnegative dimension; faces of one dimension less, born at or below
    it), packs its boundary over the degree below, a later pair for a face
    replacing an earlier one, and sums its faces' packed columns into the
    boundary of its boundary.  A failed check raises ``ValueError`` at once;
    after the pass, so does the first cell with a nonzero one.  Then, from
    the top degree down, :func:`_local_pairs` takes the local pairs of each
    boundary, skipping the cells that left as rows of the degree above; both
    cells of a pair leave the complex.  The remaining boundaries drop their
    entries on cells that left as columns.

    Returns, per degree d from 0 to the top degree + 1, the boundary from
    the remaining d-cells to the remaining (d-1)-cells, both in colex
    order, and the indices in ``cells`` of those d-cells.
    """
    top = max((c.dim for c in cells), default=-1)
    # degree -> cells in colex order; degree -1 reads as the empty degree top + 1
    order = [[] for _ in range(top + 2)]
    for k, cell in enumerate(cells):
        if cell.dim >= 0:
            order[cell.dim].append(k)
    keys = [_colex(cell.grade) for cell in cells]
    at = {}  # cell -> its position in the order of its degree
    for ks in order:
        ks.sort(key=keys.__getitem__)
        at.update(zip(ks, range(len(ks))))
    cols = [[None] * len(ks) for ks in order]
    bad = None  # the first cell whose boundary has a nonzero boundary
    for k, cell in enumerate(cells):
        d, grade = cell.dim, cell.grade
        if d < 0:
            raise ValueError("cell %d has negative dimension" % k)
        below = cols[d - 1]
        col, dd = (0, 0) if p == 2 else ({}, {})  # empty columns in the field's encoding
        for idx, coeff in cell.boundary:
            face = cells[idx]
            if face.dim != d - 1:
                msg = "cell %d (dimension %d) has boundary cell %d of dimension %d"
                raise ValueError(msg % (k, d, idx, face.dim))
            if not all(map(le, face.grade, grade)):
                msg = "cell %d born at %s has boundary cell %d born later at %s"
                raise ValueError(msg % (k, _grade_str(grade), idx, _grade_str(face.grade)))
            i = at[idx]
            if p == 2:
                if not col >> i & 1:
                    col |= 1 << i
                    dd ^= below[i]
            else:
                dd = _addmul(dd, below[i], coeff - col.get(i, 0), p)
                col[i] = coeff
        cols[d][at[k]] = col
        if dd and bad is None:
            bad = k
    if bad is not None:
        msg = "cell %d (dimension %d) born at %s has a boundary whose boundary is nonzero"
        raise ValueError(msg % (bad, cells[bad].dim, _grade_str(cells[bad].grade)))
    grades = [[cells[k].grade for k in ks] for ks in order]
    rest = [{} for _ in order]  # position of a remaining cell -> its column
    skip = ()
    for d in range(top, -1, -1):
        skip, rest[d] = _local_pairs(cols[d], grades[d - 1], grades[d], p, skip)
    out = {}
    for d in range(top + 2):
        kept = _renumber(rest[d].values(), rest[d - 1], p)
        ks = tuple(order[d][j] for j in rest[d])
        rg = tuple(grades[d - 1][j] for j in rest[d - 1])
        m = GradedMatrix._trusted(rg, tuple(cells[k].grade for k in ks), kept, p, dim)
        out[d] = (m, ks)
    return out


# ---------------------------------------------------------------------------


def _sweep(cols, grades, p: int, track: bool, verify: str | None) -> tuple:
    """The one span test here, read by :func:`minimize_presentation`,
    :func:`kernel_basis` and :func:`betti`, over packed ``cols``.

    Grades become index pairs ``(i, j)``: ``i`` on the sorted x axis, ``j``
    on the rows, the grades without x in tuple order (a linear extension of
    <=; one row ``()`` in one parameter).  A column's key (see
    :class:`_Reducer`) is its place in x order, ties by index, and each row
    inserts columns in key order.  In one and two parameters, where the rows
    are a chain, one reducer lasts the whole sweep and row ``j`` inserts
    only the columns born in it; as keys ascend with x, after row ``j`` the
    columns of x index at most ``i`` stand as if only they, of the rows up
    to ``j``, had gone in.  In three or more each row starts a fresh reducer
    and inserts every column at or below it, so none is displaced.  Each
    column that turns zero is an *event*: its grade, the column that found
    it and the column left.  A column is *dependent*, in the span of the
    columns before it at or below its grade, when it is zero on entering its
    own row: exactly when an event is at its own grade, as a column
    displaced in row ``j`` went in at an earlier row.  In three or more it
    turns zero again in each later row, changing nothing.

    In one and two parameters, not in three or more, the events are kernel
    generators.  With ``track`` column ``k`` goes in over label row ``k``
    (see :class:`_Reducer`), so the labels of the column left are its
    combination: its own index plus columns of smaller keys.  Label rows
    never steer a pivot, so the events are the same either way.  These
    combinations are independent, and after row ``j`` those of x index at
    most ``i`` span the fiber kernel at ``(i, j)``: the minimal generators
    born at ``(i, j)`` are those of the columns of x index ``i`` that turn
    zero in row ``j``.  A dependent column is one of them, at its own grade:
    the kernel is that of the other columns plus one free generator for
    each.  :func:`_kernel_basis` scales and checks the combinations.

    With ``verify``, a stage name, :class:`KernelCheckError` in that name is
    raised unless at every grid point the events at or below it number the
    corank of its fiber; the kernel is free, so that fixes the multiset of
    the event grades.
    The count shares no state with the sweep and runs transposed to it:
    one rank-only reducer takes the columns x index by x index, each once,
    keyed by row then index.  By the displacement, after x index ``i`` the
    pivots held by columns of rows up to ``j`` span the columns at or below
    ``(i, j)``, so the corank there is the number of those columns that
    hold none (the rows must be a chain, as they are wherever ``verify``
    runs).  Per row, the events and the columns left are counted; the two
    lists are equal exactly when every grid point's prefix sums agree.
    Returns the events as ``(grade, column that found it, column left)`` in
    discovery order: by row, then by key.
    """
    if not cols:
        return []
    xs = sorted({g[0] for g in grades})
    rows = sorted({g[1:] for g in grades})
    ix, iy = {v: i for i, v in enumerate(xs)}, {t: j for j, t in enumerate(rows)}
    cx, cy = [ix[g[0]] for g in grades], [iy[g[1:]] for g in grades]
    ny = len(rows)
    order = sorted(range(len(cols)), key=cx.__getitem__)  # key -> column; sorted() is stable
    key, by_y = [0] * len(cols), [[] for _ in rows]
    for n, k in enumerate(order):
        key[k] = n
        by_y[cy[k]].append(k)
    chain = len(grades[0]) < 3  # where cy[k] <= j is leq itself
    gens = []  # the events: (j, key of the column that found it, column left)
    low = len(cols) if track else 0  # label rows
    stacked = [_shift(col, low, p, k) for k, col in enumerate(cols)] if track else cols
    red = _Reducer(p, low)
    for j, t in enumerate(rows):
        if chain:
            new = by_y[j]
        else:
            red, new = _Reducer(p, low), [k for k in order if leq(grades[k][1:], t)]
        for k in new:
            if (left := red.insert(stacked[k], key[k])) is not None:
                gens.append((j, left[1], left[0]))
    gens.sort()  # by row, then by key; no two events share both
    gens = [(cx[order[n]], j, order[n], vec) for j, n, vec in gens]

    if verify:
        at_x = [[] for _ in xs]  # at_x[i]: the row index of each generator at x index i
        for i, j, _, _ in gens:
            at_x[i].append(j)
        C, rank = len(cols), _Reducer(p)
        born, free = [0] * ny, [0] * ny  # per row index, at x index <= i
        for i, at_i in groupby(order, cx.__getitem__):  # every x index has a column
            for j in at_x[i]:
                born[j] += 1
            for k in at_i:
                if (left := rank.insert(cols[k], cy[k] * C + k)) is not None:
                    free[left[1] // C] += 1
            if born != free:
                j = next(j for j in range(ny) if born[j] != free[j])
                raise KernelCheckError(
                    "%s: kernel rank check failed at grade %r: "
                    "%d generators born, fiber kernel has dimension %d"
                    % (verify, (xs[i],) + rows[j], sum(born[: j + 1]), sum(free[: j + 1]))
                )
    return [((xs[i],) + rows[j], k, vec) for i, j, k, vec in gens]


def minimize_presentation(pres: Presentation) -> Presentation:
    """Return a presentation of an isomorphic module with no removable part.

    Two passes.  First, delete the local pairs of :func:`_local_pairs`,
    with generators and relations numbered in colexicographic grade order:
    a relation whose reduced column has its largest entry on a generator
    of its own grade (the coefficient is a unit there) takes that
    generator with it, and the other relations are cleared of the
    generators that leave.  Second, drop the dependent columns of
    :func:`_sweep` over the rest in that order: those in the span of the
    columns before them at or below their grade (where x order and colex
    order agree).  After both passes the generator and relation grades are
    the degree-0 and degree-1 Betti barcodes of the module.
    """
    return _minimize(pres, None)[0]


def _minimize(pres: Presentation, verify: str | None) -> tuple:
    """:func:`minimize_presentation`, and its relations' kernel grades (one
    or two parameters: the events of the sweep but the dependent columns'
    own), certified by its rank count in the name of the stage ``verify``
    when given."""
    p = pres.field
    gens, rels = pres.gens, pres.rels
    # sorted() is stable, so ties keep index order
    rows = sorted(range(len(gens)), key=lambda i: _colex(gens[i]))
    order = sorted(range(len(rels.col_grades)), key=lambda j: _colex(rels.col_grades[j]))
    cols = _renumber([rels.cols[j] for j in order], rows, p)
    row_grades = [gens[i] for i in rows]
    col_grades = [rels.col_grades[j] for j in order]
    gone, live = _local_pairs(cols, row_grades, col_grades, p)
    grades = [col_grades[j] for j in live]
    found = _sweep(list(live.values()), grades, p, False, verify)
    dep = {k for g, k, _ in found if g == grades[k]}
    # rows and columns go back to input order
    kept = sorted((j for n, j in enumerate(live) if n not in dep), key=order.__getitem__)
    left = sorted((r for r in range(len(rows)) if r not in gone), key=rows.__getitem__)
    cols = _renumber([live[j] for j in kept], left, p)
    new_gens = tuple(row_grades[r] for r in left)
    m = GradedMatrix._trusted(new_gens, tuple(col_grades[j] for j in kept), cols, p, pres.dim)
    return Presentation._trusted(m), tuple(sorted(g for g, k, _ in found if k not in dep))


def pointwise_dim(pres: Presentation, x) -> int:
    """Dimension of the presented module at the query grade ``x``.

    Computed directly as (# generators born by x) minus the rank of the
    relation submatrix with columns born by x; this is the independent
    rank oracle used to cross-check barcode computations.
    """
    x = as_grade(x)
    _merge_dims(pres.dim, len(x))
    gens_in = sum(1 for g in pres.gens if leq(g, x))
    rank = _Reducer(pres.field)
    for col, c in zip(pres.rels.cols, pres.rels.col_grades):
        if leq(c, x):
            rank.insert(col)
    return gens_in - len(rank.pivots)


def kernel_basis(m: GradedMatrix, verify: bool = True) -> tuple[Barcode, GradedMatrix]:
    """Minimal generators of the kernel of a graded matrix (n <= 2).

    They are the combinations of the events of the tracked :func:`_sweep`
    of ``m``'s columns.  Returns their grades and the inclusion matrix
    :func:`_kernel_basis` checked, in discovery order; the grades are the
    minimal ones, the generators one generating set of many.  With ``verify``
    (default) the vectors and the rank count are checked (:class:`KernelCheckError`).
    """
    _require_valid(m)
    inc = _kernel_basis(m, verify)[0]
    return Barcode._trusted(tuple(sorted(inc.col_grades)), m.dim), inc


def _kernel_basis(m: GradedMatrix, verify: bool = True) -> tuple[GradedMatrix, _Reducer | None]:
    """:func:`kernel_basis` of an ``m`` its caller knows to be grade-valid:
    the inclusion matrix, whose columns, in discovery order, are 1 on the
    column that found them.  With ``verify`` each is checked where it
    leaves: nonzero, at the join of its columns' grades, sending the columns
    to zero and independent of those before it, vector ``k`` going into one
    reducer over label row ``k``.  That reducer, None without ``verify``, is
    returned second, for the homology solve."""
    n, p = m.dim, m.field
    if n is not None and n > 2:
        raise UnsupportedDimension(
            "kernel computation supports 1 or 2 parameters, got %d" % n
        )
    found = _sweep(m.cols, m.col_grades, p, True, "kernel_basis" if verify else None)
    vecs = tuple(vec if p == 2 else _addmul({}, vec, _inv(vec.get(k, 0), p), p) for _, k, vec in found)
    inc = GradedMatrix._trusted(m.col_grades, tuple(g for g, _, _ in found), vecs, p, m.dim)
    if not verify:
        return inc, None
    low = len(vecs)
    span = _Reducer(p, low)
    for k, (g, vec) in enumerate(zip(inc.col_grades, vecs)):
        items, image = _items(vec), _column((), p)
        for c, v in items:
            image = _addmul(image, m.cols[c], v, p)
        if not items:
            fault = "is zero"
        elif tuple(map(max, zip(*[m.col_grades[c] for c, _ in items]))) != g:
            fault = "is not the join of the grades of its columns"
        elif image:
            fault = "does not send the columns to zero"
        elif span.insert(_shift(vec, low, p, k)) is not None:
            fault = "depends linearly on the generators before it"
        else:
            continue
        raise KernelCheckError("kernel_basis: generator born at grade %r %s" % (g, fault))
    return inc, span


@dataclass(frozen=True)
class BettiResult:
    """Per-degree Betti barcodes plus the signed barcode they induce."""

    by_degree: tuple[Barcode, ...]
    signed: SignedBarcode


def betti(pres: Presentation) -> BettiResult:
    """Betti barcodes of the presented module, degrees 0..n, from the one
    :func:`_sweep` of :func:`_minimize`.

    Degrees 0 and 1 are the grades of the minimal presentation; degree 2
    (two parameters only) those of its relations' kernel: the untracked
    sweep's events but the dependent columns' own, certified by its rank
    count.  The signed barcode is (even degrees, odd degrees).
    """
    n = pres.dim or 1
    if n > 2:
        raise UnsupportedDimension(
            "Betti barcodes support 1 or 2 parameters, got %d" % n
        )
    mini, b2 = _minimize(pres, "betti" if n == 2 else None)
    b0 = Barcode._trusted(tuple(sorted(mini.gens)), pres.dim)
    b1 = Barcode._trusted(tuple(sorted(mini.rels.col_grades)), pres.dim)
    b2 = Barcode._trusted(b2, pres.dim)
    signed = SignedBarcode._trusted(barcode_union(b0, b2), b1)
    return BettiResult((b0, b1, b2)[: n + 1], signed)


@dataclass(frozen=True)
class ChainPair:
    """Composable maps f: X -> Y and g: Y -> Z with g @ f = 0.

    Rows of ``g`` live in Z, its columns in Y; rows of ``f`` live in Y,
    its columns in X.  The homology at Y is ker(g) / im(f).
    """

    f: GradedMatrix
    g: GradedMatrix

    def __post_init__(self):
        if self.f.field != self.g.field:
            raise ValueError("chain maps over different fields")
        if self.g.col_grades != self.f.row_grades:
            raise DimensionMismatch(
                "column grades of g must equal row grades of f"
            )
        _require_valid(self.f)
        _require_valid(self.g)
        if any(self.g.matmul(self.f).cols):
            raise ValueError("g @ f is not zero; not a chain pair")


def homology_presentation(chain: ChainPair) -> Presentation:
    """Presentation of ker(g) / im(f), not necessarily minimal.

    Generators are the kernel generators of ``g``; each column of ``f``
    is rewritten in that basis to produce one relation at the column's
    grade.  The generators of a free module are linearly independent, so
    one reducer over them gives each column its unique coefficients; the
    column must reduce to zero using only generators at or below its grade.
    That reducer is the one :func:`kernel_basis`'s check put the generators
    in, so their independence is certified once.
    """
    return _homology_presentation(chain.f, chain.g)


def _homology_presentation(f: GradedMatrix, g: GradedMatrix, cells=None) -> Presentation:
    """:func:`homology_presentation` of maps known to form a :class:`ChainPair`.

    The reducer is the one :func:`_kernel_basis` certified the generators
    in, generator ``k`` over label row ``k`` (see :class:`_Reducer`); a
    column of ``f``, moved up past the labels, is in their span when left
    with labels only, minus its coefficients.  ``cells``, when given, names
    the input cell of each column of ``f``; errors then name that cell
    rather than a column index.
    """
    p = g.field
    inc, span = _kernel_basis(g)
    gen_grades, low = inc.col_grades, span.low
    cols = []
    for j, (col, cgrade) in enumerate(zip(f.cols, f.col_grades)):
        cur = span.reduce(_shift(col, low, p))[0]
        if not all(k < low and leq(gen_grades[k], cgrade) for k, _ in _items(cur)):
            what = "column %d of f" % j if cells is None else "the boundary of cell %d" % cells[j]
            raise RuntimeError(
                "homology_presentation: %s (grade %r) is not in "
                "the kernel of g at its grade" % (what, cgrade)
            )
        # the reduction subtracted sum(x_k * generator k), leaving -x_k on label k
        cols.append(_addmul(_column((), p), cur, p - 1, p))
    dim = _merge_dims(g.dim, f.dim if f.col_grades else None)
    return Presentation._trusted(GradedMatrix._trusted(gen_grades, f.col_grades, tuple(cols), p, dim))
