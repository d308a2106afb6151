"""Grades, barcodes, and signed barcodes.

A grade is a point of R^n, recording the birth coordinate of a free
summand whose support is the upset ``{x : grade <= x}``.  A barcode is a
finite multiset of grades of one common dimension, and a signed barcode
is an ordered pair of barcodes (positive part, negative part).  The two
parts of a signed barcode may share bars; cancelling shared bars with
multiplicity is the reduction operation, whose output is the canonical
reduced representative.

Coordinates are floats compared exactly (no tolerance), so multiset
semantics are well defined.  Every operation is a pure function.

Three rules hold for the value types of the package, the subclasses of
``_Frozen``: ``Barcode``, ``SignedBarcode``, ``GradedMatrix``,
``Presentation``, ``Cell`` and ``Bifiltration``.  Grades combined in one
object or operation share one dimension, a positive integer, checked by
``_merge_dims``, which raises :class:`DimensionMismatch` otherwise.
Values are immutable: their fields are set once, with ``_freeze``.  There
are two routes to that call.  Public constructors normalize and check
their arguments first.  Internal producers call ``_trusted``, which
freezes fields that already hold the invariant: grades are tuples of
finite floats, bars are sorted, matrix columns are packed in their
field's encoding with coefficients in ``[1, p)`` and a presentation's
matrix is grade-valid.  ``pickle``, ``copy.copy`` and ``copy.deepcopy``
take the second route: ``__reduce__`` hands ``_trusted`` the values of all
of ``__slots__``, so a copy equals the original and keeps its ``dim`` and,
for a bifiltration, its chunk-reduced complex.  Two values are equal when
they have the same type and equal ``_eq`` fields, which are all of
``__slots__`` unless the class names fewer; the grade dimension ``dim`` is
never compared.  The hash reads the same fields, except ``GradedMatrix``'s,
which reads the entries.
``Cell`` compares and hashes all three of its fields, through its frozen
dataclass.  The result records ``BettiResult``, ``ChainPair``,
``MatchingResult``, ``PerturbSpec``, ``PerturbResult`` and
``StabilityTrial`` are frozen dataclasses instead, and ``StabilityReport``
a mutable one.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator


class DimensionMismatch(ValueError):
    """Raised when combining objects whose grade dimensions differ."""


#: A grade is a tuple of finite floats.
Grade = tuple


def as_grade(coords: Iterable[float]) -> Grade:
    """Normalize ``coords`` to a grade (tuple of finite floats)."""
    g = tuple(float(c) for c in coords)
    if not g:
        raise ValueError("a grade needs at least one coordinate")
    for c in g:
        if not math.isfinite(c):
            raise ValueError("grade coordinates must be finite, got %r" % (c,))
    return g


def _same_dim(a: Grade, b: Grade) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(
            "grade dimensions differ: %d vs %d" % (len(a), len(b))
        )


def leq(a: Grade, b: Grade) -> bool:
    """Componentwise partial order on grades of equal dimension."""
    _same_dim(a, b)
    return all(x <= y for x, y in zip(a, b))


def join(*grades: Grade) -> Grade:
    """Componentwise maximum (least upper bound) of one or more grades."""
    if not grades:
        raise ValueError("join needs at least one grade")
    first = grades[0]
    for g in grades[1:]:
        _same_dim(first, g)
    return tuple(max(cs) for cs in zip(*grades))


def dist_inf(a: Grade, b: Grade) -> float:
    """l-infinity distance between two grades."""
    _same_dim(a, b)
    return max(abs(x - y) for x, y in zip(a, b))


def dist_one(a: Grade, b: Grade) -> float:
    """l1 distance between two grades."""
    _same_dim(a, b)
    return sum(abs(x - y) for x, y in zip(a, b))


def fmt_float(v: float) -> str:
    """Shortest round-trip decimal; integral values print as integers."""
    if v != v or v in (float("inf"), float("-inf")):
        return repr(v)
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _grade_str(g) -> str:
    return "(" + ", ".join(fmt_float(c) for c in g) + ")"


def _merge_dims(*dims: int | None) -> int | None:
    """The common dimension of ``dims``, ignoring ``None`` (unknown); a
    dimension that is not a positive integer raises ``ValueError``."""
    out: int | None = None
    for d in dims:
        if d is None:
            continue
        if not isinstance(d, int) or d < 1:
            raise ValueError("grade dimension must be a positive integer, got %r" % (d,))
        if out is None:
            out = d
        elif out != d:
            raise DimensionMismatch(
                "grade dimensions differ: %d vs %d" % (out, d)
            )
    return out


class _Frozen:
    """Base of the immutable value types: fields are set once, by ``_freeze``,
    through the setters of the ``__slots__`` fields that each subclass keeps,
    and compared and hashed over the ``_eq`` fields (all of ``__slots__``
    unless the subclass names fewer)."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        if "_eq" not in cls.__dict__:
            cls._eq = cls.__slots__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._eq)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _freeze(self, *values) -> None:
        """Set the fields named in ``__slots__``, in that order, to ``values``."""
        for set_, value in zip(self._setters, values, strict=True):
            set_(self, value)

    @classmethod
    def _trusted(cls, *values):
        """A new instance with ``values`` frozen as given, unchecked."""
        self = object.__new__(cls)
        self._freeze(*values)
        return self

    def __reduce__(self):
        """Rebuild through ``_trusted`` from the ``__slots__`` values."""
        return type(self)._trusted, tuple(getattr(self, name) for name in self.__slots__)


class Barcode(_Frozen):
    """A finite multiset of grades of one common dimension.

    Bars are stored sorted lexicographically, so two barcodes are equal
    exactly when they are equal as multisets, and serialization is
    canonical.  ``dim`` is ``None`` for an empty barcode constructed
    without an explicit dimension; such a barcode is compatible with
    any dimension.
    """

    __slots__ = ("bars", "dim")
    _eq = ("bars",)

    def __init__(self, bars: Iterable[Iterable[float]] = (), dim: int | None = None):
        norm = sorted(as_grade(b) for b in bars)
        self._freeze(tuple(norm), _merge_dims(dim, *map(len, norm)))

    def __len__(self) -> int:
        return len(self.bars)

    def __iter__(self) -> Iterator[Grade]:
        return iter(self.bars)

    def __getitem__(self, i):
        return self.bars[i]

    def __repr__(self) -> str:
        return "Barcode(%r)" % (list(self.bars),)

    def counts(self) -> Counter:
        """Multiplicity of each distinct bar."""
        return Counter(self.bars)


def _as_barcode(b) -> Barcode:
    return b if isinstance(b, Barcode) else Barcode(b)


def barcode_union(b1: Barcode, b2: Barcode) -> Barcode:
    """Multiset union (sum of multiplicities) of two barcodes."""
    b1 = _as_barcode(b1)
    b2 = _as_barcode(b2)
    dim = _merge_dims(b1.dim, b2.dim)
    return Barcode._trusted(tuple(sorted(b1.bars + b2.bars)), dim)


def barcode_eq(b1: Barcode, b2: Barcode) -> bool:
    """Multiset equality with multiplicity, coordinates compared exactly."""
    return _as_barcode(b1).bars == _as_barcode(b2).bars


class SignedBarcode(_Frozen):
    """An ordered pair of barcodes of equal dimension.

    The positive part collects bars in even homological degrees, the
    negative part bars in odd degrees.  The pair is not required to be
    reduced: the same bar may occur on both sides.
    """

    __slots__ = ("positive", "negative")

    def __init__(self, positive=(), negative=()):
        pos = _as_barcode(positive)
        neg = _as_barcode(negative)
        _merge_dims(pos.dim, neg.dim)
        self._freeze(pos, neg)

    @property
    def dim(self) -> int | None:
        return _merge_dims(self.positive.dim, self.negative.dim)

    def __repr__(self) -> str:
        return "SignedBarcode(%r, %r)" % (
            list(self.positive.bars),
            list(self.negative.bars),
        )


def reduce_signed(s: SignedBarcode) -> SignedBarcode:
    """Cancel bars shared by both parts, respecting multiplicity.

    The result is the unique representative with disjoint parts; what
    was removed from the positive side equals what was removed from the
    negative side, as multisets.
    """
    pos = s.positive.counts()
    neg = s.negative.counts()
    common = pos & neg
    pos.subtract(common)
    neg.subtract(common)
    dim = s.dim
    return SignedBarcode._trusted(
        Barcode._trusted(tuple(sorted(pos.elements())), dim),
        Barcode._trusted(tuple(sorted(neg.elements())), dim),
    )
