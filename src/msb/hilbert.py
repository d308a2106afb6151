"""Hilbert functions of signed barcodes and minimal Hilbert decompositions.

A signed barcode (P, N) encodes the integer-valued function
``x -> #{p in P : p <= x} - #{q in N : q <= x}``.  For the signed Betti
barcode of a module this function is the pointwise dimension, and the
reduced form is the minimal Hilbert decomposition: the unique pair of
disjoint barcodes realizing that dimension function.
"""

from __future__ import annotations

from .algebra import Presentation, betti
from .grades import SignedBarcode, _merge_dims, as_grade, leq, reduce_signed
from .matching import wasserstein_signed


def hilbert_eval(s: SignedBarcode, x) -> int:
    """Signed count of bars born by ``x``."""
    x = as_grade(x)
    _merge_dims(s.dim, len(x))
    born_pos = sum(1 for g in s.positive if leq(g, x))
    born_neg = sum(1 for g in s.negative if leq(g, x))
    return born_pos - born_neg


def minimal_hilbert_decomposition(pres: Presentation) -> SignedBarcode:
    """Reduced signed Betti barcode of the presented module."""
    return reduce_signed(betti(pres).signed)


def hilbert_equal(s1: SignedBarcode, s2: SignedBarcode) -> bool:
    """Whether two signed barcodes encode the same dimension function."""
    return reduce_signed(s1) == reduce_signed(s2)


def hilbert_distance(s1: SignedBarcode, s2: SignedBarcode) -> float:
    """Signed 1-Wasserstein dissimilarity between the reduced forms.

    This is a true extended metric on Hilbert functions: it vanishes
    exactly on equal functions, is symmetric, and satisfies the
    triangle inequality.  The value is infinite when no bijection
    between the compared multisets exists.
    """
    return wasserstein_signed(reduce_signed(s1), reduce_signed(s2), p=1).value
