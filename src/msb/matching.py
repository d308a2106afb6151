"""Bottleneck and Wasserstein dissimilarities between (signed) barcodes.

An eps-bijection between two barcodes is a bijection moving every bar
by at most eps in the l-infinity norm; the bottleneck distance is the
least such eps, infinite when the cardinalities differ.  The
p-Wasserstein distance instead minimizes the p-norm of the vector of
bar displacements over all bijections.

For signed barcodes B = (B+, B-) and C = (C+, C-), the signed
dissimilarity compares the unions across signs:

    d(B, C) = d(B+ u C-,  C+ u B-)

computed on the pair as given, without reduction.  The signed
1-Wasserstein version is a true (extended) metric on reduced signed
barcodes; the signed bottleneck version fails the triangle inequality
in general and vanishing does not imply equality of reduced forms.

Bottleneck values are found by galloping and binary search over the
finite candidate set of pairwise l-infinity distances, testing each
threshold with a maximum-cardinality bipartite matching, so the value is
one of the pairwise distances.  No dense K x K matrix is built: bars are
sorted, so the pairs within a radius of each other come from windows of
the first coordinate, and the radius doubles only as far as the search
needs, so memory grows with the near pairs, while the probes and the
matching stay those of the search over all pairs.  Each probe
warm-starts from the maximum matching at the largest threshold that
failed, which stays valid at every higher one and leaves few rows free,
and augments it by rounds of depth-first searches from those rows; the
matching returned is the one found at the smallest feasible threshold.
Minimum-cost matchings run LAPJV's initialization (2n bids a round at
most), then lazy-potential shortest augmenting paths from the rows still
free, whose predecessors are recovered along each path after its search,
with the search's float ops.  The value sums an optimal matching's costs
in row order, exactly on integer costs below 2**53; of several optimal
float ones, rounding picks one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Presentation
from .grades import (
    Barcode,
    SignedBarcode,
    _as_barcode,
    _merge_dims,
    barcode_union,
    dist_inf,
    dist_one,
    fmt_float,
)

#: Matchings larger than this are refused by the brute-force oracle.
BRUTE_FORCE_CAP = 8


@dataclass(frozen=True)
class MatchingResult:
    """Distance value plus an optimal matching realizing it.

    ``matching`` lists index pairs ``(i, j)`` into the canonical
    (lexicographically sorted) order of the two compared barcodes; it
    is ``None`` exactly when the cardinalities differ, and the value is
    then infinite (as it also is when a cost overflows to infinity).
    """

    value: float
    matching: tuple[tuple[int, int], ...] | None

    def to_text(self) -> str:
        if self.matching is None:
            return "value inf\n"
        lines = ["value %s" % fmt_float(self.value)]
        lines.append("match %d" % len(self.matching))
        for i, j in self.matching:
            lines.append("%d %d" % (i, j))
        return "\n".join(lines) + "\n"


def _check_pair(b, c) -> tuple[Barcode, Barcode]:
    b = _as_barcode(b)
    c = _as_barcode(c)
    _merge_dims(b.dim, c.dim)
    return b, c


def _check_p(p) -> float:
    p = float(p)
    if math.isnan(p) or p < 1:
        raise ValueError("p must be in [1, inf], got %r" % p)
    return p


def _coords(b: Barcode, c: Barcode) -> tuple[np.ndarray, np.ndarray]:
    """The bars of ``b`` and ``c`` as float rows, K x n and L x n."""
    n = b.dim or c.dim or 1
    A = np.asarray(b.bars, dtype=np.float64).reshape(len(b), n)
    B = np.asarray(c.bars, dtype=np.float64).reshape(len(c), n)
    return A, B


def _span(A: np.ndarray, B: np.ndarray) -> float:
    """The l-infinity span of the rows of ``A`` and ``B``, neither empty: no
    two of them lie farther apart."""
    with np.errstate(over="ignore"):
        return float((np.maximum(A.max(0), B.max(0)) - np.minimum(A.min(0), B.min(0))).max())


def _costs(A: np.ndarray, B: np.ndarray, p: float) -> np.ndarray:
    """Costs between the rows of ``A`` and of ``B``: l-infinity distances
    for ``p = inf``, else sums of p-th powers of coordinatewise
    displacements.  A cost that overflows is ``inf``, without a warning."""
    D, d = np.zeros((len(A), len(B))), np.empty((len(A), len(B)))
    combine = np.maximum if p == math.inf else np.add
    with np.errstate(over="ignore"):
        for k in range(A.shape[1]):
            np.abs(np.subtract(A[:, k, None], B[None, :, k], out=d), out=d)
            if p not in (1.0, math.inf):
                d **= p
            combine(D, d, out=D)
    return D


def _cost_matrix(b: Barcode, c: Barcode, p: float) -> np.ndarray:
    """The dense cost matrix of :func:`_costs` between the bars of ``b``
    and ``c``; 0 x 0 for two empty barcodes."""
    return _costs(*_coords(b, c), p)


#: Pairs scanned per block of the near-pair listing; a bottleneck whose
#: pairs fit one block lists them all at once.
_BLOCK = 1 << 15

_NO_PAIRS = (np.empty(0, np.intp), np.empty(0))


def _near_pairs(A: np.ndarray, B: np.ndarray, U: float):
    """The pairs of rows of ``A`` and ``B`` at l-infinity distance at most
    ``U``, and the row/column bound.

    Returns ``((flat, dists), bound)``.  A pair ``(i, j)`` is listed as
    ``i * len(B) + j``, in increasing order, with its distance bit for bit
    the entry of :func:`_costs`.  ``bound`` is the largest of the least
    distances of the rows and of the columns, exact where it is at most
    ``U`` (else some row or column has no pair).  Both inputs are sorted,
    so their first coordinates ascend, and the columns within ``U`` of a
    block of rows in that coordinate are one contiguous window; padded
    against the rounding of its ends, then filtered on the computed
    distance, it loses and adds no pair.
    """
    K, L = len(A), len(B)
    if U == math.inf:
        width = L
    else:
        a, b, reach = A[:, 0], B[:, 0], max(U, 0.0)  # no pair is nearer than 0
        pad = (float(np.abs(a).max(initial=0.0)) + reach) * 2.0**-40
        with np.errstate(over="ignore"):
            lo = np.searchsorted(b, a - reach - pad)
            hi = np.searchsorted(b, a + reach + pad, side="right")
        width = int((hi - lo).max(initial=0))
    R = max(1, min(max(width, 32), _BLOCK // max(width, 1)))
    bound, col_min, parts = -math.inf, np.full(L, np.inf) if R < K else None, []
    for r0 in range(0, K, R):
        r1 = min(r0 + R, K)
        c0, c1 = (0, L) if U == math.inf else (int(lo[r0]), int(hi[r1 - 1]))
        if c0 == c1:
            bound = math.inf
            continue
        D = _costs(A[r0:r1], B[c0:c1], math.inf)
        bound = max(bound, D.min(axis=1).max())
        if col_min is None:  # the one block: a column outside it has no pair
            bound = max(bound, D.min(axis=0).max() if (c0, c1) == (0, L) else math.inf)
        else:
            np.minimum(col_min[c0:c1], D.min(axis=0), out=col_min[c0:c1])
        if U == math.inf:  # every pair of the block, whose window is every column
            parts.append((np.arange(r0 * L, r1 * L), D.ravel()))
            continue
        flat = np.flatnonzero(D <= U)  # i * w + j within the block ...
        dists, w = D.take(flat), c1 - c0
        if w < L:
            flat += flat // w * (L - w)
        flat += r0 * L + c0  # ... now i * L + j
        parts.append((flat, dists))
    if col_min is not None:
        bound = max(bound, col_min.max())
    if len(parts) != 1:
        parts = [tuple(np.concatenate(x) for x in zip(*parts, _NO_PAIRS))]
    return parts[0], bound


# ---------------------------------------------------------------------------
# maximum-cardinality bipartite matching: rounds of depth-first searches


def _augment_to_maximum(adj: list[list[int]], match_l: list[int], match_r: list[int]) -> None:
    """Augment ``match_l``/``match_r`` in place to a maximum matching.

    A round runs an iterative depth-first search for an augmenting path
    from each free row in index order, over neighbours in ``adj`` order.
    The searches of a round share one list of visited columns: none enters
    a column an earlier one has explored.  A round that augments nothing
    leaves no free row an augmenting path, so the matching is then maximum.
    """
    while True:
        seen = [False] * len(match_r)
        augmented = False
        for root in range(len(adj)):
            if match_l[root] >= 0:
                continue
            stack = [(root, iter(adj[root]))]
            path: list[int] = []  # path[d]: column taken from the row stack[d]
            while stack:
                for j in stack[-1][1]:
                    if not seen[j]:
                        seen[j] = True
                        break
                else:
                    stack.pop()
                    del path[-1:]
                    continue
                path.append(j)
                i = match_r[j]
                if i < 0:
                    for (i, _), j in zip(stack, path):
                        match_l[i], match_r[j] = j, i
                    augmented = True
                    break
                stack.append((i, iter(adj[i])))
        if not augmented:
            return


def _adjacency(pairs, t: float, K: int) -> list[list[int]]:
    """For each row of K x K ``pairs``, the columns listed at distance at
    most ``t``, in increasing order."""
    flat, dists = pairs
    rows, cols = np.divmod(flat[dists <= t], K)
    starts = np.searchsorted(rows, np.arange(K + 1)).tolist()
    cols = cols.tolist()
    return [cols[a:b] for a, b in zip(starts, starts[1:])]


def _feasible_at(pairs, t: float, match_l: list[int], match_r: list[int]) -> bool:
    """Whether a perfect matching exists among the listed ``pairs`` at
    distance at most ``t``.

    The match arrays, which may hold only such pairs, are augmented in
    place to a maximum matching.
    """
    _augment_to_maximum(_adjacency(pairs, t, len(match_l)), match_l, match_r)
    return -1 not in match_l


def eps_bijection_exists(b, c, eps: float) -> bool:
    """Whether some bijection moves every bar by at most ``eps`` (l-inf)."""
    eps = float(eps)
    if math.isnan(eps):
        raise ValueError("eps must be a number, got %r" % eps)
    b, c = _check_pair(b, c)
    K = len(b)
    if K != len(c):
        return False
    A, B = _coords(b, c)
    if K and eps >= _span(A, B):  # every bijection moves every bar by at most eps
        return True
    pairs = _near_pairs(A, B, eps)[0]
    return _feasible_at(pairs, eps, [-1] * K, [-1] * K)


def bottleneck(b, c) -> MatchingResult:
    """Bottleneck distance with an optimal matching: :func:`wasserstein`
    at ``p = inf``."""
    return wasserstein(b, c, math.inf)


def _bottleneck(A: np.ndarray, B: np.ndarray) -> MatchingResult:
    """Bottleneck value and matching between the equally many sorted rows
    of ``A`` and ``B``.

    Returns the smallest pairwise l-infinity distance at which a perfect
    matching exists, located by galloping plus binary search over the
    sorted candidate distances.  Every probe lies above all failed ones,
    so each starts from a copy of the maximum matching at the largest
    failed threshold; the matching returned is the one found by the
    smallest feasible probe.

    No dense matrix is built: the search sees only the pairs within a
    radius ``U``, found in windows of the first coordinate
    (:func:`_near_pairs`), and the candidates are their distinct
    distances, a prefix of those of all pairs.  ``U`` starts near the
    spacing of the bars, or at all pairs if they fit one block, and
    doubles while a row or column has no pair or the gallop steps past
    the known candidates.  So memory grows with the near pairs, and every
    probe and matching is that of the search over all pairs.
    """
    K = len(A)
    U = span = math.inf
    if K * K > _BLOCK:
        span = _span(A, B)
        U = span / K ** (1 / A.shape[1])
    while True:  # until every row and column has a pair
        U = U if 0 < U < span else math.inf  # no pair is farther than span
        pairs, bound = _near_pairs(A, B, U)
        if bound <= U:
            break
        U *= 2
    cands = np.unique(pairs[1])
    lo = idx = int(np.searchsorted(cands, bound))
    hi, step = len(cands) - 1, 1
    failed, found = ([-1] * K, [-1] * K), None
    while found is None or lo < hi:
        match_l, match_r = failed[0][:], failed[1][:]
        if _feasible_at(pairs, cands[idx], match_l, match_r):
            hi, found = idx, match_l
        elif idx == len(cands) - 1 and U == math.inf:
            raise AssertionError("complete candidate graph must be feasible")
        else:
            lo, failed = idx + 1, (match_l, match_r)
        if found is None:  # gallop up from the lower bound ...
            idx, step = idx + step, 2 * step
            while idx >= len(cands) and U < math.inf:  # past the known candidates
                U = 2 * U if 2 * U < span else math.inf
                pairs = _near_pairs(A, B, U)[0]
                cands = np.unique(pairs[1])
            hi = len(cands) - 1
            idx = min(idx, hi)
        else:  # ... then bisect below the first feasible probe
            idx = (lo + hi) // 2
    return MatchingResult(float(cands[hi]), tuple(enumerate(found)))


# ---------------------------------------------------------------------------
# minimum-cost perfect matching: shortest augmenting paths, lazy potentials


def _min_cost_assignment(C: np.ndarray) -> list[int]:
    """Column assigned to each row of the square cost matrix ``C``.

    LAPJV's initialization (Jonker-Volgenant 1987) keeps the potentials
    ``v`` finite, so ``C - v`` is never ``inf - inf``.  Column reduction:
    ``v[j]`` is the least cost of column ``j`` (0 if ``inf``); in increasing
    ``j``, a finite column goes to its lowest-index least row if that is
    free, and reduction transfer lowers ``v[j]`` by the row's second-least
    finite reduced cost ``C[i, j] - v[j]``.  Augmenting row reduction, two
    rounds of at most ``2n`` bids, as cuts that round to nothing would bid
    forever: a free row with a finite cost takes its least column, lowering
    ``v`` there to its second-least reduced cost if finite and larger (the
    row it displaces bids next), or at a tie takes the second column if the
    first is taken and it is free.  Each matched column is then least in its
    row, so with ``u[i] = C[i, j] - v[j]`` no reduced cost is negative, and
    each row still free joins by a Dijkstra search (after Crouse 2016): a
    step relaxes one row against the distances ``d`` and finalizes the
    nearest open column, the lowest index among equals, and an augmenting
    path of length ``mu`` moves the final potentials by ``mu - d[j]``.  The
    steps keep no predecessors: once the search reaches a free column, each
    column on the path back takes the row of the first step that gave it
    its final distance, among the steps up to the one that finalized it,
    each distance recomputed with the search's potentials and float ops,
    so it is the row whose strict decrease last set ``d[j]``.
    """
    n = C.shape[0]
    row_of_col, col_of_row = np.full(n, -1), np.full(n, -1)
    v = C.min(axis=0)
    v[v == np.inf] = 0.0
    for j, i in enumerate(C.argmin(axis=0).tolist()):
        if col_of_row[i] < 0 and C[i, j] < np.inf:
            col_of_row[i], row_of_col[j] = j, i
            r = C[i] - v
            r[j] = np.inf
            gap = r.min()
            v[j] -= gap if gap < np.inf else 0.0
    bidders = C.min(axis=1) < np.inf  # a row with no finite cost is left to the searches
    for _ in range(2):
        todo, bids = np.flatnonzero(bidders & (col_of_row < 0))[::-1].tolist(), 2 * n
        while todo and bids:
            i, bids = todo.pop(), bids - 1
            r = C[i] - v
            j = int(r.argmin())
            least, r[j] = r[j], np.inf
            j2, i0 = int(r.argmin()), row_of_col[j]
            gap = r[j2] - least
            if 0 < gap < np.inf:
                v[j] -= gap
            elif gap == 0 and i0 >= 0 and row_of_col[j2] < 0:
                j, i0 = j2, -1
            col_of_row[i], row_of_col[j] = j, i
            if i0 >= 0:
                col_of_row[i0] = -1
                if 0 < gap < np.inf:
                    todo.append(i0)
    u = np.where(col_of_row >= 0, C[range(n), col_of_row] - v[col_of_row], 0.0)
    row_of_col, col_of_row, r = row_of_col.tolist(), col_of_row.tolist(), np.empty(n)
    for row in [i for i, j in enumerate(col_of_row) if j < 0]:
        d = np.full(n, np.inf)
        vw = v.copy()  # -inf on final columns, so their d never moves
        i, mu, done, dist = row, 0.0, [], []
        while True:
            np.subtract(C[i], vw, out=r)
            r += mu - u.item(i)
            np.minimum(d, r, out=d)
            j = int(d.argmin())
            mu, d[j], vw[j] = d.item(j), np.inf, -np.inf
            if mu == np.inf:  # no finite augmenting path: every matching costs inf
                free = iter([c for c, i in enumerate(row_of_col) if i < 0])
                return [c if c >= 0 else next(free) for c in col_of_row]
            i = row_of_col[j]
            if i < 0:
                break
            done.append(j)
            dist.append(mu)
        rows = np.array([row] + [row_of_col[k] for k in done])  # the row of each step
        offsets, s = np.array([0.0, *dist]) - u[rows], len(rows)
        while True:  # augment back to row; j was final after its first s steps
            t = int(((C[rows[:s], j] - v[j]) + offsets[:s]).argmin())
            i = int(rows[t])
            row_of_col[j], col_of_row[i] = i, j
            if t == 0:
                break
            j, s = done[t - 1], t
        shift = mu - np.array(dist)
        u[row] += mu
        v[done] -= shift
        u[rows[1:]] += shift
    return col_of_row


def wasserstein(b, c, p=1) -> MatchingResult:
    """p-Wasserstein distance with an optimal matching.

    Minimizes the sum of p-th powers of coordinatewise displacements
    over all bijections and takes the p-th root; at ``p = inf`` it is
    the bottleneck distance, found by :func:`_bottleneck`.  Infinite
    (with no matching) on cardinality mismatch.
    """
    p = _check_p(p)
    b, c = _check_pair(b, c)
    K = len(b)
    if K != len(c):
        return MatchingResult(math.inf, None)
    if K == 0:
        return MatchingResult(0.0, ())
    if p == math.inf:
        return _bottleneck(*_coords(b, c))
    C = _cost_matrix(b, c, p)
    col_of_row = _min_cost_assignment(C)
    total = sum(C[np.arange(K), col_of_row].tolist())
    value = total if p == 1.0 else total ** (1.0 / p)
    return MatchingResult(value, tuple(enumerate(col_of_row)))


def bottleneck_signed(s1: SignedBarcode, s2: SignedBarcode) -> MatchingResult:
    """Signed bottleneck dissimilarity d(B+ u C-, C+ u B-), unreduced."""
    return wasserstein_signed(s1, s2, math.inf)


def wasserstein_signed(s1: SignedBarcode, s2: SignedBarcode, p=1) -> MatchingResult:
    """Signed p-Wasserstein dissimilarity d(B+ u C-, C+ u B-), unreduced."""
    p = _check_p(p)
    left = barcode_union(s1.positive, s2.negative)
    right = barcode_union(s2.positive, s1.negative)
    return wasserstein(left, right, p)


def brute_force_matching(b, c, p=1) -> MatchingResult:
    """Exhaustive oracle over all bijections; refuses more than 8 bars.

    Kept deliberately independent of the optimized solvers, costs
    included, so the two routes can certify each other.
    """
    p = _check_p(p)
    b, c = _check_pair(b, c)
    K = len(b)
    if K != len(c):
        return MatchingResult(math.inf, None)
    if K > BRUTE_FORCE_CAP:
        raise ValueError(
            "brute-force matching capped at %d bars, got %d" % (BRUTE_FORCE_CAP, K)
        )
    if K == 0:
        return MatchingResult(0.0, ())
    if p == math.inf:
        rows = [[dist_inf(u, v) for v in c] for u in b]
    else:
        rows = [[sum(abs(x - y) ** p for x, y in zip(u, v)) for v in c] for u in b]
    best = None
    best_perm = None
    for perm in itertools.permutations(range(K)):
        if p == math.inf:
            cost = max(rows[i][perm[i]] for i in range(K))
        else:
            cost = 0.0
            for i in range(K):
                cost += rows[i][perm[i]]
        if best is None or cost < best:
            best = cost
            best_perm = perm
    if p not in (math.inf, 1.0):
        best = best ** (1.0 / p)
    matching = tuple((i, best_perm[i]) for i in range(K))
    return MatchingResult(float(best), matching)


def presentation_pair_cost(pm: Presentation, pn: Presentation, p=1) -> float:
    """Label displacement cost between presentations sharing a matrix.

    Both presentations must have identical shape, field, and sparse
    entries; only the grade labels may differ.  For ``p = 1`` the cost
    is the sum of l1 displacements over all row and column labels, for
    ``p = inf`` the maximum l-infinity displacement.  This realizes an
    upper bound for the corresponding interleaving-type distance
    between the presented modules.
    """
    p = _check_p(p)
    if p not in (1.0, math.inf):
        raise ValueError("presentation pair cost supports p = 1 or p = inf")
    if pm.field != pn.field:
        raise ValueError("presentations over different fields")
    if pm.num_gens != pn.num_gens or pm.num_rels != pn.num_rels:
        raise ValueError("presentations have different shapes")
    if pm.rels.cols != pn.rels.cols:
        raise ValueError("presentations have different underlying matrices")
    _merge_dims(pm.dim, pn.dim)
    pairs = list(zip(pm.gens + pm.rels.col_grades, pn.gens + pn.rels.col_grades))
    if p == 1.0:
        return float(sum(dist_one(a, b) for a, b in pairs))
    return float(max((dist_inf(a, b) for a, b in pairs), default=0.0))
