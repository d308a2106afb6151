"""Checks of the library at scale: time and peak RSS printed, and bounds.

Each check is one function whose size argument defaults to its full size.
CI runs each at full size in a process of its own, so the peak RSS it
prints is the check's own::

    python tests/scale_checks.py bottleneck

(with no name, all four run in one process; without an install, put
``src`` on ``PYTHONPATH``), and ``tests/test_scale_checks.py`` runs each at
a tiny size, so a check that breaks fails the tests too.  The file name
keeps pytest from collecting it.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

import msb
from msb import Barcode, SplitMix64, dist_inf, dist_one


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def bottleneck(k: int = 10_000) -> None:
    """Bottleneck on ``k`` bars a side: a bijection realizing the value; peak
    RSS under 400 MB, where one dense 10^4 x 10^4 matrix is 800 MB."""
    rng = SplitMix64(2026)
    b, c = (Barcode([(float(rng.below(1000)), float(rng.below(1000))) for _ in range(k)]) for _ in range(2))
    start = time.perf_counter()
    r = msb.bottleneck(b, c)
    elapsed = time.perf_counter() - start
    rows = sorted(i for i, _ in r.matching)
    cols = sorted(j for _, j in r.matching)
    assert rows == cols == list(range(k)), "not a bijection"
    assert max(dist_inf(b.bars[i], c.bars[j]) for i, j in r.matching) == r.value, "value not realized"
    rss_mb = _peak_rss_mb()
    print("bottleneck on %d bars: value %s in %.2f s, peak RSS %.0f MB" % (k, r.value, elapsed, rss_mb))
    assert rss_mb < 400, "peak RSS %.0f MB" % rss_mb


def wasserstein(k: int = 2000) -> None:
    """1-Wasserstein on ``k`` bars a side: a bijection realizing the value,
    equal with the sides swapped; time and peak RSS printed."""
    rng = SplitMix64(2027)
    b, c = (Barcode([(float(rng.below(1000)), float(rng.below(1000))) for _ in range(k)]) for _ in range(2))
    start = time.perf_counter()
    r = msb.wasserstein(b, c, 1)
    elapsed = time.perf_counter() - start
    rows = sorted(i for i, _ in r.matching)
    cols = sorted(j for _, j in r.matching)
    assert rows == cols == list(range(k)), "not a bijection"
    assert sum(dist_one(b.bars[i], c.bars[j]) for i, j in r.matching) == r.value, "value not realized"
    swapped = msb.wasserstein(c, b, 1).value
    assert swapped == r.value, "value %s with the sides swapped, %s as given" % (swapped, r.value)
    print("1-Wasserstein on %d bars: value %s in %.2f s, peak RSS %.0f MB" % (k, r.value, elapsed, _peak_rss_mb()))


def ingest(n: int = 40) -> None:
    """The seed-7, ``n`` x ``n``, 1000-level lower-star grid of
    ``bench/workloads.py`` (9283 cells at n = 40): round trip, H0 and H1 at
    the top grade by pointwise_dim and by the Hilbert function of the Betti
    barcodes, a malformed late token; time and peak RSS printed, with the
    parse time, the chain_to_presentation, betti and minimize_presentation
    times per degree (betti costs minimization plus the rank count), and the
    time of the kernel of the chunked degree-1 boundary with and without its
    check."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    from workloads import lower_star_grid

    text = lower_star_grid(7, n, 1000)
    start = time.perf_counter()
    bif = msb.parse_bifiltration(text)
    parsed = time.perf_counter() - start
    cells = n * n + (3 * n * n - 4 * n + 1) + 2 * (n - 1) ** 2  # vertices, edges, triangles
    assert len(bif.cells) == cells, "%d cells" % len(bif.cells)
    assert msb.parse_bifiltration(msb.serialize_bifiltration(bif)) == bif, "no round trip"
    top = msb.join(*(c.grade for c in bif.cells))
    stages = []
    for degree, want in ((0, 1), (1, 0)):
        t0 = time.perf_counter()
        pres = msb.chain_to_presentation(bif, degree)
        t1 = time.perf_counter()
        got = msb.pointwise_dim(pres, top)
        assert got == want, "H%d has dimension %d at the top grade" % (degree, got)
        t2 = time.perf_counter()
        res = msb.betti(pres)  # at n = 40, minimizes 630 gens, 1225 relations at degree 0
        t3 = time.perf_counter()
        got = msb.hilbert_eval(res.signed, top)
        assert got == want, "the Betti barcodes give H%d dimension %d at the top grade" % (degree, got)
        t4 = time.perf_counter()
        msb.minimize_presentation(pres)
        t5 = time.perf_counter()
        stages.append(
            "degree %d: chain_to_presentation %.3f s, betti %.3f s, minimize_presentation %.3f s"
            % (degree, t1 - t0, t3 - t2, t5 - t4)
        )
    bd = bif._chunked(1)[0]  # the degree-1 boundary that chain_to_presentation takes the kernel of
    kernel = []
    for verify in (False, True):
        t0 = time.perf_counter()
        msb.algebra._kernel_basis(bd, verify)
        kernel.append(time.perf_counter() - t0)
    stages.append(
        "kernel of the %d-column degree-1 boundary: %.3f s, %.3f s with verify "
        "(the checks and the labelled reducer the homology solve reads)" % (bd.num_cols, *kernel)
    )
    lines = text.splitlines()
    lines[-2] = lines[-2].replace(":1", ":x", 1)  # a pair of the next-to-last cell
    try:
        msb.parse_bifiltration("\n".join(lines) + "\n")
    except msb.ParseError as e:
        assert e.line == len(lines) - 1 and "malformed pair" in str(e), str(e)
    else:
        raise AssertionError("a malformed pair parsed")
    elapsed = time.perf_counter() - start
    print("ingest of %d cells: parse %.3f s, in all %.2f s, peak RSS %.0f MB" % (len(bif.cells), parsed, elapsed, _peak_rss_mb()))
    print("\n".join(stages))


def ingest_f3(n: int = 40) -> None:
    """Ingest over F_3: the seed-7, ``n`` x ``n``, 1000-level lower-star
    square of ``tests/test_cli.py``, whose columns are dicts; H0 and H1 at
    the top grade by pointwise_dim and by the Hilbert function of the Betti
    barcodes; time and peak RSS printed."""
    from test_cli import lower_star_square

    start = time.perf_counter()
    bif = lower_star_square(7, n, 1000, field=3)
    top = msb.join(*(c.grade for c in bif.cells))
    for degree, want in ((0, 1), (1, 0)):
        pres = msb.chain_to_presentation(bif, degree)
        got = msb.pointwise_dim(pres, top), msb.hilbert_eval(msb.betti(pres).signed, top)
        assert got == (want, want), "H%d has dimensions %r at the top grade" % (degree, got)
    elapsed = time.perf_counter() - start
    print("ingest of %d cells over F_3 in %.2f s, peak RSS %.0f MB" % (len(bif.cells), elapsed, _peak_rss_mb()))


CHECKS = {f.__name__: f for f in (bottleneck, wasserstein, ingest, ingest_f3)}


if __name__ == "__main__":
    for name in sys.argv[1:] or CHECKS:
        CHECKS[name]()
