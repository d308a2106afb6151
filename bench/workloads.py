"""Seeded workloads for the msb benchmark.

Each workload turns a seed into a pool of input texts or seeds, runs one
item through the public API of ``msb``, and checks what comes back.
Every call into the library goes through ``call(span_name, fn, ...)``,
which is :func:`tracer.direct` in timed runs and :meth:`Tracer.call` in
traced runs, so the traced item does exactly the work of the timed one.
Decompositions that need extra calls (a kernel without its check, the
stability loop replayed step by step) live in ``probe`` and run outside
the item.

Why these four:

* ``ingest-fine``: 6x6 grid at 1000 levels.  About a thousand sweep grid
  points against 36 to 85 columns, so the per-grid-point kernel sweep and
  its exhaustive check dominate; a faster sweep shows here.
* ``ingest-coarse``: 14x14 grid at 8 levels.  64 grid points against 196
  to 533 columns, so the span solve in ``homology_presentation`` and
  ``minimize_presentation`` dominate; a sweep rewrite should barely move
  it, a shared column reducer should, and a sweep that slows with the
  column count shows.
* ``match``: random signed barcodes on {0..999}^2 whose parts share many
  bars, as Betti barcodes do; only matching, grades and io work.
  Integer coordinates make every distance exact, so values compare with ==.
* ``fuzz``: ``run_stability`` at acceptance sizes; thousands of tiny inputs
  where per-call overhead dominates, and the only user of ``generators``
  and ``stability``.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO

import numpy as np

import msb
import msb.cli

from tracer import direct

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The benchmark's own generator, so inputs do not depend on msb."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def item_seeds(seed: int, name: str, count: int) -> list[int]:
    """``count`` item seeds for workload ``name``, a pure function of ``seed``."""
    salt = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    rng = SplitMix64((seed << 32) ^ salt)
    return [rng.next_u64() for _ in range(count)]


class Workload:
    """What ``run.py`` asks of a workload.

    ``inputs(seed, count)`` makes ``count`` inputs from ``seed`` and
    ``validate(pool)`` raises on a bad one; ``run(inp, call)`` is one item,
    every library call going through ``call``; ``fingerprint(out)`` is the
    JSON-able summary compared with the references; ``verify(inp, out,
    call)`` returns the failures of the independent checks; ``probe(inp,
    out, call)`` makes the extra traced calls that split an item into parts.
    The methods below are the optional ones.
    """

    def validate(self, pool):
        pass

    @staticmethod
    def derived(t):
        """Per-layer metrics computed from one item's span self times."""
        return {}

    def counts(self, inp, out):
        """Exact sizes of one input, for the traced run."""
        return {}

    def probe_once(self, pool, tracer, workdir):
        """Traced calls made once per run; returns failures."""
        return []


# ---------------------------------------------------------------------------
# ingest


def lower_star_grid(seed: int, n: int, levels: int) -> str:
    """``.mbif`` text of a lower-star bifiltration of the triangulated n x n grid.

    Two vertex functions with values in {0..levels-1} are drawn from one
    SplitMix64 stream; an edge or triangle is born at the join of its
    vertices.  Cells are ordered by dimension: vertices, then edges
    (right, down, diagonal from each vertex), then the two triangles of
    each square.  Boundaries are over F_2.
    """
    rng = SplitMix64(seed)
    grades = [(rng.next_u64() % levels, rng.next_u64() % levels) for _ in range(n * n)]
    lines = []

    def cell(dim, verts, faces):
        x = max(grades[v][0] for v in verts)
        y = max(grades[v][1] for v in verts)
        lines.append(" ".join([str(dim), str(x), str(y), str(len(faces))] + ["%d:1" % f for f in faces]))

    for v in range(n * n):
        cell(0, [v], [])
    edge = {}
    for r in range(n):
        for c in range(n):
            for r2, c2 in ((r, c + 1), (r + 1, c), (r + 1, c + 1)):
                if r2 < n and c2 < n:
                    u, v = r * n + c, r2 * n + c2
                    edge[u, v] = len(lines)
                    cell(1, [u, v], [u, v])
    for r in range(n - 1):
        for c in range(n - 1):
            a, b, d, e = r * n + c, r * n + c + 1, (r + 1) * n + c, (r + 1) * n + c + 1
            cell(2, [a, b, e], sorted([edge[a, b], edge[b, e], edge[a, e]]))
            cell(2, [a, d, e], sorted([edge[a, d], edge[d, e], edge[a, e]]))
    head = ["mbif 1", "field 2", "n 2", "cells %d" % len(lines)]
    return "\n".join(head + lines) + "\n"


def _bars_digest(result) -> str:
    text = "|".join(";".join("%r,%r" % g for g in bc) for bc in result.by_degree)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _quartiles(values):
    v = sorted(set(values))
    return [v[len(v) * q // 4] for q in (1, 2, 3)]


class Ingest(Workload):
    """Parse a bifiltration, then per homology degree 0 and 1: presentation,
    Betti barcodes, reduction and serialization."""

    def __init__(self, name, n, levels, pool):
        self.name, self.n, self.levels, self.pool = name, n, levels, pool

    def inputs(self, seed, count):
        return [lower_star_grid(s, self.n, self.levels) for s in item_seeds(seed, self.name, count)]

    def validate(self, pool):
        n = self.n
        for text in pool:
            bif = msb.parse_bifiltration(text)
            sizes = [len(bif.cells_of_dim(d)) for d in range(3)]
            if sizes != [n * n, 3 * n * n - 4 * n + 1, 2 * (n - 1) ** 2]:
                raise ValueError("generated grid has cell counts %r" % (sizes,))

    def run(self, text, call):
        bif = call("io.parse_bifiltration", msb.parse_bifiltration, text)
        degrees = []
        for d in (0, 1):
            pres = call("io.chain_to_presentation", msb.chain_to_presentation, bif, d)
            result = call("algebra.betti", msb.betti, pres)
            reduced = call("grades.reduce_signed", msb.reduce_signed, result.signed)
            out = call("io.serialize_presentation", msb.serialize_presentation, pres)
            degrees.append((pres, result, reduced, out))
        return bif, degrees

    def fingerprint(self, out):
        return {"h%d" % d: _bars_digest(result) for d, (_, result, _, _) in enumerate(out[1])}

    def verify(self, text, out, call):
        bif, degrees = out
        errors = []
        grades = [c.grade for c in bif.cells]
        top = msb.join(*grades)
        points = [(x, y) for x in _quartiles(g[0] for g in grades) for y in _quartiles(g[1] for g in grades)]

        def hilbert_check():
            for d, (pres, result, reduced, _) in enumerate(degrees):
                want = 1 - d  # the triangulated square is contractible
                got = msb.pointwise_dim(pres, top)
                if got != want or msb.hilbert_eval(reduced, top) != want:
                    errors.append("H%d: dimension %d at the top grade %r, expected %d" % (d, got, top, want))
                for x in points:
                    dim = msb.pointwise_dim(pres, x)
                    if msb.hilbert_eval(result.signed, x) != dim or msb.hilbert_eval(reduced, x) != dim:
                        errors.append("H%d: Hilbert function disagrees with pointwise_dim at %r" % (d, x))

        call("hilbert.check", hilbert_check)
        for d, (pres, _, _, serialized) in enumerate(degrees):
            if msb.parse_presentation(serialized) != pres:
                errors.append("H%d: serialized presentation does not parse back" % d)
        return errors

    def probe(self, text, out, call):
        bif = out[0]
        for d in (0, 1):
            g = call("io.boundary_matrix", bif.boundary_matrix, d)
            f = call("io.boundary_matrix", bif.boundary_matrix, d + 1)
            chain = call("algebra.chain_pair", msb.ChainPair, f=f, g=g)
            pres = call("algebra.homology_presentation", msb.homology_presentation, chain)
            call("algebra.kernel_basis", msb.kernel_basis, g)
            call("algebra.kernel_basis_noverify", msb.kernel_basis, g, verify=False)
            mini = call("algebra.minimize", msb.minimize_presentation, pres)
            if d == 0:
                call("algebra.kernel_deg2", msb.kernel_basis, mini.rels)

    @staticmethod
    def derived(t):
        out = {}
        if "algebra.kernel_basis" in t:
            out["algebra.kernel_verify_s"] = t["algebra.kernel_basis"] - t["algebra.kernel_basis_noverify"]
            out["algebra.homology_solve_s"] = t["algebra.homology_presentation"] - t["algebra.kernel_basis"]
        return out

    def counts(self, text, out):
        bif, degrees = out
        c = Counter(cells=len(bif.cells))
        for d, (pres, result, _, _) in enumerate(degrees):
            cols = bif.boundary_matrix(d).col_grades
            c["cols"] += len(cols)
            c["grid_points"] += len({g[0] for g in cols}) * len({g[1] for g in cols})
            c["pres_gens"] += pres.num_gens
            c["pres_rels"] += pres.num_rels
            # betti's degree-0 and degree-1 barcodes are the grades of the
            # minimized presentation's generators and relations
            c["mini_gens"] += len(result.by_degree[0])
            c["mini_rels"] += len(result.by_degree[1])
            for k, bc in enumerate(result.by_degree):
                c["b%d" % k] += len(bc)
        counts = {"algebra." + k: v for k, v in c.items()}
        counts["algebra.minimize_keep_ratio"] = (c["mini_gens"] + c["mini_rels"]) / (c["pres_gens"] + c["pres_rels"])
        return counts


# ---------------------------------------------------------------------------
# match


def signed_barcode_text(rng, positive, negative, shared, grid) -> str:
    """``.sbarc`` text whose two parts share ``shared`` bars, on {0..grid-1}^2."""

    def bars(k):
        return ["%d %d" % (rng.next_u64() % grid, rng.next_u64() % grid) for _ in range(k)]

    common = bars(shared)
    pos = common + bars(positive - shared)
    neg = common + bars(negative - shared)
    head = ["sbarc 1", "n 2", "positive %d" % len(pos)]
    return "\n".join(head + pos + ["negative %d" % len(neg)] + neg) + "\n"


def _matching_errors(what, left, right, res, cost, combine):
    k = len(left)
    if len(right) != k or res.matching is None:
        return ["%s: no finite matching between %d and %d bars" % (what, k, len(right))]
    rows = sorted(i for i, _ in res.matching)
    cols = sorted(j for _, j in res.matching)
    if rows != list(range(k)) or cols != list(range(k)):
        return ["%s: returned matching is not a bijection" % what]
    total = combine(cost(left[i], right[j]) for i, j in res.matching)
    if total != res.value:
        return ["%s: matching costs %r, reported value %r" % (what, total, res.value)]
    return []


def _linf(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _l1(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _reduced(s):
    pos, neg = Counter(s.positive.bars), Counter(s.negative.bars)
    common = pos & neg
    return [sorted((pos - common).elements()), sorted((neg - common).elements())]


#: Pairs compared by ``msb dist`` in the traced run.
CLI_PAIRS = 8


class Match(Workload):
    """Parse two signed barcodes, bottleneck on the unreduced pair, reduce
    both, 1-Wasserstein on the reduced pair."""

    name = "match"

    def __init__(self, positive, negative, shared, grid, pool):
        self.positive, self.negative, self.shared = positive, negative, shared
        self.grid, self.pool = grid, pool

    def inputs(self, seed, count):
        out = []
        for s in item_seeds(seed, self.name, count):
            rng = SplitMix64(s)
            out.append(tuple(signed_barcode_text(rng, self.positive, self.negative, self.shared, self.grid)
                             for _ in range(2)))
        return out

    def validate(self, pool):
        for pair in pool:
            for text in pair:
                s = msb.parse_signed_barcode(text)
                if (len(s.positive), len(s.negative)) != (self.positive, self.negative):
                    raise ValueError("generated signed barcode has the wrong size")

    def run(self, pair, call):
        s1 = call("io.parse_signed_barcode", msb.parse_signed_barcode, pair[0])
        s2 = call("io.parse_signed_barcode", msb.parse_signed_barcode, pair[1])
        bott = call("matching.bottleneck", msb.bottleneck_signed, s1, s2)
        r1 = call("grades.reduce_signed", msb.reduce_signed, s1)
        r2 = call("grades.reduce_signed", msb.reduce_signed, s2)
        w1 = call("matching.wasserstein", msb.wasserstein_signed, r1, r2, 1)
        return s1, s2, r1, r2, bott, w1

    def fingerprint(self, out):
        return {"bottleneck": out[4].value, "wasserstein": out[5].value}

    def verify(self, pair, out, call):
        s1, s2, r1, r2, bott, w1 = out
        errors = []
        for s, r in ((s1, r1), (s2, r2)):
            if _reduced(s) != [list(r.positive.bars), list(r.negative.bars)]:
                errors.append("reduce_signed does not cancel exactly the shared bars")
        left = sorted(s1.positive.bars + s2.negative.bars)
        right = sorted(s2.positive.bars + s1.negative.bars)
        errors += _matching_errors("bottleneck", left, right, bott, _linf, max)
        left = sorted(r1.positive.bars + r2.negative.bars)
        right = sorted(r2.positive.bars + r1.negative.bars)
        errors += _matching_errors("wasserstein", left, right, w1, _l1, sum)
        return errors

    def probe(self, pair, out, call):
        s1, s2 = out[0], out[1]
        call("grades.barcode_union", msb.barcode_union, s1.positive, s2.negative)
        call("grades.barcode_union", msb.barcode_union, s2.positive, s1.negative)

    @staticmethod
    def derived(t):
        if "cli.dist_dir" not in t:
            return {}
        return {"cli.dist_dir_overhead_s": t["cli.dist_dir"] - t["cli.library"]}

    def counts(self, pair, out):
        s1, s2, r1, r2 = out[:4]
        left = np.array(s1.positive.bars + s2.negative.bars, dtype=np.int16)
        right = np.array(s2.positive.bars + s1.negative.bars, dtype=np.int16)
        dist = np.abs(left[:, None, :] - right[None, :, :]).max(axis=2)
        return {
            "matching.bars_unreduced": len(left),
            "matching.bars_reduced": len(r1.positive) + len(r2.negative),
            "matching.candidates": int(np.unique(dist).size),
        }

    def probe_once(self, pool, tracer, workdir):
        """``msb dist`` on two directories of the first pairs, against the
        same work done pair by pair."""
        pool = pool[:CLI_PAIRS]
        dirs = [workdir / "dist_a", workdir / "dist_b"]
        for side, d in enumerate(dirs):
            d.mkdir(parents=True, exist_ok=True)
            for old in d.iterdir():
                old.unlink()
            for k, pair in enumerate(pool):
                (d / ("%03d.sbarc" % k)).write_text(pair[side])
        buf = StringIO()
        tracer.item = "cli"
        with tracer.span("cli.dist_dir"), redirect_stdout(buf):
            code = msb.cli.main(["dist", str(dirs[0]), str(dirs[1])])
        values = []
        for pair in pool:
            with tracer.span("cli.library"):
                s1 = msb.parse_signed_barcode(pair[0])
                s2 = msb.parse_signed_barcode(pair[1])
                values.append(msb.bottleneck_signed(s1, s2).value)
        want = "".join("%03d.sbarc %s\n" % (k, msb.io.fmt_float(v)) for k, v in enumerate(values))
        if code != 0 or buf.getvalue() != want:
            return ["msb dist on directories printed %r with exit code %d" % (buf.getvalue()[:200], code)]
        return []


# ---------------------------------------------------------------------------
# fuzz

DELTAS = (0.01, 0.05, 0.1)


def replay_stability(trials, delta, seed, call):
    """``run_stability``'s trials redone through the public functions.

    Follows its draw order from one SplitMix64 stream and its default
    sizes (gens <= 6, rels <= 6, grid 8); returns per trial the realized
    costs and both distances.
    """
    rng = msb.SplitMix64(seed)
    rows = []
    for _ in range(trials):
        ngens = 1 + rng.below(6)
        nrels = rng.below(7)
        base_seed = rng.next_u64()
        pert_seed = rng.next_u64()
        pres = call("generators.gen_random", msb.gen_random, base_seed, ngens, nrels, 8)
        out = call("generators.perturb", msb.perturb, pres, msb.PerturbSpec(delta, pert_seed))
        before = call("algebra.betti", msb.betti, pres).signed
        after = call("algebra.betti", msb.betti, out.presentation).signed
        d_b = call("matching.fuzz_bottleneck", msb.bottleneck_signed, before, after).value
        r_before = call("grades.reduce_signed", msb.reduce_signed, before)
        r_after = call("grades.reduce_signed", msb.reduce_signed, after)
        d_w = call("matching.fuzz_wasserstein", msb.wasserstein_signed, r_before, r_after, 1).value
        rows.append((out.cost_l1, out.cost_linf, d_b, d_w))
    return rows


_REPLAY_SPANS = (
    "generators.gen_random", "generators.perturb", "algebra.betti", "matching.fuzz_bottleneck",
    "grades.reduce_signed", "matching.fuzz_wasserstein",
)


class Fuzz(Workload):
    """One ``run_stability`` call of a fixed trial count with its own seed,
    cycling the acceptance deltas."""

    name = "fuzz"

    def __init__(self, trials, pool):
        self.trials, self.pool = trials, pool

    def inputs(self, seed, count):
        return [(s, DELTAS[k % len(DELTAS)]) for k, s in enumerate(item_seeds(seed, self.name, count))]

    def run(self, inp, call):
        seed, delta = inp
        return call("stability.run_stability", msb.run_stability, self.trials, delta, seed)

    def fingerprint(self, report):
        return {
            "trials": len(report.trials),
            "violations": len(report.violations),
            "max_ratio_bottleneck": report.max_ratio_bottleneck,
            "max_ratio_wasserstein": report.max_ratio_wasserstein,
        }

    def verify(self, inp, report, call):
        seed, delta = inp
        errors = ["violation: " + v for v in report.violations]
        if len(report.trials) != self.trials:
            errors.append("%d trials reported, %d asked" % (len(report.trials), self.trials))
        tol = 1e-9
        for t in report.trials:
            if t.cost_linf > 2 * delta + 1e-12:
                errors.append("trial %d: l-inf cost %r above 2*delta" % (t.index, t.cost_linf))
            if t.dist_bottleneck > 3 * t.cost_linf + tol or t.dist_wasserstein > 2 * t.cost_l1 + tol:
                errors.append("trial %d: a distance exceeds its stability bound" % t.index)
        replay = replay_stability(self.trials, delta, seed, direct)
        got = [(t.cost_l1, t.cost_linf, t.dist_bottleneck, t.dist_wasserstein) for t in report.trials]
        if replay != got:
            errors.append("run_stability disagrees with its parts replayed through the public API")
        return errors

    def probe(self, inp, report, call):
        seed, delta = inp
        replay_stability(self.trials, delta, seed, call)

    @staticmethod
    def derived(t):
        if "stability.run_stability" not in t:
            return {}
        parts = sum(t.get(name, 0.0) for name in _REPLAY_SPANS)
        return {"stability.overhead_s": t["stability.run_stability"] - parts}


def make(name: str, smoke: bool):
    """The workload ``name`` at full size, or at tiny size for the smoke run."""
    if name == "ingest-fine":
        return Ingest(name, n=3, levels=1000, pool=2) if smoke else Ingest(name, n=6, levels=1000, pool=12)
    if name == "ingest-coarse":
        return Ingest(name, n=4, levels=8, pool=2) if smoke else Ingest(name, n=14, levels=8, pool=8)
    if name == "match":
        if smoke:
            return Match(positive=30, negative=20, shared=10, grid=1000, pool=2)
        return Match(positive=650, negative=350, shared=300, grid=1000, pool=48)
    if name == "fuzz":
        return Fuzz(trials=5, pool=3) if smoke else Fuzz(trials=50, pool=24)
    raise ValueError("unknown workload %r" % name)
