"""End-to-end command-line behavior: outputs, formats, exit codes."""

import ast
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomli is the same parser
    tomllib = None

from msb import (
    ChainPair,
    GradedMatrix,
    Presentation,
    SplitMix64,
    betti,
    gen_chain,
    gen_free,
    gen_random,
    gen_staircase,
    homology_presentation,
    minimize_presentation,
    parse_presentation,
    parse_signed_barcode,
    serialize_bifiltration,
    serialize_presentation,
    serialize_signed_barcode,
)
from msb.cli import main
from msb.grades import join, leq
from msb.io import Bifiltration, Cell

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corner_module():
    return Presentation.from_relations(
        [(1.0, 0.0), (0.0, 1.0)], [((1.0, 1.0), {0: 1, 1: 1})]
    )


@pytest.fixture
def square_files(tmp_path):
    m = tmp_path / "m.sbarc"
    n = tmp_path / "n.sbarc"
    m.write_text(serialize_signed_barcode(betti(gen_free((0.0, 0.0))).signed))
    n.write_text(serialize_signed_barcode(betti(corner_module()).signed))
    return str(m), str(n)


def test_betti_per_degree_output(capsys, tmp_path):
    f = tmp_path / "n.mpres"
    f.write_text(serialize_presentation(corner_module()))
    code, out, err = run(capsys, "betti", str(f))
    assert code == 0
    assert out == "beta0 2\n0 1\n1 0\nbeta1 1\n1 1\nbeta2 0\n"
    assert err == ""


def test_betti_signed_output_is_sbarc(capsys, tmp_path):
    f = tmp_path / "n.mpres"
    f.write_text(serialize_presentation(corner_module()))
    code, out, err = run(capsys, "betti", str(f), "--signed")
    assert code == 0
    assert out == "sbarc 1\nn 2\npositive 2\n0 1\n1 0\nnegative 1\n1 1\n"
    parsed = parse_signed_barcode(out)
    assert parsed.negative.bars == ((1.0, 1.0),)


def test_reduce_presentation_gives_decomposition(capsys, tmp_path):
    f = tmp_path / "chain.mpres"
    f.write_text(serialize_presentation(gen_chain(3, 1.0)))
    code, out, err = run(capsys, "reduce", str(f))
    assert code == 0
    assert out == "sbarc 1\nn 2\npositive 1\n0 0\nnegative 1\n3 3\n"


def test_reduce_sbarc_cancels(capsys, tmp_path):
    f = tmp_path / "s.sbarc"
    f.write_text("sbarc 1\nn 2\npositive 2\n0 0\n1 1\nnegative 1\n1 1\n")
    code, out, err = run(capsys, "reduce", str(f))
    assert code == 0
    assert out == "sbarc 1\nn 2\npositive 1\n0 0\nnegative 0\n"


def test_hilbert_on_presentation(capsys, tmp_path):
    f = tmp_path / "hook.mpres"
    f.write_text(serialize_presentation(corner_module()))
    code, out, err = run(capsys, "hilbert", str(f), "--at", "0.5,2;1,1;0,0")
    assert code == 0
    assert out == "1\n1\n0\n"


def test_hilbert_on_signed_barcode(capsys, tmp_path):
    f = tmp_path / "s.sbarc"
    f.write_text(serialize_signed_barcode(betti(gen_chain(2, 1.0)).signed))
    code, out, err = run(capsys, "hilbert", str(f), "--at", "0,0;1.5,1.5;2,2")
    assert code == 0
    assert out == "1\n1\n0\n"


@pytest.mark.parametrize("point", ["nan,0", "0,inf", "-inf,1"])
def test_hilbert_non_finite_point_is_usage_error(capsys, tmp_path, point):
    f = tmp_path / "hook.mpres"
    f.write_text(serialize_presentation(corner_module()))
    code, out, err = run(capsys, "hilbert", str(f), "--at", "0,0;" + point)
    assert code == 1 and out == ""
    assert "query point %r is not finite" % point in err


def test_dist_bottleneck_value(capsys, square_files):
    m, n = square_files
    code, out, err = run(capsys, "dist", m, n, "--metric", "bottleneck")
    assert code == 0
    assert out == "1\n"
    # the bottleneck metric ignores --p
    assert run(capsys, "dist", m, n, "--p", "abc") == (0, "1\n", "")


def test_dist_accepts_presentations(capsys, tmp_path):
    a = tmp_path / "a.mpres"
    b = tmp_path / "b.mpres"
    a.write_text(serialize_presentation(gen_free((0.0, 0.0))))
    b.write_text(serialize_presentation(corner_module()))
    code, out, err = run(capsys, "dist", str(a), str(b), "--metric", "wasserstein", "--p", "1")
    assert code == 0
    assert out == "2\n"


def test_dist_zero_on_reduce_equivalent(capsys, tmp_path):
    a = tmp_path / "a.sbarc"
    b = tmp_path / "b.sbarc"
    a.write_text("sbarc 1\nn 2\npositive 1\n0 0\nnegative 0\n")
    b.write_text("sbarc 1\nn 2\npositive 2\n0 0\n1 1\nnegative 1\n1 1\n")
    code, out, err = run(capsys, "dist", str(a), str(b), "--metric", "wasserstein", "--p", "1")
    assert code == 0
    assert out == "0\n"


def test_dist_print_matching(capsys, square_files):
    m, n = square_files
    code, out, err = run(
        capsys, "dist", m, n, "--metric", "wasserstein", "--p", "1", "--print-matching"
    )
    assert code == 0
    assert out == "2\nmatch 2\n0 0\n1 1\n"


def test_dist_infinite_prints_inf(capsys, tmp_path):
    a = tmp_path / "a.sbarc"
    b = tmp_path / "b.sbarc"
    a.write_text("sbarc 1\nn 2\npositive 1\n0 0\nnegative 0\n")
    b.write_text("sbarc 1\nn 2\npositive 0\nnegative 0\n")
    code, out, err = run(capsys, "dist", str(a), str(b))
    assert code == 0
    assert out == "inf\n"


def test_dist_wasserstein_inf_order(capsys, square_files):
    m, n = square_files
    code, out, err = run(capsys, "dist", m, n, "--metric", "wasserstein", "--p", "inf")
    assert code == 0
    assert out == "1\n"
    for p in ("Infinity", " INF ", "+inf"):
        assert run(capsys, "dist", m, n, "--metric", "wasserstein", "--p", p) == (0, "1\n", "")


def test_dist_directory_mode(capsys, tmp_path):
    da = tmp_path / "a"
    db = tmp_path / "b"
    da.mkdir()
    db.mkdir()
    for k in (2, 3, 4):
        text = serialize_signed_barcode(betti(gen_staircase(k)).signed)
        (da / ("s%d.sbarc" % k)).write_text(text)
        (db / ("s%d.sbarc" % k)).write_text(text)
    (da / "only_a.sbarc").write_text("sbarc 1\nn 2\npositive 0\nnegative 0\n")
    code, out, err = run(capsys, "dist", str(da), str(db))
    assert code == 0
    assert out == "s2.sbarc 0\ns3.sbarc 0\ns4.sbarc 0\n"


def test_dist_mixed_file_and_directory_is_usage_error(capsys, tmp_path, square_files):
    m, _ = square_files
    code, out, err = run(capsys, "dist", m, str(tmp_path))
    assert code == 1
    assert "error" in err


def test_gen_writes_canonical_bytes(capsys, tmp_path):
    out_path = tmp_path / "stair.mpres"
    code, out, err = run(capsys, "gen", "staircase", "3", "-o", str(out_path))
    assert code == 0
    first = out_path.read_bytes()
    run(capsys, "gen", "staircase", "3", "-o", str(out_path))
    assert out_path.read_bytes() == first
    parsed = parse_presentation(out_path.read_text())
    assert parsed.num_gens == 4


def test_gen_to_stdout(capsys):
    code, out, err = run(capsys, "gen", "hook", "0,0", "1,1")
    assert code == 0
    assert out == "mpres 1\nfield 2\nn 2\ngens 1\n0 0\nrels 1\n1 1 1 0:1\n"


def test_gen_all_names(capsys, tmp_path):
    cases = [
        ("free", ["0,1"]),
        ("hook", ["0,0", "2,2"]),
        ("staircase", ["4"]),
        ("chain", ["3", "0.5"]),
        ("interval", ["0", "2"]),
        ("random", ["42", "4", "3", "8"]),
    ]
    for name, params in cases:
        target = tmp_path / ("%s.mpres" % name)
        code, out, err = run(capsys, "gen", name, *params, "-o", str(target))
        assert code == 0, (name, err)
        parse_presentation(target.read_text())


def test_gen_usage_errors(capsys):
    code, out, err = run(capsys, "gen", "hook", "0,0")
    assert code == 1
    code, out, err = run(capsys, "gen", "staircase", "0")
    assert code == 1
    code, out, err = run(capsys, "gen", "hook", "1,1", "0,0")
    assert code == 1


def test_gen_field_reaches_the_output(capsys):
    code, out, err = run(capsys, "gen", "free", "0,0", "--field", "5")
    assert code == 0
    assert out == "mpres 1\nfield 5\nn 2\ngens 1\n0 0\nrels 0\n"
    code, out, err = run(capsys, "gen", "free", "0,0", "--field", "4")
    assert code == 1 and out == ""


@pytest.mark.parametrize("field", ["0", "1", "-3", "4"])
def test_ingest_nonprime_field_is_usage_error(capsys, tmp_path, field):
    # refused before the file is read: a missing file would be a data error
    code, out, err = run(capsys, "ingest", str(tmp_path / "missing.mbif"), "--field", field)
    assert code == 1 and out == ""
    assert "field order must be prime, got %s" % field in err


def test_a_field_order_from_2_64_up_is_a_usage_error(capsys, tmp_path):
    field = str(2**64 + 13)  # a prime
    message = "error: field order must be below 2**64, got %s\n" % field
    assert run(capsys, "ingest", str(tmp_path / "missing.mbif"), "--field", field) == (1, "", message)
    assert run(capsys, "gen", "free", "0,0", "--field", field) == (1, "", message)


def test_gen_random_rejects_a_field_other_than_two(capsys):
    code, out, err = run(capsys, "gen", "random", "1", "3", "3", "4", "--field", "3")
    assert code == 1 and out == ""
    assert "F_2 only" in err
    code, out, err = run(capsys, "gen", "random", "1", "3", "3", "4", "--field", "2")
    assert code == 0 and out.startswith("mpres 1\nfield 2\n")


# (msb gen arguments, the exact stderr of the refusal); each exits 1 with
# nothing on stdout
GEN_ERRORS = [
    (["free"], "error: expected: gen free GRADE\n"),
    (["free", "0,0", "1,1"], "error: expected: gen free GRADE\n"),
    (["hook", "0,0"], "error: expected: gen hook BIRTH DEATH\n"),
    (["staircase"], "error: expected: gen staircase K\n"),
    (["chain", "2"], "error: expected: gen chain M EPS\n"),
    (["interval", "0"], "error: expected: gen interval BIRTH DEATH\n"),
    (["random", "1", "2", "3"], "error: expected: gen random SEED GENS RELS GRID\n"),
    (["random", "1", "2", "3", "--field", "3"],
     "error: expected: gen random SEED GENS RELS GRID\n"),
    (["free", "0,x"], "error: malformed grade '0,x'\n"),
    (["hook", "0,0", "x"], "error: malformed grade 'x'\n"),
    (["hook", "1,1", "0,0"],
     "error: hook needs a < b componentwise, got (1.0, 1.0), (0.0, 0.0)\n"),
    (["staircase", "x"], "error: invalid literal for int() with base 10: 'x'\n"),
    (["staircase", "0"], "error: staircase needs k >= 1, got 0\n"),
    (["chain", "x", "1"], "error: invalid literal for int() with base 10: 'x'\n"),
    (["chain", "2", "-1"], "error: chain step must be positive, got -1.0\n"),
    (["interval", "a", "1"], "error: could not convert string to float: 'a'\n"),
    (["interval", "2", "1"], "error: interval needs a < b, got 2.0, 1.0\n"),
    (["random", "a", "2", "3", "4", "--field", "3"],
     "error: gen random is over F_2 only, got --field 3\n"),
    (["random", "a", "2", "3", "4"], "error: invalid literal for int() with base 10: 'a'\n"),
    (["free", "0,0", "--field", "4"], "error: field order must be prime, got 4\n"),
]


@pytest.mark.parametrize("argv, message", GEN_ERRORS, ids=[" ".join(a) for a, _ in GEN_ERRORS])
def test_gen_error_message_is_exact(capsys, argv, message):
    assert run(capsys, "gen", *argv) == (1, "", message)


def test_gen_unknown_name_lists_every_generator(capsys):
    code, out, err = run(capsys, "gen", "foo")
    assert code == 1 and out == ""
    names = ("free", "hook", "staircase", "chain", "interval", "random")
    assert "{%s}" % ",".join(names) in err


def test_ingest_pipeline(capsys, tmp_path):
    cells = [Cell(0, (0.0, 0.0), ()) for _ in range(3)]
    cells += [
        Cell(1, (1.0, 0.0), ((0, 1), (1, 1))),
        Cell(1, (0.0, 1.0), ((1, 1), (2, 1))),
        Cell(1, (1.0, 1.0), ((0, 1), (2, 1))),
    ]
    src = tmp_path / "tri.mbif"
    src.write_text(serialize_bifiltration(Bifiltration(cells, 2)))
    out_path = tmp_path / "h1.mpres"
    code, out, err = run(capsys, "ingest", str(src), "--degree", "1", "-o", str(out_path))
    assert code == 0
    pres = parse_presentation(out_path.read_text())
    res = betti(pres)
    assert res.by_degree[0].bars == ((1.0, 1.0),)


def test_three_parameter_betti_and_ingest_are_data_errors(capsys, tmp_path):
    src = tmp_path / "m.mpres"
    pres = Presentation.from_relations([(0.0, 0.0, 0.0)], [((1.0, 1.0, 1.0), {0: 1})])
    src.write_text(serialize_presentation(pres))
    message = "error: Betti barcodes support 1 or 2 parameters, got 3\n"
    assert run(capsys, "betti", str(src)) == (2, "", message)
    src = tmp_path / "edge.mbif"
    cells = [Cell(0, (0.0, 0.0, 0.0), ()), Cell(0, (1.0, 0.0, 0.0), ())]
    cells.append(Cell(1, (1.0, 1.0, 1.0), ((0, 1), (1, 1))))
    src.write_text(serialize_bifiltration(Bifiltration(cells, 2)))
    message = "error: kernel computation supports 1 or 2 parameters, got 3\n"
    for degree in ("0", "1", "2"):
        assert run(capsys, "ingest", str(src), "--degree", degree) == (2, "", message)


def lower_star_square(seed, n, levels, field=2):
    """Lower-star bifiltration of the triangulated n x n grid over F_field.

    Each vertex gets two seeded values in {0..levels-1}; an edge or a
    triangle is born at the join of its vertices.  Boundaries are
    oriented (the faces of a simplex on sorted vertices alternate in
    sign), so the boundary squares to zero over every field; over F_2
    every coefficient is 1.
    """
    rng = SplitMix64(seed)
    vals = [(float(rng.below(levels)), float(rng.below(levels))) for _ in range(n * n)]
    cells = []

    def add(dim, verts, faces):
        grade = tuple(max(vals[v][k] for v in verts) for k in (0, 1))
        cells.append(Cell(dim, grade, tuple(sorted(faces))))
        return len(cells) - 1

    for v in range(n * n):
        add(0, [v], [])
    edge = {}
    for r in range(n):
        for c in range(n):
            for r2, c2 in ((r, c + 1), (r + 1, c), (r + 1, c + 1)):
                if r2 < n and c2 < n:
                    u, v = r * n + c, r2 * n + c2
                    edge[u, v] = add(1, [u, v], [(u, -1), (v, 1)])
    for r in range(n - 1):
        for c in range(n - 1):
            a, b, d, e = r * n + c, r * n + c + 1, (r + 1) * n + c, (r + 1) * n + c + 1
            for m in (b, d):
                add(2, [a, m, e], [(edge[m, e], 1), (edge[a, e], -1), (edge[a, m], 1)])
    return Bifiltration(cells, field)


@pytest.mark.parametrize(
    "degree, digest",
    [
        (0, "b6403c8ed57477665070bc129d44617d1ced3c52270b935ca78ad7428ae5f7f7"),
        (1, "3917ec9e5a7b87a257acee2a8f4c82359ea81cf144b8c12a5d3db7fa069dd83e"),
    ],
)
def test_ingest_output_bytes_pinned(capsys, tmp_path, degree, digest):
    # the ingest output of a seeded 5x5 lower-star grid at 50 levels, a
    # presentation of its chunk-reduced complex, is pinned byte for byte,
    # so a rewrite of the chunking or the kernel cannot move a generator,
    # a relation or a coefficient unnoticed
    src = tmp_path / "grid.mbif"
    src.write_text(serialize_bifiltration(lower_star_square(20240, 5, 50)))
    code, out, err = run(capsys, "ingest", str(src), "--degree", str(degree))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def random_presentation(rng, p, dim):
    """Presentation over F_p on the grid {0, 1, 2}^dim: random relations,
    and about a third of them a combination of two earlier ones at the
    join of their grades, so both passes of minimization have work."""

    def grade():
        return tuple(float(rng.below(3)) for _ in range(dim))

    gens = [grade() for _ in range(1 + rng.below(6))]
    rels = []
    for _ in range(rng.below(9)):
        if len(rels) >= 2 and rng.below(3) == 0:
            (ga, ca), (gb, cb) = rels[rng.below(len(rels))], rels[rng.below(len(rels))]
            f = 1 + rng.below(p - 1)
            col = {i: (ca.get(i, 0) + f * cb.get(i, 0)) % p for i in set(ca) | set(cb)}
            rels.append((join(ga, gb), {i: v for i, v in col.items() if v}))
            continue
        g = grade()
        col = {i: 1 + rng.below(p - 1) for i, r in enumerate(gens) if leq(r, g) and rng.below(2)}
        rels.append((g, col))
    return Presentation.from_relations(gens, rels, field=p, dim=dim)


def test_minimized_output_pinned():
    # the bytes of minimized presentations are pinned over the random corpus
    # of the kernel pin, over the grid above in degrees 0 and 1, and over a
    # corpus in 1, 2 and 3 parameters over F_2, F_3 and F_5, so a rewrite of
    # the span tests cannot move a kept relation or a coefficient
    digest = hashlib.sha256()
    rng = SplitMix64(31)
    for trial in range(120):
        p = gen_random(5000 + trial, 1 + rng.below(6), rng.below(7), 5)
        digest.update(serialize_presentation(minimize_presentation(p)).encode())
    bif = lower_star_square(20240, 5, 50)
    for degree in (0, 1):
        chain = ChainPair(f=bif.boundary_matrix(degree + 1), g=bif.boundary_matrix(degree))
        pres = minimize_presentation(homology_presentation(chain))
        digest.update(serialize_presentation(pres).encode())
    assert digest.hexdigest() == "b4a8252f45b1220692715af6796dcc782cbe69fdbe9a8697f93854d9dff28dd2"
    rng = SplitMix64(97)
    for field in (2, 3, 5):
        for dim in (1, 2, 3):
            for _ in range(40):
                pres = minimize_presentation(random_presentation(rng, field, dim))
                digest.update(serialize_presentation(pres).encode())
    assert digest.hexdigest() == "5a79c821037e3472c7bfcb09a2ae6227e448b9fbbf471809415852fff14eaa71"


def test_check_stability_reports_and_passes(capsys):
    code, out, err = run(
        capsys, "check-stability", "--trials", "5", "--delta", "0.05", "--seed", "7"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trials 5"
    assert lines[1] == "delta 0.05"
    assert lines[2].startswith("max_ratio_bottleneck ")
    assert lines[3].startswith("max_ratio_wasserstein ")
    assert lines[4] == "violations 0"
    for line in lines[2:4]:
        assert float(line.split()[1]) <= 1.0


def test_check_stability_zero_delta(capsys):
    code, out, err = run(
        capsys, "check-stability", "--trials", "5", "--delta", "0", "--seed", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert "max_ratio_bottleneck 0" in lines
    assert "max_ratio_wasserstein 0" in lines


def test_check_stability_violations_exit_3_and_go_to_stderr(capsys, monkeypatch):
    import msb.stability

    # a bound of 0 on the bottleneck: every trial that moves a bar violates it
    monkeypatch.setattr(msb.stability, "BOTTLENECK_FACTOR", 0.0)
    code, out, err = run(capsys, "check-stability", "--trials", "3", "--delta", "0.5", "--seed", "7")
    assert code == 3
    assert out.splitlines()[0] == "trials 3" and out.splitlines()[4] == "violations 3"
    assert "max_ratio_bottleneck inf" in out.splitlines()
    lines = err.splitlines()
    assert len(lines) == 3
    for t, line in enumerate(lines):
        assert re.fullmatch(r"trial %d: bottleneck [0-9.e-]+ exceeds bound 0\.0" % t, line), line


@pytest.mark.parametrize(
    "at, message",
    [
        ("0,0;1,x", "malformed query point '1,x'"),
        ("0,0;1,2,3", "query point '1,2,3' has 3 coordinates, expected 2"),
        (";", "no query points given"),
    ],
)
def test_hilbert_bad_query_points_are_usage_errors(capsys, tmp_path, at, message):
    f = tmp_path / "hook.mpres"
    f.write_text(serialize_presentation(corner_module()))
    code, out, err = run(capsys, "hilbert", str(f), "--at", at)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_dist_on_directories_with_no_common_name_is_a_data_error(capsys, tmp_path, square_files):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    shutil.copy(square_files[0], a / "m.sbarc")
    shutil.copy(square_files[1], b / "n.sbarc")
    code, out, err = run(capsys, "dist", str(a), str(b))
    assert (code, out, err) == (2, "", "error: no common file names under %s and %s\n" % (a, b))


def test_a_file_of_the_wrong_kind_is_a_data_error(capsys, tmp_path, square_files):
    sbarc = square_files[0]
    code, out, err = run(capsys, "ingest", sbarc)
    assert (code, out, err) == (2, "", "error: %s: expected an mbif document, found sbarc\n" % sbarc)
    code, out, err = run(capsys, "betti", sbarc)
    assert (code, out, err) == (2, "", "error: %s: expected an mpres document, found sbarc\n" % sbarc)


def test_exit_code_usage(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "dist", "only_one")[0] == 1


# (msb arguments, the exact stderr); each option value is refused with exit
# 1 before any file is read: the files named here do not exist
OPTION_ERRORS = [
    (["dist", "a", "b", "--metric", "wasserstein", "--p", "abc"],
     "error: invalid --p value 'abc'\n"),
    (["dist", "a", "b", "--metric", "wasserstein", "--p", "0.5"],
     "error: invalid --p value '0.5': must be in [1, inf]\n"),
    (["dist", "a", "b", "--metric", "wasserstein", "--p", "nan"],
     "error: invalid --p value 'nan': must be in [1, inf]\n"),
    (["dist", "a", "b", "--metric", "wasserstein", "--p=-inf"],
     "error: invalid --p value '-inf': must be in [1, inf]\n"),
    (["check-stability", "--trials", "-1"],
     "error: invalid --trials value -1: must be nonnegative\n"),
    (["check-stability", "--delta", "-0.5"],
     "error: invalid --delta value -0.5: must be finite and nonnegative\n"),
    (["check-stability", "--delta", "nan"],
     "error: invalid --delta value nan: must be finite and nonnegative\n"),
    (["check-stability", "--delta", "inf"],
     "error: invalid --delta value inf: must be finite and nonnegative\n"),
    (["ingest", "a", "--degree", "-1"],
     "error: invalid --degree value -1: must be nonnegative\n"),
]


@pytest.mark.parametrize("argv, message", OPTION_ERRORS, ids=[" ".join(a) for a, _ in OPTION_ERRORS])
def test_bad_option_value_is_usage_error(capsys, tmp_path, argv, message):
    argv = [str(tmp_path / a) if a in ("a", "b") else a for a in argv]
    assert run(capsys, *argv) == (1, "", message)


def test_exit_code_missing_file(capsys):
    code, out, err = run(capsys, "betti", "no_such_file.mpres")
    assert code == 2
    assert "error" in err and out == ""


def test_exit_code_parse_error_with_position(capsys, tmp_path):
    f = tmp_path / "bad.mpres"
    f.write_text("mpres 1\nfield 2\nn 2\ngens 1\n1 1\nrels 1\n0 0 1 0:1\n")
    code, out, err = run(capsys, "betti", str(f))
    assert code == 2
    assert "line 7" in err


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_an_output_path_that_cannot_be_written_is_a_data_error(capsys, tmp_path, where):
    out = tmp_path if where == "a directory" else tmp_path / "missing" / "x.mpres"
    mbif = tmp_path / "edge.mbif"
    cells = [Cell(0, (0.0, 0.0), ()), Cell(0, (1.0, 0.0), ()), Cell(1, (1.0, 1.0), ((0, 1), (1, 1)))]
    mbif.write_text(serialize_bifiltration(Bifiltration(cells, 2)))
    for argv in (["gen", "free", "0,0"], ["ingest", str(mbif)]):
        code, out_text, err = run(capsys, *argv, "-o", str(out))
        assert (code, out_text) == (2, "")
        assert err.startswith("error: cannot write %s: " % out) and "Traceback" not in err


def test_a_parse_error_names_its_file(capsys, tmp_path):
    a, b = tmp_path / "A", tmp_path / "B"
    a.mkdir()
    b.mkdir()
    good = serialize_presentation(gen_free((0.0, 0.0)))
    for d in (a, b):
        (d / "1.mpres").write_text(good)
    (a / "2.mpres").write_text(good)
    (b / "2.mpres").write_text("mpres 1\nfield 2\nn 2\ngens 1\n0 x\nrels 0\n")
    bad = b / "2.mpres"
    message = "error: %s: line 5, column 3: expected number generator coordinate, got 'x'\n" % bad
    assert run(capsys, "dist", str(a), str(b)) == (2, "", message)
    assert run(capsys, "betti", str(bad)) == (2, "", message)
    bad = tmp_path / "bad.mbif"
    bad.write_text("mbif 1\nfield 2\nn 2\ncells 1\n0 0 y\n")
    message = "error: %s: line 5, column 5: expected number cell 0 coordinate, got 'y'\n" % bad
    assert run(capsys, "ingest", str(bad)) == (2, "", message)


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # every file the CLI reads or writes is UTF-8: under a Latin-1 locale the
    # bytes c3 85 of an "Å" would decode to "Ã" and NEL, and NEL breaks a line
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(PYPROJECT.parent / "src"), env.get("PYTHONPATH", "")])
    strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "msb"]

    def msb(*argv):
        return subprocess.run(strict + list(argv), capture_output=True, text=True, env=env, timeout=60)

    f = tmp_path / "chain.mpres"
    gen = msb("gen", "chain", "2", "1", "-o", str(f))
    assert (gen.returncode, gen.stdout, gen.stderr) == (0, "", "")
    plain = msb("betti", str(f))
    assert (plain.returncode, plain.stderr) == (0, "")
    lines = f.read_bytes().split(b"\n", 1)
    f.write_bytes(lines[0] + b"\n# \xc3\x85ngstr\xc3\xb6m\n" + lines[1])
    commented = msb("betti", str(f))
    assert (commented.returncode, commented.stdout, commented.stderr) == (0, plain.stdout, "")
    assert plain.stdout == "beta0 2\n0 0\n1 1\nbeta1 2\n1 1\n2 2\nbeta2 0\n"
    bad = tmp_path / "latin1.mpres"
    bad.write_bytes(b"mpres 1\n# \xc5\n")
    proc = msb("betti", str(bad))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot read %s: " % bad) and "utf-8" in proc.stderr


# What an installed console-script wrapper does: load the entry point,
# name the program after the script, and exit with the callable's result.
RUN_ENTRY_POINT = """
import sys
from importlib.metadata import EntryPoint
ep = EntryPoint(name=sys.argv[1], value=sys.argv[2], group="console_scripts")
func = ep.load()
sys.argv = [ep.name] + sys.argv[3:]
sys.exit(func())
"""


def test_console_script_installed(tmp_path):
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "msb", "gen", "chain", "2", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("mpres 1\n")
    toml = tomllib if tomllib is not None else pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as f:
        spec = toml.load(f)["project"]["scripts"]["msb"]
    proc2 = subprocess.run(
        [sys.executable, "-c", RUN_ENTRY_POINT, "msb", spec, "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc2.returncode == 0, proc2.stderr
    assert "betti" in proc2.stdout


def test_package_imports_only_the_standard_library_and_declared_dependencies():
    # a module that happens to be installed here but is not declared in
    # pyproject.toml would be missing where msb is installed from it
    toml = tomllib if tomllib is not None else pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as f:
        deps = toml.load(f)["project"]["dependencies"]
    # each declared distribution is imported under its own name
    allowed = set(sys.stdlib_module_names) | {"msb"}
    allowed |= {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in deps}
    imported = {}
    for path in sorted((PYPROJECT.parent / "src" / "msb").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # a relative import stays inside msb
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert "numpy" in imported and "math" in imported
    assert {m: where for m, where in imported.items() if m not in allowed} == {}


def _imported_modules(tree):
    """The dotted names of the modules an ``msb`` module's imports load."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the msb package
                base = "msb" + ("." + base if base else "")
            yield base
            yield from (base + "." + alias.name for alias in node.names)


def test_column_arithmetic_lives_in_algebra_only():
    # algebra.py is the one module that packs, adds or reduces columns: no
    # other module names its column helpers, io.py neither shifts nor XORs,
    # and matching.py and grades.py, which io.py imports through algebra.py,
    # do not import io.py
    helpers = {"_addmul", "_column", "_items", "_lead", "_renumber", "_shift",
               "_packed_columns", "_Reducer", "_local_pairs"}
    src = PYPROJECT.parent / "src" / "msb"
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    named = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add((name, node.id))
            elif isinstance(node, ast.Attribute):
                named.add((name, node.attr))
            elif isinstance(node, ast.alias):
                named |= {(name, node.name), (name, node.asname)}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named.add((name, node.name))
    assert {(name, h) for name, h in named if h in helpers and name != "algebra.py"} == set()
    bit_ops = (ast.LShift, ast.RShift, ast.BitXor)
    assert [
        node.lineno
        for node in ast.walk(trees["io.py"])
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, bit_ops)
    ] == []
    assert [n for n in ("matching.py", "grades.py") if "msb.io" in _imported_modules(trees[n])] == []
    # a graded matrix is its packed columns: no module but algebra.py reads
    # the entries view, and outside the view itself only the public
    # from_relations builds a (row, col)-keyed dict, for the public constructor
    assert "cols" in GradedMatrix.__slots__ and "entries" not in GradedMatrix.__slots__
    reads, builds = set(), set()
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "entries":
                    reads.add(name)
                if isinstance(node, ast.DictComp):
                    keys = [node.key]
                elif isinstance(node, ast.Dict):
                    keys = node.keys
                elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                    keys = [node.slice]
                else:
                    continue
                if any(isinstance(k, ast.Tuple) for k in keys):
                    builds.add((name, fn.name))
    assert reads == {"algebra.py"}
    assert builds == {("algebra.py", "entries"), ("algebra.py", "from_relations")}


def test_cell_format_lives_in_io_only():
    # cells reach the chunk reduction as the reader's dims, grades and
    # boundaries, so algebra.py reads no field that only Cell has (GradedMatrix
    # has a dim too)
    tree = ast.parse((PYPROJECT.parent / "src" / "msb" / "algebra.py").read_text())
    reads = [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("boundary", "grade")
    ]
    assert reads == []


def test_value_equality_is_defined_once():
    # the value types compare and hash through _Frozen, each over the fields
    # it names; GradedMatrix alone hashes otherwise, by its entries, since
    # odd-prime columns are dicts (Cell's pair comes from its dataclass)
    src = PYPROJECT.parent / "src" / "msb"
    classes = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    frozen = {"_Frozen"}
    while True:
        more = {
            name for name, node in classes.items()
            if any(isinstance(b, ast.Name) and b.id in frozen for b in node.bases)
        }
        if more <= frozen:
            break
        frozen |= more
    assert frozen == {"_Frozen", "Barcode", "SignedBarcode", "GradedMatrix", "Presentation", "Cell", "Bifiltration"}
    defines = {"__eq__": set(), "__hash__": set()}
    for name in frozen:
        for node in classes[name].body:
            if isinstance(node, ast.FunctionDef):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for target in set(targets) & defines.keys():
                defines[target].add(name)
    assert defines == {"__eq__": {"_Frozen"}, "__hash__": {"_Frozen", "GradedMatrix"}}


@pytest.mark.skipif(
    shutil.which("msb") is None,
    reason="msb console script not on PATH (package not installed)",
)
def test_console_script_on_path():
    proc = subprocess.run(["msb", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "betti" in proc.stdout
