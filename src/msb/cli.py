"""Command line interface.

Exit codes: 0 success, 1 usage error (a bad option value among them,
refused before any file is read), 2 parse or validity error (a file that
cannot be read or written among them), 3 stability assertion failure.
Values go to stdout, diagnostics to stderr.  Output is byte-deterministic
for fixed inputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from .algebra import _field_error, betti, pointwise_dim
from .grades import SignedBarcode, fmt_float, reduce_signed
from .hilbert import hilbert_eval, minimal_hilbert_decomposition
from .io import (
    ParseError,
    chain_to_presentation,
    _grade_lines,
    parse_any,
    parse_bifiltration,
    serialize_presentation,
    serialize_signed_barcode,
    sniff_format,
)
from .generators import (
    gen_chain,
    gen_free,
    gen_hook,
    gen_one_param_interval,
    gen_random,
    gen_staircase,
)
from .matching import _check_p, wasserstein_signed
from .stability import run_stability

USAGE_ERROR = 1
DATA_ERROR = 2
STABILITY_ERROR = 3


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _bad_option(name: str, value, rule: str) -> _CliError:
    """The usage error for ``value`` of option ``--name``, which must be ``rule``."""
    return _CliError("invalid --%s value %r: must be %s" % (name, value, rule), USAGE_ERROR)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise _CliError("cannot read %s: %s" % (path, e), DATA_ERROR)


@contextmanager
def _parsing(path: str):
    """Name ``path`` in a :class:`ParseError` raised in the block."""
    try:
        yield
    except ParseError as e:
        raise _CliError("%s: %s" % (path, e), DATA_ERROR)


def _load(path: str, *kinds: str, parse=parse_any):
    """``(kind, document)`` of the file, whose format must be one of ``kinds``,
    as ``parse`` reads it."""
    text = _read(path)
    with _parsing(path):
        kind = sniff_format(text)
        if kind not in kinds:
            raise _CliError(
                "%s: expected an %s document, found %s" % (path, " or ".join(kinds), kind),
                DATA_ERROR,
            )
        return kind, parse(text)


def _load_signed(path: str) -> SignedBarcode:
    kind, obj = _load(path, "sbarc", "mpres")
    return obj if kind == "sbarc" else betti(obj).signed


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as e:
        raise _CliError("cannot write %s: %s" % (out, e), DATA_ERROR)


def _parse_points(raw: str, dim: int) -> list[tuple]:
    points = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            coords = tuple(float(tok) for tok in chunk.split(","))
        except ValueError:
            raise _CliError("malformed query point %r" % chunk, USAGE_ERROR)
        if not all(map(math.isfinite, coords)):
            raise _CliError("query point %r is not finite" % chunk, USAGE_ERROR)
        if len(coords) != dim:
            raise _CliError(
                "query point %r has %d coordinates, expected %d"
                % (chunk, len(coords), dim),
                USAGE_ERROR,
            )
        points.append(coords)
    if not points:
        raise _CliError("no query points given", USAGE_ERROR)
    return points


def cmd_betti(args) -> int:
    _, pres = _load(args.file, "mpres")
    result = betti(pres)
    if args.signed:
        sys.stdout.write(serialize_signed_barcode(result.signed))
    else:
        for d, bc in enumerate(result.by_degree):
            sys.stdout.write("beta%d %d\n" % (d, len(bc)))
            for line in _grade_lines(bc):
                sys.stdout.write(line + "\n")
    return 0


def cmd_reduce(args) -> int:
    kind, obj = _load(args.file, "sbarc", "mpres")
    reduce = reduce_signed if kind == "sbarc" else minimal_hilbert_decomposition
    sys.stdout.write(serialize_signed_barcode(reduce(obj)))
    return 0


def cmd_hilbert(args) -> int:
    kind, obj = _load(args.file, "sbarc", "mpres")
    evaluate = hilbert_eval if kind == "sbarc" else pointwise_dim
    for pt in _parse_points(args.at, obj.dim or 1):
        sys.stdout.write("%d\n" % evaluate(obj, pt))
    return 0


def _metric(args) -> float:
    """The order p of the chosen metric; the bottleneck distance is p = inf."""
    try:
        p = math.inf if args.metric == "bottleneck" else float(args.p)
    except ValueError:
        raise _CliError("invalid --p value %r" % args.p, USAGE_ERROR)
    try:
        return _check_p(p)
    except ValueError:
        raise _bad_option("p", args.p, "in [1, inf]")


def cmd_dist(args) -> int:
    p = _metric(args)
    a = Path(args.a)
    b = Path(args.b)
    if a.is_dir() != b.is_dir():
        raise _CliError("dist needs two files or two directories", USAGE_ERROR)
    if a.is_dir():
        names = sorted(
            {f.name for f in a.iterdir() if f.is_file()}
            & {f.name for f in b.iterdir() if f.is_file()}
        )
        if not names:
            raise _CliError("no common file names under %s and %s" % (a, b), DATA_ERROR)
        # compare every pair first, so a bad file leaves stdout empty
        results = [
            wasserstein_signed(_load_signed(str(a / name)), _load_signed(str(b / name)), p)
            for name in names
        ]
        for name, res in zip(names, results):
            sys.stdout.write("%s %s\n" % (name, fmt_float(res.value)))
        return 0
    res = wasserstein_signed(_load_signed(args.a), _load_signed(args.b), p)
    sys.stdout.write(fmt_float(res.value) + "\n")
    if args.print_matching and res.matching is not None:
        sys.stdout.write("match %d\n" % len(res.matching))
        for i, j in res.matching:
            sys.stdout.write("%d %d\n" % (i, j))
    return 0


def _grade(tok: str) -> tuple:
    try:
        return tuple(float(x) for x in tok.split(","))
    except ValueError:
        raise _CliError("malformed grade %r" % tok, USAGE_ERROR)


def _gen_random(seed, gens, rels, grid, field):
    if field != 2:
        raise _CliError("gen random is over F_2 only, got --field %d" % field, USAGE_ERROR)
    return gen_random(int(seed), int(gens), int(rels), int(grid))


# name -> (usage, builder from the parameters and --field)
_GENERATORS = {
    "free": ("free GRADE", lambda g, field: gen_free(_grade(g), field=field)),
    "hook": (
        "hook BIRTH DEATH",
        lambda a, b, field: gen_hook(_grade(a), _grade(b), field=field),
    ),
    "staircase": ("staircase K", lambda k, field: gen_staircase(int(k), field=field)),
    "chain": ("chain M EPS", lambda m, eps, field: gen_chain(int(m), float(eps), field=field)),
    "interval": (
        "interval BIRTH DEATH",
        lambda a, b, field: gen_one_param_interval(float(a), float(b), field=field),
    ),
    "random": ("random SEED GENS RELS GRID", _gen_random),
}


def cmd_gen(args) -> int:
    usage, build = _GENERATORS[args.name]
    if len(args.params) != len(usage.split()) - 1:
        raise _CliError("expected: gen %s" % usage, USAGE_ERROR)
    try:
        pres = build(*args.params, field=args.field)
    except ValueError as e:
        raise _CliError(str(e), USAGE_ERROR)
    _write_out(serialize_presentation(pres), args.output)
    return 0


def cmd_ingest(args) -> int:
    msg = None if args.field is None else _field_error(args.field)
    if msg:
        raise _CliError(msg, USAGE_ERROR)
    if args.degree < 0:
        raise _bad_option("degree", args.degree, "nonnegative")
    _, bif = _load(args.file, "mbif", parse=lambda text: parse_bifiltration(text, field=args.field))
    pres = chain_to_presentation(bif, degree=args.degree)
    _write_out(serialize_presentation(pres), args.output)
    return 0


def cmd_check_stability(args) -> int:
    if args.trials < 0:
        raise _bad_option("trials", args.trials, "nonnegative")
    if not 0 <= args.delta < math.inf:
        raise _bad_option("delta", args.delta, "finite and nonnegative")
    report = run_stability(args.trials, args.delta, args.seed)
    sys.stdout.write("trials %d\n" % len(report.trials))
    sys.stdout.write("delta %s\n" % fmt_float(args.delta))
    sys.stdout.write(
        "max_ratio_bottleneck %s\n" % fmt_float(report.max_ratio_bottleneck)
    )
    sys.stdout.write(
        "max_ratio_wasserstein %s\n" % fmt_float(report.max_ratio_wasserstein)
    )
    sys.stdout.write("violations %d\n" % len(report.violations))
    if not report.ok:
        for v in report.violations:
            sys.stderr.write(v + "\n")
        return STABILITY_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msb",
        description="Signed barcodes and matching distances for persistence modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="Betti barcodes of a presentation")
    p.add_argument("file")
    p.add_argument("--signed", action="store_true", help="emit one sbarc document")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("reduce", help="reduced signed barcode of the input")
    p.add_argument("file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("hilbert", help="pointwise dimensions at query grades")
    p.add_argument("file")
    p.add_argument("--at", required=True, help="points like 'x,y' or 'x,y;x,y'")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("dist", help="distance between two inputs (or directories)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--metric", choices=("bottleneck", "wasserstein"), default="bottleneck"
    )
    p.add_argument("--p", default="1", help="order for wasserstein (number or inf)")
    p.add_argument("--print-matching", action="store_true")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("gen", help="write a generated presentation")
    p.add_argument("name", choices=_GENERATORS)
    p.add_argument("params", nargs="*")
    p.add_argument("--field", type=int, default=2)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ingest", help="presentation of bifiltration homology")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--field", type=int, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("check-stability", help="run the perturbation fuzz suite")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_stability)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse reports its own message; remap its exit code
        return 0 if e.code in (0, None) else USAGE_ERROR
    try:
        return args.func(args)
    except _CliError as e:
        sys.stderr.write("error: %s\n" % e)
        return e.code
    except ValueError as e:
        sys.stderr.write("error: %s\n" % e)
        return DATA_ERROR


def entrypoint() -> None:
    sys.exit(main())
