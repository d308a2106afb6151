"""Benchmark of msb on four seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload ingest-fine --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # each workload in a fresh process
    python3 bench/run.py --smoke               # all workloads at tiny sizes

A run sets up five times, each in a fresh interpreter, and reports the
median as ``setup_s``: the time from before ``import msb`` to the end of
generating the inputs from the seed, validating them and one warm-up
item, so first-call costs count.  It then runs items for ``--seconds``,
cycling a pool of generated inputs, and checks every item outside its
timing.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.
Item times are gated in units of a calibration loop run between items
(``cal``), because this machine's speed drifts too much for raw seconds
to repeat; the raw ``items_per_s``, ``item_s.p50``, ``item_s.p90`` (from
100 items on), ``fail_ratio`` and ``repo.src_lines`` are printed beside
them.  With ``--trace 1`` each iteration runs the item once plain and once
with spans around every library call, plus probes that split calls into
their parts, and it reports the per-layer metrics; a metric of a layer the
workload does not call reads 0.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed.  Full results, with the environment, go to
``bench/out/``.

References (fingerprints of the outputs) are recorded for the default
seed; on any other seed the independent checks still run and every
repeat of an input must reproduce the first result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("ingest-fine", "ingest-coarse", "match", "fuzz")
DEFAULT_SEED = 0
SETUP_ROUNDS = 5
#: Item time between two runs of the calibration loop.
CALIBRATE_EVERY_S = 0.25
#: ``item_s.p90`` needs at least ten samples beyond it.
P90_MIN_ITEMS = 100

REFERENCES = HERE / "references.json"

_SETUP_TIMER = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "print(run.setup_round(sys.argv[2], sys.argv[3] == '1', int(sys.argv[4])))"
)


def import_msb():
    """Import msb from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "msb" / "__init__.py").is_file():
        sys.exit("error: no msb sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import msb

    if Path(msb.__file__).resolve().parent != SRC / "msb":
        sys.exit("error: imported msb from %s, not from %s" % (msb.__file__, SRC))
    return msb


def setup_round(name, smoke, seed) -> float:
    """Seconds from before ``import msb`` to the end of one warm-up item.

    Meant for a fresh interpreter, so that import, first-call costs and
    caches built on first use all count.  The warm-up item is the default
    seed's first input, so the time does not vary with the seed.
    """
    t0 = time.perf_counter()
    import_msb()
    import workloads
    from tracer import direct

    wl = workloads.make(name, smoke)
    wl.validate(wl.inputs(seed, wl.pool))
    wl.run(wl.inputs(DEFAULT_SEED, 1)[0], direct)
    return time.perf_counter() - t0


def setup_seconds(args) -> float:
    """Median of ``SETUP_ROUNDS`` set-up rounds, each in a fresh interpreter."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_TIMER, str(HERE), args.workload, str(int(args.smoke)), str(args.seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        rounds.append(float(proc.stdout))
    return statistics.median(rounds)


def git_commit():
    """HEAD of the checkout's own git repository, or None outside one."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def calibration_loop() -> float:
    """Time of a fixed pure-Python loop, the unit ``cal`` of the timings.

    This machine's speed drifts by 20% and more within minutes, and every
    timing follows it.  The loop is run between items all through the
    timed phase; dividing item times by its median in the run cancels most
    of the drift, so the ``cal`` metrics stay steady from run to run while
    the raw seconds are reported beside them.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i
    return time.perf_counter() - t0


def environment() -> dict:
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": scipy,
        "commit": git_commit(),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "msb").glob("*.py")))


def references_for(smoke, name, seed):
    data = json.loads(REFERENCES.read_text())
    if data.get("seed") != seed:
        return None
    return data["smoke" if smoke else "full"].get(name)


FAILED = object()


def attempt(fn, *args):
    """``fn(*args)``, or FAILED with the traceback on stderr."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return FAILED


def run_workload(args) -> int:
    import_msb()
    import workloads
    from tracer import Tracer, direct

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.make(args.workload, args.smoke)

    setup_s = setup_seconds(args)
    # this process's own set-up, untimed: the timed phase starts warm
    pool = wl.inputs(args.seed, wl.pool)
    wl.validate(pool)
    wl.run(wl.inputs(DEFAULT_SEED, 1)[0], direct)
    env = environment()
    refs = references_for(args.smoke, args.workload, args.seed)
    errors = []
    if refs is not None and len(refs) != len(pool):
        errors.append("%d references for a pool of %d inputs" % (len(refs), len(pool)))
        refs = None

    # timed phase; with tracing each iteration also runs the item traced and its probes
    tracer = Tracer() if args.trace else None
    items = []  # (pool slot, fingerprint or None when the item raised)
    times = []
    first_fp, slot_errors, counts = {}, {}, []

    def record(k, out):
        """Keep the item's fingerprint; check the first output of each input in
        full, outside the item's timing."""
        if out is FAILED:
            items.append((k, None))
            return
        fp = wl.fingerprint(out)
        items.append((k, fp))
        if k in first_fp:
            return
        if tracer:
            tracer.item = "verify-%d" % k
        found = attempt(wl.verify, pool[k], out, tracer.call if tracer else direct)
        errs = ["verify raised"] if found is FAILED else found
        if refs is not None and fp != refs[k]:
            errs.append("output %r differs from reference %r" % (fp, refs[k]))
        for e in errs:
            print("check failed, input %d: %s" % (k, e), file=sys.stderr)
        first_fp[k], slot_errors[k] = fp, errs
        if tracer:
            counts.append(wl.counts(pool[k], out))

    calibration = [calibration_loop()]
    next_calibration = CALIBRATE_EVERY_S
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        k = i % len(pool)
        t0 = time.perf_counter()
        out = attempt(wl.run, pool[k], direct)
        times.append(time.perf_counter() - t0)
        record(k, out)
        if sum(times) >= next_calibration:
            calibration.append(calibration_loop())
            next_calibration += CALIBRATE_EVERY_S
        if tracer:
            tracer.item = i
            with tracer.span("item"):
                out = attempt(wl.run, pool[k], tracer.call)
            with tracer.span("probe"):
                if out is not FAILED and attempt(wl.probe, pool[k], out, tracer.call) is FAILED:
                    errors.append("probe of item %d raised" % i)
            record(k, out)
        i += 1
    env["env.calibration_s"] = cal = statistics.median(calibration)
    failed = sum(1 for k, fp in items if fp is None or slot_errors[k] or fp != first_fp[k])
    if tracer:
        found = attempt(wl.probe_once, pool, tracer, OUT / "work")
        errors += ["probe_once raised"] if found is FAILED else found
    for e in errors:
        print("check failed: %s" % e, file=sys.stderr)
    attempted = len(items) + len(errors)
    failed += len(errors)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        "repo.src_lines": src_lines(),
        "fail_ratio": failed / attempted,
    }
    print("workload %s seed %d trace %d%s" % (args.workload, args.seed, args.trace, " smoke" if args.smoke else ""))
    print("env " + json.dumps(env))
    print("fail_ratio %r (%d of %d)" % (failed / attempted, failed, attempted))
    if tracer:
        metrics = layer_metrics(spec, wl, tracer, counts, times, env, result["repo.src_lines"])
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / ("spans_%s_seed%d%s.jsonl" % (args.workload, args.seed, "_smoke" if args.smoke else "")))
    else:
        values = {
            "setup_s": setup_s,
            "items_per_cal": len(times) / sum(times) * cal,
            "item_cal.p50": statistics.median(times) / cal,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        p90 = statistics.quantiles(times, n=10)[8] if len(times) >= P90_MIN_ITEMS else None
        raw = {
            "items_per_s": (len(times) / sum(times), "1/s"),
            "item_s.p50": (statistics.median(times), "s"),
            "item_s.p90": (p90, "s") if p90 is not None else (None, "(undefined below %d items)" % P90_MIN_ITEMS),
            "items": (len(times), "count"),
            "repo.src_lines": (result["repo.src_lines"], "count"),
        }
        result.update((name, v) for name, (v, _) in raw.items())
        for name, m in metrics.items():
            print("%s %r %s" % (name, m["value"], m["unit"]))
        for name, (v, unit) in raw.items():
            print("%s %s %s" % (name, "-" if v is None else repr(v), unit))
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    result["result"] = final
    OUT.mkdir(exist_ok=True)
    name = "BENCH_%s_seed%d_trace%d%s.json" % (args.workload, args.seed, args.trace, "_smoke" if args.smoke else "")
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(final))
    return 0 if failed == 0 else 1


def layer_metrics(spec, wl, tracer, counts, times, env, lines):
    """Per-layer numbers: medians per item of span self times and counts."""
    per_item = tracer.self_times()
    values = {}
    for item, t in per_item.items():
        row = {name + "_s": v for name, v in t.items()}
        row.update(wl.derived(t))
        for name, v in row.items():
            values.setdefault(name, []).append(v)
    for row in counts:
        for name, v in row.items():
            values.setdefault(name, []).append(v)
    traced = [end - start for name, start, end, _, _ in tracer.spans if name == "item"]
    found = {name: statistics.median(v) for name, v in values.items()}
    found["trace.item_s"] = statistics.median(times)
    found["trace.overhead_ratio"] = sum(times) / sum(traced)
    found["env.calibration_s"] = env["env.calibration_s"]
    found["repo.src_lines"] = lines
    metrics = {m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    base = found["trace.item_s"]
    for name, m in metrics.items():
        note = "  (not used by this workload)" if name not in found else ""
        if m["unit"] == "s" and name in values:
            note = "  (%.0f%% of item)" % (100 * m["value"] / base)
        print("%s %r %s%s" % (name, m["value"], m["unit"], note))
    return metrics


def run_all(args) -> int:
    """Every workload in its own fresh process, in sequence; one summary."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600 + 10 * args.seconds)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            code = 1
        if not lines or not lines[-1].startswith("{"):
            total = None
            continue
        if total is not None:
            res = json.loads(lines[-1])
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for metric, m in res["metrics"].items():
                total["metrics"]["%s.%s" % (name, metric)] = m
    if total is None:
        return code or 1
    print(json.dumps(total))
    return code


def record_references(args) -> int:
    """Write the fingerprints of the pool of ``--seed`` after checking them."""
    import_msb()
    import workloads
    from tracer import direct

    data = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    if data.get("seed") != args.seed:
        data = {"seed": args.seed, "full": {}, "smoke": {}}
    profile = data["smoke" if args.smoke else "full"]
    for name in NAMES if args.workload == "all" else (args.workload,):
        wl = workloads.make(name, args.smoke)
        pool = wl.inputs(args.seed, wl.pool)
        wl.validate(pool)
        fps = []
        for k, inp in enumerate(pool):
            out = wl.run(inp, direct)
            errors = wl.verify(inp, out, direct)
            if errors:
                sys.exit("error: %s input %d fails its checks: %s" % (name, k, errors))
            fps.append(wl.fingerprint(out))
        profile[name] = fps
        print("%s: %d references" % (name, len(fps)))
    REFERENCES.write_text(json.dumps(data, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, to check that everything runs")
    parser.add_argument("--record-references", action="store_true",
                        help="check the pool of --seed and write its fingerprints")
    args = parser.parse_args(argv)
    if args.record_references:
        return record_references(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
