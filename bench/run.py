"""nistab benchmark: certify-sni, certify-reject and loop workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload certify-sni --seed 1 --seconds 30 --trace 0

Each workload calls `nistab.cli.main` in this process on system files it
writes itself, checks every op with the oracles in `oracles.py`, and repeats
whole rounds of its ops for about `--seconds` seconds.  Op times are divided
by the reference kernel (`refkernel.py`) timed next to each op, so the
`*_ref` metrics cancel host drift.  With `--trace 1` the rounds alternate
between traced and untraced, and the run reports per-layer metrics and the
tracing overhead instead of the end-to-end ones.  The last line on stdout is
the result as one JSON object; a fuller record goes to
`bench/results/<workload>-seed<seed>-trace<trace>.json`.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, set before numpy loads: op and kernel times then do not
# depend on how many cores other processes leave free
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import nistab.cli; "
                "print(time.perf_counter() - t0)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify-sni", "certify-reject", "loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Import time of nistab.cli in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout.strip().splitlines()[-1])


def execute(cli, op):
    """Run an op's commands; returns (seconds, exit codes, stderr texts)."""
    codes, errs = [], []
    elapsed = 0.0
    for argv in op.commands:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            t0 = time.perf_counter()
            codes.append(cli.main(argv))
            elapsed += time.perf_counter() - t0
        errs.append(err.getvalue())
    return elapsed, codes, errs


def measure(cli, ops, seconds, kernel, tracer):
    """Whole rounds of ops, each timed next to the reference kernel.

    Ops run back to back with only the kernel between them; their outputs
    are checked after the round, so oracle work does not change the state
    the next op starts in.  A new round starts only if the last one fits in
    the time left, so a run ends near `seconds`; with a tracer, even rounds
    are traced and odd ones are not, and at least one of each is run.
    """
    records = []
    ref_before = kernel.run()
    start = time.perf_counter()
    last_round = 0.0
    rounds = 0
    min_rounds = 2 if tracer is not None else 1
    while rounds < min_rounds or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        traced = tracer is not None and rounds % 2 == 0
        outputs = []
        if traced:
            tracer.install()
        try:
            for op in ops:
                try:
                    op_s, codes, errs = execute(cli, op)
                except Exception as exc:  # a crash is an op outcome, not the end of the run
                    op_s, codes, errs = float("nan"), [], [repr(exc)]
                ref_after = kernel.run()
                outputs.append((op, op_s, (ref_before + ref_after) / 2, codes, errs))
                ref_before = ref_after
        finally:
            if traced:
                tracer.uninstall()
        for op, op_s, ref, codes, errs in outputs:
            try:
                problems, misses = op.check(codes, errs) if codes else ([errs[0]], [])
            except Exception as exc:  # unreadable or malformed output
                problems, misses = [f"check raised {exc!r}"], []
            for path in op.outputs:
                path.unlink(missing_ok=True)
            records.append({"op": op.label, "seconds": op_s, "ref": ref, "traced": traced,
                            "problems": problems, "misses": misses,
                            "known_fault": op.known_fault})
        rounds += 1
        last_round = time.perf_counter() - round_start
        ref_before = kernel.run()
    return records, rounds


def summarize(records):
    """op_p50_ref, op_mean_ref and the raw figures over ops that ran."""
    ran = [r for r in records if r["seconds"] == r["seconds"]]
    ratios = [r["seconds"] / r["ref"] for r in ran]
    op_s = sum(r["seconds"] for r in ran)
    return {
        "op_p50_ref": statistics.median(ratios),
        "op_mean_ref": op_s / sum(r["ref"] for r in ran),
        "ops_per_s": len(ran) / op_s,
        "op_p50_ms": 1e3 * statistics.median(r["seconds"] for r in ran),
        "ref_p50_ms": 1e3 * statistics.median(r["ref"] for r in ran),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nistab" / "__init__.py").is_file():
        print(f"error: no nistab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    import scipy

    import nistab
    import nistab.cli as cli
    import workloads
    from refkernel import ReferenceKernel
    from tracer import Tracer

    if Path(nistab.__file__).resolve().parent != SRC / "nistab":
        print(f"error: imported nistab from {nistab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            ops = workloads.WORKLOADS[args.workload](args.seed, work)
            setup.append(t_import + time.perf_counter() - t0)
        kernel = ReferenceKernel()
        tracer = Tracer() if args.trace else None
        records, rounds = measure(cli, ops, args.seconds, kernel, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["problems"] or r["misses"]]
    unexpected = [r for r in failed if r["problems"] or not r["known_fault"]]
    for r in unexpected[:20]:
        print(f"FAIL {r['op']}: {'; '.join(r['problems'] + r['misses'])}", file=sys.stderr)

    untraced = [r for r in records if not r["traced"]]
    raw = summarize(untraced)
    raw["setup_samples_s"] = setup
    if tracer is None:
        metrics = {
            "op_p50_ref": (raw["op_p50_ref"], "ref"),
            "op_mean_ref": (raw["op_mean_ref"], "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    else:
        traced = [r for r in records if r["traced"]]
        metrics = tracer.layer_metrics(len(traced), sum(r["ref"] for r in traced))
        overhead = summarize(traced)["op_mean_ref"] - raw["op_mean_ref"]
        metrics["trace.overhead_ref"] = (overhead, "ref")
        raw["untraced_layers"] = tracer.missing

    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "ops_per_round": len(ops), **result,
        "raw": raw,
        "known_fault_ops": sorted({r["op"] for r in failed if r not in unexpected}),
        "unexpected": [{"op": r["op"], "problems": r["problems"], "misses": r["misses"]}
                       for r in unexpected[:50]],
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cores": os.cpu_count(),
            "machine": platform.machine(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {len(records)} ops in {rounds} rounds, "
          f"{raw['ops_per_s']:.3f} ops/s, op p50 {raw['op_p50_ms']:.1f} ms, "
          f"ref p50 {raw['ref_p50_ms']:.2f} ms, setup {statistics.median(setup):.3f} s",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
