"""End-to-end host benchmark of the ORIANNA reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload steady_frames --seed 1 --seconds 30
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload steady_frames --trace 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced operations and prints the per-layer ledger instead
(see ``perfbench/README.md``).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is nonzero when any operation raised or failed an output check.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# The end-to-end metrics of the result line (BENCHMARK.json).
END_TO_END_UNITS = {
    "frame_ms_p50": "ms",
    "frames_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# End-to-end metrics printed by name but left out of the result line:
# the 95th percentile rests on a dozen operations per run, too few for
# its spread between runs to stay within a regression bound, and the
# generation metrics exist on accelerator generation only.
PRINTED_UNITS = {
    "frame_ms_p95": "ms",
    "generation_s": "s",
    "sim_ms_p50": "ms",
}
UNITS = {**END_TO_END_UNITS, **PRINTED_UNITS}


def _git_sha() -> str:
    """HEAD's commit from ``.git`` files, or ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(args) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _timing(op_ms, completed: int, setup_s: float) -> dict:
    from workloads import percentile

    return {
        "frame_ms_p50": statistics.median(op_ms),
        "frame_ms_p95": percentile(op_ms, 95),
        "frames_per_s": completed / (sum(op_ms) / 1e3),
        "setup_s": setup_s,
    }


def end_to_end(out, imports_s: float) -> tuple:
    """The end-to-end metrics of the result line, those only printed,
    the sample count behind each, and the same times as measured on the
    wall clock.

    Every time is on the reference speed scale: each operation and each
    warm-up is scaled by the host's speed while it ran (``hostspeed``).
    """
    host = out.host
    op_scales = [host.scale(*span) for span in out.op_spans_ns]
    setup_scales = [host.scale(*span) for span in out.setup_spans_ns]
    # Imports run before the first sample: at the first warm-up's speed.
    setup_s = imports_s * setup_scales[0] + statistics.median(
        s * scale for s, scale in zip(out.setup_reps_s, setup_scales))
    op_ms = [ms * scale for ms, scale in zip(out.op_ms, op_scales)]
    values = _timing(op_ms, out.completed, setup_s)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    wall = _timing(out.op_ms, out.completed,
                   imports_s + statistics.median(out.setup_reps_s))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    printed = {"frame_ms_p95": {"value": values["frame_ms_p95"],
                                "unit": "ms"}}
    ops = len(op_ms)
    p95 = values["frame_ms_p95"]
    samples = {
        "frame_ms_p50": f"{ops} operations",
        "frame_ms_p95": f"{ops} operations, "
                        f"{sum(t > p95 for t in op_ms)} beyond",
        "frames_per_s": f"{out.completed} completed in "
                        f"{sum(op_ms) / 1e3:.2f} s",
        "setup_s": f"imports {imports_s:.3f} s + median of "
                   f"{len(out.setup_reps_s)} warm-ups",
        "peak_rss_mb": "1 process",
    }
    if out.generation_s:
        # Simulations are scaled by the median speed of the run.
        printed["generation_s"] = {"value": statistics.median(
            s * op_scales[op] for op, s in out.generation_s), "unit": "s"}
        printed["sim_ms_p50"] = {"value": statistics.median(op_scales) *
                                 statistics.median(out.sim_ms), "unit": "ms"}
        samples["generation_s"] = f"{len(out.generation_s)} rounds"
        samples["sim_ms_p50"] = f"{len(out.sim_ms)} simulations"
    return metrics, printed, samples, wall


def _use_sources() -> bool:
    """Put the checkout's ``src`` on the path; False when it is absent."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def run_one(args) -> int:
    if not _use_sources():
        return 2
    import workloads

    imports_s = time.perf_counter() - _STARTED
    out = workloads.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), ROOT)
    record = host_record(args)
    if args.trace:
        from ledger import UNATTRIBUTED, layer_metrics

        ledger = out.ledger
        metrics = layer_metrics(ledger, out.untraced_ops,
                                out.untraced_wall_ns)
        for problem in ledger.identity_errors:
            out.fail(-1, [f"ledger identity: {problem}"])
        ops = max(ledger.ops, 1)
        unattributed = ledger.self_ns[UNATTRIBUTED]
        print(f"ledger identity per traced op: layer self times "
              f"{(sum(ledger.self_ns.values()) - unattributed) / 1e6 / ops:.4f}"
              f" ms + unattributed {unattributed / 1e6 / ops:.4f} ms = wall "
              f"{ledger.wall_ns / 1e6 / ops:.4f} ms; exact on "
              f"{ledger.ops - len(ledger.identity_errors)} of {ledger.ops} "
              f"operations")
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        out.ledger.write(spans)
        record["spans"] = str(spans.relative_to(ROOT))
        printed, wall = {}, {}
        samples = {"trace.ops": "traced operations (the per-op base)",
                   "trace.untraced_ops": "untraced operations "
                   "(the base of trace.overhead_frac)"}
    else:
        metrics, printed, samples, wall = end_to_end(out, imports_s)
        record["host_kernel_ms"] = out.host.median_ms()
        record["host_kernel_samples"] = len(out.host.kernel_ms)
    failed = len(out.failed)
    failed_frac = failed / out.attempted
    for op, problems in sorted(out.failed.items()):
        for problem in problems:
            print(f"FAILED op {op}: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    for name, metric in {**metrics, **printed}.items():
        detail = f"  ({samples[name]})" if name in samples else ""
        print(f"{args.workload:>16}  {name:<26} {metric['value']:>14.6g} "
              f"{metric['unit']}{detail}")
    for name, value in wall.items():
        print(f"{args.workload:>16}  {name + ' (wall clock)':<26} "
              f"{value:>14.6g} {UNITS[name]}")
    print(f"{args.workload:>16}  {'failed_frac':<26} {failed_frac:>14.6g} "
          f"fraction  ({failed} of {out.attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": out.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process (set-up and memory are
    per-process metrics); the last line sums their results."""
    if not _use_sources():
        return 2
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            status = status or 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # numpy links a multithreaded OpenBLAS; the benchmark is one
    # closed-loop thread, so pin BLAS/OpenMP before numpy is imported,
    # and keep the thread on one CPU (the highest-numbered, away from
    # the device interrupts that land on CPU 0) so it never migrates.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
