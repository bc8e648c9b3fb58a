#!/usr/bin/env python3
"""End-to-end benchmark: time to validated schedules on three workloads.

Run from the repository root (no install needed; the library is imported
from ``src/`` of the same checkout):

    python3 benchmarks/e2e/run.py                        # every workload
    python3 benchmarks/e2e/run.py --workload wan-300 --seed 7 --seconds 30
    python3 benchmarks/e2e/run.py --workload search-120 --trace   # per-layer
    python3 benchmarks/e2e/run.py --write-expected       # regenerate expected.json

With a workload, the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics declared in ``BENCHMARK.json`` (or, with ``--trace``, its per-layer
metrics).  Without one, each workload runs in its own fresh interpreter.
Every schedule is validated; at the default seed every makespan must also
equal ``expected.json`` bit for bit, and any other seed runs validate-only.
A results JSON (and, when traced, a Chrome-trace spans file) is written to
``--out``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
EXPECTED = BENCH_DIR / "expected.json"
#: Fresh interpreters the set-up time is taken from (the median is reported).
SETUP_PROBES = 5

# Runs in a fresh interpreter: import the library and plan the workload,
# sampling the speed the set-up time is scaled by.
_SETUP_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import calibration
with calibration.SpeedSampler().span() as speed:
    t0 = time.perf_counter()
    import workloads
    workloads.get(sys.argv[3], sys.argv[5]).plan(int(sys.argv[4]))
    setup = time.perf_counter() - t0
print(setup, speed.share)
"""


def _fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def _import_library() -> str | None:
    """Put this checkout's ``src`` first on the path; None or an error message."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no library sources at {SRC}; run from a full checkout"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return f"imported repro from {repro.__file__}, not from {SRC}"
    return None


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _bench_digest() -> str:
    """Digest of the benchmark's own code, inputs and declaration."""
    h = hashlib.sha256()
    files = sorted(BENCH_DIR.glob("*.py")) + [EXPECTED, SPEC]
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args: argparse.Namespace, jobs: int) -> dict:
    """What must match for two results to be comparable (bar ``git_rev``)."""
    from repro.core.kernelreg import kernel_provenance

    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "kernel": kernel_provenance("auto"),
        "bench_sha256": _bench_digest(),
    }


def setup_seconds(args: argparse.Namespace) -> list[tuple[float, float]]:
    """``(import-and-plan seconds, share of reference speed)`` of the
    workload, each pair from a fresh interpreter."""
    cmd = [
        sys.executable, "-c", _SETUP_PROBE,
        str(SRC), str(BENCH_DIR), args.workload, str(args.seed), args.scale,
    ]
    pairs = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        setup, speed = out.stdout.split()[-2:]
        pairs.append((float(setup), float(speed)))
    return pairs


def _result_stem(out_dir: Path, workload: str, mode: str, seed: int) -> tuple[str, int]:
    """File stem and run index of a new result: the first index not yet
    used in ``out_dir`` for this workload, mode and seed, so repeats of one
    seed keep their own files and pair up by index."""
    run = 0
    while (out_dir / f"{workload}-{mode}-seed{seed}-run{run}.json").exists():
        run += 1
    return f"{workload}-{mode}-seed{seed}-run{run}", run


def _declared(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(args: argparse.Namespace, spec: dict) -> int:
    import workloads

    workload = workloads.get(args.workload, args.scale)
    jobs = workloads.default_jobs(workload)
    expected = None
    if args.seed == workloads.DEFAULT_SEED and args.scale == "full":
        expected = json.loads(EXPECTED.read_text())["makespans"][workload.name]
    out_dir = Path(args.out)
    mode = "trace" if args.trace else "plain"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = workloads.RunContext(expected=expected, scratch=scratch, jobs=jobs)
    doc: dict = {"workload": workload.name, "mode": mode, "checked_expected": expected is not None}
    tracer = None
    try:
        if args.trace:
            import tracing  # plain runs never load the wrappers

            missing = tracing.check_targets()
            if missing:
                return _fail("trace targets missing: " + ", ".join(missing))
            tracer = tracing.Tracer()
            result = workloads.trace_run(workload, args.seed, ctx, tracer)
            declared = _declared(spec, "per_layer")
            metrics, samples = result.metrics, {}
            attempted, failed = result.attempted, result.failed
            doc["sum_check"] = {
                algo: {"layers_plus_other_s": total, "schedule_s": wall}
                for algo, (total, wall) in result.sums.items()
            }
            for algo, (total, wall) in result.sums.items():
                if abs(total - wall) > 0.01 * wall:
                    print(f"{algo}: layers sum to {total} s, schedule() took {wall} s",
                          file=sys.stderr)
                    failed += 1
        else:
            # Measured first: the peak RSS of the sweep's pool workers is read
            # from RUSAGE_CHILDREN, which must not yet cover the set-up probes.
            measured = workloads.measure(workload, args.seed, args.seconds, ctx)
            setups = setup_seconds(args)
            declared = _declared(spec, "end_to_end")
            scaled = [seconds * speed for seconds, speed in setups]
            metrics = {**measured.metrics, "setup_s": statistics.median(scaled)}
            samples = {**measured.samples, "setup_s": len(setups)}
            attempted, failed = measured.attempted, measured.failed
            doc["info"] = {
                **measured.info, "setup_s.unscaled": statistics.median(s for s, _ in setups)
            }
            doc["rounds"] = measured.rounds
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc["provenance"] = provenance(args, jobs)
    stem, doc["run"] = _result_stem(out_dir, workload.name, mode, args.seed)
    if tracer is not None:
        tracer.write_chrome(out_dir / f"{stem}-spans.json")
    if set(metrics) != set(declared):
        return _fail(
            f"metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json"
        )
    correct = failed == 0
    doc.update(correct=correct, attempted=attempted, failed=failed, failed_frac=failed / attempted)
    doc["metrics"] = {
        name: {"value": metrics[name], "unit": declared[name], "samples": samples.get(name)}
        for name in declared
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    for name in declared:
        print(f"{workload.name:<13} {name:<44} {metrics[name]!r} {declared[name]}")
    for name, value in sorted(doc.get("info", {}).items()):
        print(f"{workload.name:<13} {name:<44} {value!r} (info)")
    print(f"{workload.name:<13} failed_frac {failed}/{attempted}"
          f"{'' if expected is not None else ' (validate-only)'}")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Each workload in its own fresh interpreter, one after the other."""
    status = 0
    for entry in spec["workloads"]:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", entry["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale, "--out", args.out,
        ]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def write_expected() -> int:
    import workloads

    doc = {"seed": workloads.DEFAULT_SEED, "makespans": {}}
    scratch = BENCH_DIR / "results" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in workloads.WORKLOADS.items():
            ctx = workloads.RunContext(
                expected=None, scratch=scratch, jobs=workloads.default_jobs(workload)
            )
            doc["makespans"][name] = workloads.expected_makespans(workload, ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def main(argv: list[str] | None = None) -> int:
    error = _import_library()
    if error is not None:
        return _fail(error)
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read {SPEC}: {exc}")
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small instances (validate-only)")
    parser.add_argument("--out", default=str(BENCH_DIR / "results"))
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.write_expected:
        return write_expected()
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
