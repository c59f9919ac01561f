"""Benchmark of the DP-fill reproduction pipeline.

Each invocation runs one workload in this interpreter.  The work is fixed:
R rounds over the workload's profiles, round ``i`` drawn from ``seed + i``
(see ``pipeline.py``).  ``--seconds`` is accepted so that every benchmark
takes the same arguments, but it sets no time box.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, which are the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0`` and its per-layer metrics with ``--trace 1``.  The traced run also writes its spans to
``perfbench/out/``.

    python3 perfbench/run.py --workload paper-default --seed 1 --trace 0
    python3 perfbench/run.py --workload large-cubes --seed 1 --trace 1

Repeat mode runs a workload N times, each in a fresh process with its own
seed, and prints each metric's median, quartiles and spreads next to its
bound:

    python3 perfbench/run.py --workload fullscale-circuits --repeat 5

Self-tests of the harness, at a tiny size:

    python3 -m pytest -q perfbench/selftest.py

The run is single-process: ``REPRO_JOBS=1``, the ``packed`` backend, the disk
cache and the obs recorder off, one BLAS thread.  Inherited ``REPRO_*``
settings are cleared, and the output records which.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETTINGS = {
    "REPRO_JOBS": "1",
    "REPRO_BACKEND": "packed",
    "REPRO_CACHE_DIR": "off",
    "REPRO_TRACE": "0",
    # The XStat and ISA tours call GEMV/GEMM; OpenBLAS would start threads.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def prepare_environment() -> List[str]:
    """Clear inherited ``REPRO_*`` knobs and pin the run's settings.

    Must run before numpy is imported.  Returns the names it cleared.
    """
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    os.environ.update(SETTINGS)
    return cleared


def import_pipeline():
    """Import the benchmark pipeline against this checkout's ``src/repro``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")
    import pipeline

    return pipeline


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_once(args: argparse.Namespace) -> int:
    cleared = prepare_environment()
    try:
        pipeline = import_pipeline()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    import numpy

    workload = pipeline.WORKLOADS[args.workload]
    print(
        f"env: nproc={os.cpu_count()} python={platform.python_version()}"
        f" numpy={numpy.__version__} git={git_sha()}"
        f" cleared={','.join(cleared) or 'none'}"
        f" settings={','.join(f'{k}={v}' for k, v in SETTINGS.items())}"
    )
    print(
        f"workload: {workload.name} seed={args.seed} rounds={workload.rounds}"
        f" profiles={','.join(workload.profiles)} trace={args.trace}"
        f" (fixed work; --seconds {args.seconds} is not a time box)"
    )
    run = pipeline.run_workload(workload, args.seed, trace=bool(args.trace))

    if args.trace:
        metrics = pipeline.per_layer(run)
        path = HERE / "out" / f"trace-{workload.name}-s{args.seed}.jsonl"
        run.tracer.write(path)
        print(f"spans: {len(run.tracer.spans)} written to {path.relative_to(ROOT)}")
        results = run.traced
    else:
        metrics = pipeline.end_to_end(run, import_s)
        results = run.results
        samples = [r.proposed_s * 1e3 for r in results if r.proposed_s is not None]
        if samples:
            tail_ms, percentile = pipeline.tail(samples)
            print(
                f"proposed latency per set (printed, not gated): p50 {statistics.median(samples):.3f} ms,"
                f" p{percentile:.1f} {tail_ms:.3f} ms, over {len(samples)} samples"
            )
        print(
            f"setup_s: import {import_s:.4f} s + inputs {run.build_s:.4f} s"
            f" + median of warm-ups {run.warmup_s}"
        )
    wall = sum(r.wall_s for r in results)
    print(f"measured: {len(results)} sets, {wall:.3f} s in sets, {run.loop_s:.3f} s in the loop")
    figures = pipeline.quality(results)
    print(
        f"quality: proposed_peak_mean={figures['proposed_peak_mean']!r}"
        f" baseline_peak_mean={figures['baseline_peak_mean']!r}"
        f" proposed_power_uw_mean={figures['proposed_power_uw_mean']!r}"
        f" (power on circuit workloads only)"
    )
    print(f"digest: {pipeline.digest(results)} over {len(results)} sets")
    tally = run.tally
    print(f"failed_frac: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted!r}")
    for failure in tally.failures[:10]:
        print(f"  failed: {failure}")
    print_result(tally, metrics)
    return 0


def print_result(tally, metrics) -> None:
    """Print each metric with its unit, then the JSON result as the last line."""
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def repeat(args: argparse.Namespace) -> int:
    """Run the workload ``args.repeat`` times and report each metric's spread."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for k in range(args.repeat):
        seed = args.seed + k
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            print(f"run {k + 1} (seed {seed}) exited with {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        digest = next(line for line in proc.stdout.splitlines() if line.startswith("digest:"))
        print(
            f"run {k + 1}/{args.repeat} seed={seed} correct={result['correct']}"
            f" failed={result['failed']}/{result['attempted']} {digest} "
            + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        iqr = (q3 - q1) / median if median else 0.0
        spread = (max(series) - min(series)) / median if median else 0.0
        # Regressions are gated on the quartile spread; the range is the stricter view.
        flag = "  IQR>BOUND" if iqr > bounds[name] else ""
        flag += "  RANGE>BOUND" if spread > bounds[name] else ""
        print(
            f"{name:<34}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{iqr:>9.3f}{spread:>10.3f}"
            f"{bounds[name]:>7}{flag}  {units[name]}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["paper-default", "large-cubes", "fullscale-circuits"],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run N fresh processes and report spreads")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be at least 0")
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
