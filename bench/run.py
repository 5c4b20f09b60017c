"""Benchmark of the prestress-tube CLI workflows, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload tube-solve --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client: a fresh interpreter imports
the package from ``src/``, writes configs drawn from ``--seed``, runs one
untimed warm-up unit and then calls ``prestress_tube.cli.main`` unit after
unit for ``--seconds``.  Every unit's output is checked by a physics
invariant (``oracles.py``); a nonzero exit code or a failed check counts as a
failed unit.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment (git sha, source hash, versions, cores, machine).  A table of the
metrics with units, sample counts, failed ratio and oracle verdict goes to
stderr, and a full report to ``.bench_work/report_<workload>_trace<k>.json``.

Workloads (unit = what one latency sample times):
  tube-solve    one round trip: inverse-sf, then load-free on the returned
                sectors.  Exercises tube (Newton on the wall residuals) and
                the batched materials PK2; no opening, driver or maxwell work.
  opening-scan  one energy-scan of an incompatible sector pair.  Exercises
                opening (Nelder-Mead on the opened energy) and the batched
                materials energy; tube only polishes with newton2.
  point-drive   one point-test program.  Exercises driver, maxwell and
                single-tensor materials/tensor calls; no tube or opening work.

``--trace 0`` reports the end-to-end metrics: setup_s (median of three fresh
interpreters, from interpreter start to the first timed unit),
unit_p50_ms, unit_p90_ms, units_per_s and peak_rss_mb.  The failed ratio is
``failed`` / ``attempted`` of the result line.  The unit times are rescaled
to a fixed host speed: the host is shared and its cores slow down by up to
about two times for seconds at a time, so the worker times a fixed probe next
to every unit and scales each unit's wall-clock latency by the probe's
reference time over its time then (see ``worker.py``).  setup_s is wall-clock
time.  The unit figures, not rescaled, and the host's slowdown go to stderr
and the report.

``--trace 1`` is a separate run that times units untraced, then the same
units with the tracer wrapping the package's public functions, and reports the
per-layer metrics of ``layers.PER_LAYER`` with trace.overhead_ratio (traced /
untraced time, both rescaled).  The per-layer times are not rescaled.

What each layer metric should move:
  * tube.* and materials.pk2_* drive unit_p50_ms, unit_p90_ms and
    units_per_s on tube-solve; point-drive should not change (it bypasses
    the wall kernel).
  * opening.* and materials.energy_* drive unit_p50_ms on opening-scan;
    tube-solve and point-drive should not move.
  * driver.*, maxwell.* and tensor.*_calls drive point-drive; tube-solve
    should not move, and peak_rss_mb on point-drive is the one to watch.
  * tube.residual_evals_outside_newton moves tube-solve a little.
  * config.*, cli.* and import time should move only setup_s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tube-solve", "opening-scan", "point-drive")
SETUP_RUNS = 3           # fresh interpreters whose set-up time gives setup_s
SETUP_TIMEOUT_S = 90.0

END_TO_END = [("setup_s", "s"), ("unit_p50_ms", "ms"), ("unit_p90_ms", "ms"),
              ("units_per_s", "1/s"), ("peak_rss_mb", "MB")]


def environment() -> dict:
    """Where and on what code the numbers were taken."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "os_cpu_count": os.cpu_count(),
        "machine": platform.node(),
        "arch": platform.machine(),
        "cpu_model": cpu_model,
        "prestress_tube_threads_env": os.environ.get("PRESTRESS_TUBE_THREADS"),
    }


def run_worker(workload: str, seed: int, seconds: float, mode: str, timeout: float) -> dict:
    """Start one fresh worker interpreter and return its result."""
    result_path = ROOT / ".bench_work" / f"worker_{workload}_{mode}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--result", str(result_path)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], stdout=subprocess.DEVNULL,
                          timeout=timeout)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float):
    """(metrics, attempted, failed, failed warm-ups, problems, report) of one untraced run."""
    setups = [run_worker(workload, seed, seconds, "setup", SETUP_TIMEOUT_S)
              for _ in range(SETUP_RUNS - 1)]
    main = run_worker(workload, seed, seconds, "run", SETUP_TIMEOUT_S + 2.0 * seconds)
    lat = main["latencies_s"]
    wall = main["wall_latencies_s"]
    p90 = 1e3 * percentile(lat, 90)
    metrics = {
        "setup_s": statistics.median([r["setup_s"] for r in setups + [main]]),
        "unit_p50_ms": 1e3 * statistics.median(lat),
        "unit_p90_ms": p90,
        "units_per_s": len(lat) / sum(lat),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    problems = [v for r in setups + [main] for v in r["violations"]]
    warm_failed = sum(r["warmup_failed"] for r in setups + [main])
    report = {"samples": len(lat), "samples_above_p90": sum(1e3 * x > p90 for x in lat),
              "setup_s_each": [r["setup_s"] for r in setups + [main]],
              "wall_clock": {"unit_p50_ms": 1e3 * statistics.median(wall),
                             "unit_p90_ms": 1e3 * percentile(wall, 90),
                             "units_per_s": main["units"] / main["wall_s"]},
              "host_slowdown": statistics.median(main["probes_s"]) / main["ref_probe_s"],
              "warmup_failed": warm_failed, "versions": main["versions"]}
    return metrics, main["units"], main["failed"], warm_failed, problems, report


def traced(workload: str, seed: int, seconds: float):
    """(metrics, attempted, failed, failed warm-ups, problems, report) of one traced run."""
    r = run_worker(workload, seed, seconds, "trace", SETUP_TIMEOUT_S + 2.0 * seconds)
    report = {"traced_units": r["traced_units"], "span_count": r["span_count"],
              "absent_targets": r["absent_targets"], "versions": r["versions"]}
    return r["per_layer"], r["units"], r["failed"], r["warmup_failed"], r["violations"], report


def run_one(workload: str, seed: int, seconds: float, trace: int):
    fn = traced if trace else end_to_end
    values, attempted, failed, warm_failed, problems, report = fn(workload, seed, seconds)
    unit_of = {name: unit for name, unit, _ in layers.PER_LAYER} if trace else dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in unit_of.items()}
    correct = failed == 0 and warm_failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    report.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  correct=correct, attempted=attempted, failed=failed,
                  failed_ratio=failed / attempted, metrics=metrics, problems=problems)
    return report


def print_table(report: dict):
    w = report["workload"]
    verdict = "PASS" if report["correct"] else "FAIL"
    print(f"[{w}] seed {report['seed']}  oracle {verdict}  attempted {report['attempted']}"
          f"  failed {report['failed']}  failed_ratio {report['failed_ratio']:.4g}",
          file=sys.stderr)
    for name, m in report["metrics"].items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    if "samples" in report:
        print(f"  latency samples {report['samples']}, above p90 {report['samples_above_p90']}",
              file=sys.stderr)
        wall = "  ".join(f"{k} {v:.6g}" for k, v in report["wall_clock"].items())
        print(f"  wall clock, not rescaled: {wall}  (host slowdown "
              f"{report['host_slowdown']:.3f})", file=sys.stderr)
    if report.get("absent_targets"):
        print(f"  absent trace targets: {', '.join(report['absent_targets'])}", file=sys.stderr)
    for p in report["problems"][:5]:
        print(f"  problem: {p}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "prestress_tube" / "__init__.py").is_file():
        print(f"no prestress_tube sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    env = environment()
    reports = []
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        try:
            report = run_one(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"benchmark aborted: {e}", file=sys.stderr)
            return 1
        env.update(report.pop("versions"))
        report["environment"] = env
        (ROOT / ".bench_work" / f"report_{workload}_trace{args.trace}.json").write_text(
            json.dumps(report, indent=1))
        print_table(report)
        reports.append(report)

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
