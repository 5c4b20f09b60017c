"""One benchmark workload in one fresh interpreter (started by run.py).

The worker imports the package from the checkout's ``src/``, writes the
seeded configs, runs one untimed warm-up unit, then drives units through
``prestress_tube.cli.main`` in a closed loop: one client, the next unit starts
when the previous one has finished.  Each unit's outputs go through the
workload's invariant oracle; a nonzero exit code or a failed check counts the
unit as failed.  The result is written as JSON to ``--result``.

Modes:
  setup  stop after the warm-up and report the set-up time only;
  run    untimed set-up, then the timed loop for ``--seconds``;
  trace  an untraced loop for 40 % of ``--seconds``, then the same units again,
         from the first, with the tracer installed for the remaining 60 %;
         the overhead ratio compares the units both loops ran.

The host is shared: for seconds at a time its cores run up to about two
times slower than when it is idle, which moves wall-clock latencies by more
than any bound a regression check could use.  So before every unit, and once
after the last, the loop times ``probe()``, a fixed piece of small-array numpy
and Python work like the program's own, on the same thread, for a twentieth of
the last unit's latency (one 1 ms block at least).  Each unit's latency is
also reported rescaled by ``REF_PROBE_S`` over the mean of the two probes
around it: the latency it would have on a host where the probe takes
``REF_PROBE_S``.  The raw wall-clock latencies are reported as well.  The
set-up time is not rescaled: imports and file reads slow down far less under
that contention than the probe does, so rescaling it would add noise.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy

import inputs
import layers
import oracles
from tracer import Tracer

UNTRACED_SHARE = 0.4
# The probe takes about 1 ms on an idle core of the 2-core x86-64 host the
# bounds were set on; latencies are reported rescaled to exactly that speed.
REF_PROBE_S = 1.0e-3
PROBE_REPS = 100
PROBE_SHARE = 0.05
_PROBE_F = numpy.array([[1.1, 0.2, 0.0], [0.1, 0.9, 0.05], [0.0, 0.3, 1.2]])


def probe(min_seconds: float = 0.0) -> float:
    """Seconds per block of a fixed piece of small-array numpy and Python work.

    Runs whole blocks, at least one, until ``min_seconds`` have passed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        blocks = 0
        while True:
            for _ in range(PROBE_REPS):
                numpy.linalg.det(_PROBE_F)
                numpy.linalg.inv(_PROBE_F)
                _PROBE_F @ _PROBE_F.T
                sum(i * i for i in range(20))
            blocks += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                return elapsed / blocks
    finally:
        if enabled:
            gc.enable()


class Workload:
    """Config files of one workload and the code that runs and checks one unit."""

    def __init__(self, name: str, cli_main, work: Path):
        self.name = name
        self.main = cli_main
        self.work = work

    def call(self, workflow: str, config: Path, out: Path):
        """(seconds, exit code, parsed JSON summary or None) of one CLI call."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = self.main([workflow, "--config", str(config), "--out", str(out)])
        elapsed = time.perf_counter() - t0
        try:
            summary = json.loads(buf.getvalue())
        except json.JSONDecodeError:
            summary = None
        return elapsed, rc, summary

    def run_unit(self, cfg: dict, path: Path):
        """(latency s, violations, observations) of one unit."""
        w = self.name
        if w == "tube-solve":
            t1, rc, inv = self.call("inverse-sf", path, self.work / "inverse.csv")
            if rc != 0 or not inv:
                return t1, [f"inverse-sf exit code {rc}"], {}
            lf_path = self.work / "load_free.json"
            lf_path.write_text(json.dumps(inputs.load_free_from_inverse(cfg, inv["key_results"])))
            t2, rc, lf = self.call("load-free", lf_path, self.work / "load_free.csv")
            if rc != 0 or not lf:
                return t1 + t2, [f"load-free exit code {rc}"], {}
            return (t1 + t2,) + oracles.tube_round_trip(cfg["geometry"], lf["key_results"])
        out = self.work / "unit.csv"
        if w == "opening-scan":
            t, rc, summary = self.call("energy-scan", path, out)
            if rc != 0 or not summary:
                return t, [f"energy-scan exit code {rc}"], {}
            return (t,) + oracles.opening_scan(cfg, summary["key_results"], out)
        t, rc, summary = self.call("point-test", path, out)
        if rc != 0 or not summary:
            return t, [f"point-test exit code {rc}"], {}
        return (t,) + oracles.point_drive(cfg, out)


def write_configs(work: Path, configs):
    paths = []
    for i, cfg in enumerate(configs):
        p = work / f"cfg_{i:05d}.json"
        p.write_text(json.dumps(cfg))
        paths.append(p)
    return paths


class Loop:
    """Closed-loop driver over the config pool; collects latencies and failures."""

    def __init__(self, workload: Workload, configs, paths):
        self.workload = workload
        self.configs = configs
        self.paths = paths
        self.latencies = []
        self.probes = []
        self.violations = []
        self.failed = 0
        self.steps = 0
        self.unsampled = 0

    def unit(self, i: int):
        j = i % len(self.configs)
        self.probes.append(self.probe())
        t0 = time.perf_counter()
        try:
            latency, bad, obs = self.workload.run_unit(self.configs[j], self.paths[j])
        except Exception as e:  # a crash is a failed unit; the loop carries on
            latency, bad, obs = time.perf_counter() - t0, [f"{type(e).__name__}: {e}"], {}
        self.latencies.append(latency)
        self.steps += obs.get("steps", 0)
        self.unsampled += obs.get("unsampled_keyframes", 0)
        if bad:
            self.failed += 1
            if len(self.violations) < 20:
                self.violations.append({"unit": i, "config": self.paths[j].name,
                                        "problems": bad[:5]})

    def run_for(self, seconds: float, on_unit=None):
        """Run units until `seconds` have passed (at least one)."""
        start = time.perf_counter()
        i = 0
        while True:
            if on_unit:
                on_unit(i)
            self.unit(i)
            i += 1
            if time.perf_counter() - start >= seconds:
                break
        wall = time.perf_counter() - start
        self.probes.append(self.probe())
        return i, wall

    def probe(self) -> float:
        """Probe for PROBE_SHARE of the last unit's latency (one block at least)."""
        return probe(PROBE_SHARE * self.latencies[-1] if self.latencies else 0.0)

    def scaled(self):
        """Latencies rescaled to a host on which the probe takes REF_PROBE_S."""
        p = self.probes
        return [lat * 2.0 * REF_PROBE_S / (p[i] + p[i + 1])
                for i, lat in enumerate(self.latencies)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this interpreter was started")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import scipy
    import prestress_tube
    from prestress_tube import cli
    if Path(prestress_tube.__file__).resolve().parent != (src / "prestress_tube").resolve():
        print(f"prestress_tube imported from {prestress_tube.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    work = root / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    configs = inputs.generate(args.workload, args.seed, inputs.POOL_SIZE[args.workload])
    paths = write_configs(work, configs)
    workload = Workload(args.workload, cli.main, work)

    warm_cfg = inputs.warmup(args.workload)
    warm_path = work / "warmup.json"
    warm_path.write_text(json.dumps(warm_cfg))
    warm = Loop(workload, [warm_cfg], [warm_path])
    warm.unit(0)
    setup_s = time.monotonic() - args.spawned

    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "warmup_failed": warm.failed, "violations": warm.violations,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "prestress_tube": prestress_tube.__version__}}
    if args.mode != "setup":
        loop = Loop(workload, configs, paths)
        if args.mode == "run":
            units, wall = loop.run_for(args.seconds)
            scaled, probes = loop.scaled(), loop.probes
        else:
            units, wall = loop.run_for(UNTRACED_SHARE * args.seconds)
            untraced = loop.scaled()
            tracer = Tracer([t for ts in layers.TARGETS.values() for t in ts],
                            layers.ON_RESULT, layers.ON_ARGS)
            traced_loop = Loop(workload, configs, paths)

            def mark(i):
                tracer.unit = i

            with tracer:
                traced, _ = traced_loop.run_for((1.0 - UNTRACED_SHARE) * args.seconds,
                                                on_unit=mark)
            spans = tracer.spans()
            both = min(units, traced)
            overhead = sum(traced_loop.scaled()[:both]) / sum(untraced[:both])
            result["per_layer"] = layers.per_layer_metrics(
                spans, traced, traced_loop.steps, traced_loop.unsampled, overhead)
            result["traced_units"] = traced
            result["absent_targets"] = tracer.absent()
            result["span_count"] = len(spans["target"])
            numpy.savez_compressed(work / "spans.npz",
                                   **{f: numpy.asarray(v) for f, v in spans.items()})
            scaled = untraced + traced_loop.scaled()
            probes = loop.probes + traced_loop.probes
            loop.latencies += traced_loop.latencies
            loop.failed += traced_loop.failed
            loop.violations += traced_loop.violations
            units += traced
        result.update(units=units, wall_s=wall, latencies_s=scaled, ref_probe_s=REF_PROBE_S,
                      wall_latencies_s=loop.latencies, probes_s=probes,
                      failed=loop.failed, violations=warm.violations + loop.violations,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        result["failed"] = warm.failed
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
