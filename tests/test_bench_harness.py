"""Smoke test of the benchmark harness: one short run per workload on a copy of the tree."""

import ast
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["point-drive", "tube-solve", "opening-scan"])
def test_bench_point_drive_runs_clean(tmp_path, workload):
    # the harness writes its configs and reports under its own checkout, so it runs on
    # a copy; a failed or wrong unit, or a missing or non-finite end-to-end metric, fails
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "0.5", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert len(names) == 5
    assert all(math.isfinite(result["metrics"][name]["value"]) for name in names)


# bench/layers.py targets that name no function the package defines today: code that
# left src/ or the workflows (ROADMAP item 1 lists them)
ABSENT_TARGETS = {"scipy.optimize.minimize", "opening.equilibrate_opened",
                  "materials.equilibrium_pk2_sf", "materials.equilibrium_energy_sf",
                  "maxwell.iso_evolve_step", "maxwell.fibre_evolve_step",
                  "maxwell.overstress_pk2_sf"}


def test_bench_trace_targets_name_package_functions():
    # renaming a function the bench traces silently zeroes its per-layer metrics: every
    # target but the known absent ones resolves as prestress_tube.<module>.<name>
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "TARGETS")
    unresolved = set()
    for target in (name for names in targets.values() for name in names):
        module, _, attr = target.rpartition(".")
        try:
            found = callable(getattr(importlib.import_module(f"prestress_tube.{module}"), attr, None))
        except ImportError:
            found = False
        if not found:
            unresolved.add(target)
    assert unresolved <= ABSENT_TARGETS
