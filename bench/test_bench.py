"""Tests of the benchmark itself (reduced mode: one-second runs).

Run from the repository root with ``python -m pytest bench``.
"""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

import prestress_tube  # noqa: E402
from prestress_tube import cli  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    proc = bench("--workload", "all", "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    env = json.loads(proc.stdout.strip().splitlines()[-2])["environment"]
    for key in ("git_sha", "python", "numpy", "scipy", "nproc", "os_cpu_count", "machine"):
        assert key in env
    for workload in run.WORKLOADS:
        got = {k.split(".", 1)[1]: v for k, v in result["metrics"].items()
               if k.startswith(workload + ".")}
        assert {k: v["unit"] for k, v in got.items()} == expected
        assert all(isinstance(v["value"], float) and math.isfinite(v["value"])
                   for v in got.values())
        assert f"[{workload}]" in proc.stderr and "oracle PASS" in proc.stderr


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
                           "tube-solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_latencies_are_rescaled_by_the_probes_around_each_unit():
    loop = worker.Loop(None, [], [])
    loop.latencies = [0.010, 0.020]
    loop.probes = [1.0e-3, 3.0e-3, 2.0e-3]
    ref = worker.REF_PROBE_S
    assert loop.scaled() == pytest.approx([0.010 * ref / 2.0e-3, 0.020 * ref / 2.5e-3])
    assert worker.probe() > 0.0


def test_inputs_are_a_function_of_the_seed():
    for workload in run.WORKLOADS:
        assert inputs.generate(workload, 7, 5) == inputs.generate(workload, 7, 5)
        assert inputs.generate(workload, 7, 5) != inputs.generate(workload, 8, 5)


# ---------------------------------------------------------------------------
# oracles: pass on real outputs, reject perturbed ones
# ---------------------------------------------------------------------------

def cli_run(tmp_path, cfg, name="unit"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"{name}.csv"
    code = cli.main([cfg["workflow"], "--config", str(path), "--out", str(out)])
    return code, out


def summary_of(capsys):
    return json.loads(capsys.readouterr().out)


def rewrite_csv(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    header, rows = oracles.read_csv(path)
    edit(header, rows)
    with open(path, "w", newline="") as fh:
        fh.write(lines[0])
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[repr(v) for v in row] for row in rows])


def test_tube_oracle(tmp_path, capsys):
    cfg = inputs.generate("tube-solve", 0, 1)[0]
    assert cli_run(tmp_path, cfg, "inv")[0] == 0
    inv = summary_of(capsys)["key_results"]
    assert cli_run(tmp_path, inputs.load_free_from_inverse(cfg, inv), "lf")[0] == 0
    key = summary_of(capsys)["key_results"]
    assert oracles.tube_round_trip(cfg["geometry"], key)[0] == []
    for name in ("r_i_mm", "r_o_mm", "l_mm"):
        bad = dict(key, **{name: key[name] * (1.0 + 1e-6)})
        assert oracles.tube_round_trip(cfg["geometry"], bad)[0]
    assert oracles.tube_round_trip(cfg["geometry"], dict(key, r_o_mm=float("nan")))[0]


def test_opening_oracle(tmp_path, capsys):
    cfg = inputs.generate("opening-scan", 0, 1)[0]
    code, out = cli_run(tmp_path, cfg)
    assert code == 0
    key = summary_of(capsys)["key_results"]
    assert oracles.opening_scan(cfg, key, out)[0] == []
    top = max(cfg[x]["sector"]["alpha_deg"] for x in ("media", "adventitia"))
    low = min(cfg[x]["sector"]["alpha_deg"] for x in ("media", "adventitia"))
    assert oracles.opening_scan(cfg, dict(key, argmin_deg=top + 1.0), out)[0]
    assert oracles.opening_scan(cfg, dict(key, argmin_deg=low + 1e-6), out)[0]
    _, rows = oracles.read_csv(out)
    above = min(e for _, e in rows) + 1e-3
    assert oracles.opening_scan(cfg, dict(key, e_min_microj=above), out)[0]


def test_point_oracle(tmp_path):
    cfg = inputs.generate("point-drive", 0, 1)[0]
    code, out = cli_run(tmp_path, cfg)
    assert code == 0
    bad, obs = oracles.point_drive(cfg, out)
    assert bad == []
    assert obs["steps"] >= 40

    def perturbed(edit):
        path = tmp_path / "perturbed.csv"
        path.write_bytes(out.read_bytes())
        rewrite_csv(path, edit)
        return oracles.point_drive(cfg, path)[0]

    def det_drift(header, rows):
        rows[len(rows) // 2][header.index("det_ci")] += 1e-8

    def initial_overstress(header, rows):
        rows[0][header.index("overstress_kpa")] = 1e-3

    def nan_stress(header, rows):
        rows[-1][header.index("s11_kpa")] = float("nan")

    for edit in (det_drift, initial_overstress, nan_stress):
        assert perturbed(edit), edit.__name__


def test_unsampled_keyframes_are_counted_from_the_output(tmp_path):
    path = tmp_path / "trace.csv"
    header = ["t_s", "s11_kpa", "s22_kpa", "s33_kpa", "s12_kpa", "s13_kpa", "s23_kpa",
              "det_ci", "overstress_kpa"]
    with open(path, "w", newline="") as fh:
        fh.write("# comment\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in (0.0, 0.1, 0.2, 0.3):
            writer.writerow([t, 1, 1, 1, 0, 0, 0, 1.0, 0.0])
    eye = inputs.IDENTITY
    cfg = {"program": {"dt_s": 0.1, "keyframes": [[0.0, eye], [0.2, eye], [0.25, eye]]}}
    bad, obs = oracles.point_drive(cfg, path)
    assert bad == [] and obs == {"steps": 3, "unsampled_keyframes": 1}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def all_targets():
    return [t for ts in layers.TARGETS.values() for t in ts]


def bindings_of(obj):
    """(namespace, key) pairs of the package's modules and module-level dicts holding obj."""
    found = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "prestress_tube":
            continue
        for attr, value in vars(module).items():
            if value is obj:
                found.append((vars(module), attr))
            elif isinstance(value, dict) and not attr.startswith("__"):
                found += [(value, k) for k, v in value.items() if v is obj]
    return found


def test_tracer_wraps_every_binding_and_restores_them():
    tracer = Tracer(all_targets(), layers.ON_RESULT, layers.ON_ARGS)
    originals = {t: tracer._resolve(t) for t in tracer.names}
    before = {t: bindings_of(f) for t, f in originals.items()}
    assert any(len(b) > 1 for b in before.values())    # some names are imported elsewhere
    with tracer:
        assert tracer.absent() == []
        for t, holders in before.items():
            assert tracer.bindings[t] == len(holders)
            for ns, key in holders:
                assert ns[key] is not originals[t] and ns[key].__wrapped__ is originals[t]
    for t, holders in before.items():
        assert all(ns[key] is originals[t] for ns, key in holders)


def test_tracer_reports_a_removed_function_as_absent(monkeypatch, tmp_path, capsys):
    # the CLI keeps its own binding, so the run still works without the tube one
    monkeypatch.delattr(prestress_tube.tube, "wall_stress_profile")
    tracer = Tracer(all_targets() + ["tube.no_such_function"], layers.ON_RESULT,
                    layers.ON_ARGS)
    with tracer:
        cfg = inputs.generate("tube-solve", 0, 1)[0]
        assert cli_run(tmp_path, cfg)[0] == 0
    assert tracer.absent() == ["tube.wall_stress_profile", "tube.no_such_function"]
    spans = tracer.spans()
    traced = {spans["names"][k] for k in spans["target"]}
    assert "tube.wall_stress_profile" not in traced
    assert "tube.equilibrium_residuals" in traced
    assert layers.per_layer_metrics(spans, 1, 0, 0, 1.0)["tube.profile_ms"] == 0.0


def test_tracer_keeps_one_stack_per_thread(tmp_path, capsys):
    cfg = inputs.generate("opening-scan", 0, 1)[0]
    cfg["grid"] = {"start_deg": 100.0, "end_deg": 130.0, "step_deg": 10.0}
    with Tracer(all_targets(), layers.ON_RESULT, layers.ON_ARGS) as tracer:
        assert cli_run(tmp_path, cfg)[0] == 0
    spans = tracer.spans()
    target = [spans["names"][k] for k in spans["target"]]
    parent, thread = spans["parent"], spans["thread"]
    for i, name in enumerate(target):
        assert spans["t1"][i] >= spans["t0"][i]
        assert spans["self"][i] <= spans["t1"][i] - spans["t0"][i] + 1e-12
        if parent[i] >= 0:
            assert thread[parent[i]] == thread[i]
        if name == "opening.opened_energy":
            p = parent[i]
            while p >= 0 and target[p] != "opening.equilibrate_opened":
                p = parent[p]
            assert p >= 0, "energy evaluation outside an equilibration"
    pooled = {thread[i] for i, n in enumerate(target) if n == "opening.equilibrate_opened"}
    assert len(pooled) >= 2       # pool workers and the main thread's refinement
    metrics = layers.per_layer_metrics(spans, 1, 0, 0, 1.0)
    assert metrics["opening.equilibrations"] == target.count("opening.equilibrate_opened")
    assert metrics["opening.energy_evals_per_equilibration"] > 1
