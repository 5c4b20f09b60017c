"""The layers the traced run observes, and the per-layer metrics built from its spans.

Layers are the package's modules.  Each traced target is a public function
named by its defining module; ``scipy.optimize.minimize`` is traced where the
opening module binds it, to separate Nelder-Mead's own cost from the energy
evaluations it requests.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

TARGETS = {
    "cli": ["cli.cmd_inverse_sf", "cli.cmd_load_free", "cli.cmd_energy_scan",
            "cli.cmd_point_test"],
    "config": ["config.load_config", "config.parse_workflow", "config.parse_layers",
               "config.parse_layer", "config.parse_tube", "config.parse_sector",
               "config.parse_solver", "config.parse_f0", "config.parse_program"],
    "tube": ["tube.solve_inverse_sf", "tube.solve_load_free", "tube.newton2",
             "tube.equilibrium_residuals", "tube.wall_stress_profile"],
    "opening": ["opening.find_opening_angle", "opening.equilibrate_opened",
                "opening.opened_energy", "scipy.optimize.minimize"],
    "driver": ["driver.run_point"],
    "maxwell": ["maxwell.iso_evolve_step", "maxwell.fibre_evolve_step",
                "maxwell.overstress_pk2_sf"],
    "materials": ["materials.equilibrium_pk2_sf", "materials.equilibrium_energy_sf"],
    "tensor": ["tensor.det", "tensor.inverse", "tensor.unimodular"],
}
LAYER_OF = {target: layer for layer, targets in TARGETS.items() for target in targets}

# (name, unit, better); per-unit values are divided by the traced unit count
PER_LAYER = [
    ("cli.self_ms", "ms/unit", "lower"),
    ("config.parse_ms", "ms/unit", "lower"),
    ("tube.solve_ms", "ms/unit", "lower"),
    ("tube.newton_iters", "count/unit", "lower"),
    ("tube.residual_evals", "count/unit", "lower"),
    ("tube.residual_evals_per_iter", "ratio", "lower"),
    ("tube.residual_evals_outside_newton", "count/unit", "lower"),
    ("tube.residual_self_us", "us/eval", "lower"),
    ("tube.profile_ms", "ms/unit", "lower"),
    ("opening.equilibrations", "count/unit", "lower"),
    ("opening.equilibrate_ms_p50", "ms", "lower"),
    ("opening.energy_evals_per_equilibration", "ratio", "lower"),
    ("opening.energy_self_us", "us/eval", "lower"),
    ("opening.minimize_self_ms", "ms/unit", "lower"),
    ("opening.concurrency", "ratio", "higher"),
    ("driver.steps", "count/unit", "higher"),
    ("driver.us_per_step", "us/step", "lower"),
    ("driver.unsampled_keyframes", "count/unit", "lower"),
    ("maxwell.iso_step_calls", "count/unit", "lower"),
    ("maxwell.fibre_step_calls", "count/unit", "lower"),
    ("maxwell.evolve_self_us", "us/call", "lower"),
    ("maxwell.overstress_us", "us/call", "lower"),
    ("materials.pk2_calls", "count/unit", "lower"),
    ("materials.pk2_us", "us/call", "lower"),
    ("materials.energy_calls", "count/unit", "lower"),
    ("materials.energy_us", "us/call", "lower"),
    ("materials.tensors_per_call", "count/call", "higher"),
    ("tensor.det_calls", "count/unit", "lower"),
    ("tensor.inverse_calls", "count/unit", "lower"),
    ("tensor.unimodular_calls", "count/unit", "lower"),
    ("tensor.self_ms", "ms/unit", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def newton_iterations(result, exc):
    """Iteration count from newton2's (x, residual, iterations) or its NoConvergence."""
    if exc is not None:
        return float(getattr(exc, "iterations", None) or 0)
    try:
        return float(result[2])
    except (TypeError, IndexError, ValueError):
        return 0.0


def tensors_per_call(args, kwargs):
    """Leading size of the C argument: how many 3x3 tensors one call evaluates."""
    c = args[0] if args else next(iter(kwargs.values()), None)
    n = 1
    for d in getattr(c, "shape", ())[:-2]:
        n *= int(d)
    return float(n)


ON_RESULT = {"tube.newton2": newton_iterations}
ON_ARGS = {"materials.equilibrium_pk2_sf": tensors_per_call,
           "materials.equilibrium_energy_sf": tensors_per_call}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(spans: dict, units: int, steps: int, unsampled: int,
                      overhead_ratio: float) -> dict:
    """Per-layer metric values (see PER_LAYER) from the traced run's spans.

    ``units`` is the number of traced units; ``steps`` and ``unsampled`` are
    the driver steps and unsampled keyframes the oracles counted over them.
    """
    names, parent = spans["names"], spans["parent"]
    target = [names[k] for k in spans["target"]]
    t0s, t1s, selfs, values = spans["t0"], spans["t1"], spans["self"], spans["value"]
    count = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    value = defaultdict(float)
    layer_time = defaultdict(float)    # spans whose parent lies in another layer
    eq_durations = []
    in_newton = 0
    for i, name in enumerate(target):
        dur = t1s[i] - t0s[i]
        count[name] += 1
        total[name] += dur
        self_time[name] += selfs[i]
        value[name] += values[i]
        p = parent[i]
        if p < 0 or LAYER_OF[target[p]] != LAYER_OF[name]:
            layer_time[LAYER_OF[name]] += dur
        if name == "opening.equilibrate_opened":
            eq_durations.append(dur)
        if name == "tube.equilibrium_residuals":
            while p >= 0 and target[p] != "tube.newton2":
                p = parent[p]
            in_newton += p >= 0

    def calls(*targets):
        return sum(count[x] for x in targets)

    def per_unit(x):
        return _ratio(x, units)

    evolve = ("maxwell.iso_evolve_step", "maxwell.fibre_evolve_step")
    materials = ("materials.equilibrium_pk2_sf", "materials.equilibrium_energy_sf")
    residuals = count["tube.equilibrium_residuals"]
    return {
        "cli.self_ms": per_unit(1e3 * sum(self_time[x] for x in TARGETS["cli"])),
        "config.parse_ms": per_unit(1e3 * layer_time["config"]),
        "tube.solve_ms": per_unit(1e3 * (total["tube.solve_inverse_sf"]
                                         + total["tube.solve_load_free"])),
        "tube.newton_iters": per_unit(value["tube.newton2"]),
        "tube.residual_evals": per_unit(residuals),
        "tube.residual_evals_per_iter": _ratio(in_newton, value["tube.newton2"]),
        "tube.residual_evals_outside_newton": per_unit(residuals - in_newton),
        "tube.residual_self_us": _ratio(1e6 * self_time["tube.equilibrium_residuals"], residuals),
        "tube.profile_ms": per_unit(1e3 * total["tube.wall_stress_profile"]),
        "opening.equilibrations": per_unit(len(eq_durations)),
        "opening.equilibrate_ms_p50": 1e3 * statistics.median(eq_durations)
        if eq_durations else 0.0,
        "opening.energy_evals_per_equilibration": _ratio(count["opening.opened_energy"],
                                                         len(eq_durations)),
        "opening.energy_self_us": _ratio(1e6 * self_time["opening.opened_energy"],
                                         count["opening.opened_energy"]),
        "opening.minimize_self_ms": per_unit(1e3 * self_time["scipy.optimize.minimize"]),
        "opening.concurrency": _ratio(total["opening.equilibrate_opened"],
                                      total["opening.find_opening_angle"]),
        "driver.steps": per_unit(steps),
        "driver.us_per_step": _ratio(1e6 * total["driver.run_point"], steps),
        "driver.unsampled_keyframes": per_unit(unsampled),
        "maxwell.iso_step_calls": per_unit(count["maxwell.iso_evolve_step"]),
        "maxwell.fibre_step_calls": per_unit(count["maxwell.fibre_evolve_step"]),
        "maxwell.evolve_self_us": _ratio(1e6 * sum(self_time[x] for x in evolve), calls(*evolve)),
        "maxwell.overstress_us": _ratio(1e6 * total["maxwell.overstress_pk2_sf"],
                                        count["maxwell.overstress_pk2_sf"]),
        "materials.pk2_calls": per_unit(count["materials.equilibrium_pk2_sf"]),
        "materials.pk2_us": _ratio(1e6 * total["materials.equilibrium_pk2_sf"],
                                   count["materials.equilibrium_pk2_sf"]),
        "materials.energy_calls": per_unit(count["materials.equilibrium_energy_sf"]),
        "materials.energy_us": _ratio(1e6 * total["materials.equilibrium_energy_sf"],
                                      count["materials.equilibrium_energy_sf"]),
        "materials.tensors_per_call": _ratio(sum(value[x] for x in materials), calls(*materials)),
        "tensor.det_calls": per_unit(count["tensor.det"]),
        "tensor.inverse_calls": per_unit(count["tensor.inverse"]),
        "tensor.unimodular_calls": per_unit(count["tensor.unimodular"]),
        "tensor.self_ms": per_unit(1e3 * sum(self_time[x] for x in TARGETS["tensor"])),
        "trace.overhead_ratio": overhead_ratio,
    }
