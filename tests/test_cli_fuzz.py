"""CLI fuzz oracle: bench configs with one field dropped, set to a bad value or added.

Whatever the config, no exception or warning escapes main and the exit code
says what happened: 1 with one "config error:" line and nothing on stdout, 0
with a converged run and a finite CSV, or 2 with a summary that names the
error; stderr stays empty unless the exit code is 1.
"""

import contextlib
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prestress_tube.cli import main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)

BAD_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 1e308, "x", None, [1.0], True]


def _run(tmp, workflow, cfg):
    """(exit code, stdout, stderr) of one CLI call on cfg, the CSV at tmp / out.csv."""
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([workflow, "--config", str(path), "--out", str(tmp / "out.csv")])
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def bases(tmp):
    """(workflow, config) pairs: two configs of each bench workload, and the
    load-free configs of the tube-solve ones' round trips."""
    bases = []
    for workload, workflow in (("tube-solve", "inverse-sf"), ("opening-scan", "energy-scan"),
                               ("point-drive", "point-test")):
        for cfg in inputs.generate(workload, 11, 2):
            bases.append((workflow, cfg))
            if workflow == "inverse-sf":
                rc, out, _ = _run(tmp, workflow, cfg)
                assert rc == 0
                key = json.loads(out)["key_results"]
                bases.append(("load-free", inputs.load_free_from_inverse(cfg, key)))
    return tuple(bases)


def _paths(node, prefix=()):
    """The path of every object and leaf under node, node's own first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutations(draw, bases):
    """A base config with one object given an unknown key, or one field dropped
    or set to a bad value."""
    workflow, base = draw(st.sampled_from(bases))
    cfg = json.loads(json.dumps(base))
    path = draw(st.sampled_from(list(_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else cfg
    actions = (["add"] if isinstance(target, dict) else []) + (["drop", "set"] if path else [])
    action = draw(st.sampled_from(actions))
    if action == "add":
        target["unknown_field"] = draw(st.sampled_from(BAD_VALUES))
    elif action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    return workflow, cfg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_oracle(tmp, bases, data):
    workflow, cfg = data.draw(mutations(bases))
    (tmp / "out.csv").unlink(missing_ok=True)
    rc, out, err = _run(tmp, workflow, cfg)
    assert rc in (0, 1, 2)
    if rc == 1:
        assert out == "" and err.startswith("config error:") and err.count("\n") == 1
        return
    assert err == ""
    summary = json.loads(out)
    if rc == 2:
        assert summary["converged"] is False and "error" in summary
        return
    assert summary["converged"] is True
    rows = (tmp / "out.csv").read_text().splitlines()[2:]
    assert np.isfinite([float(v) for row in rows for v in row.split(",")]).all()
