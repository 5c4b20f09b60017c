"""Smoke test of tools/same_outputs.py, the byte-identity check of the CLI's outputs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


def _tool(*argv):
    return subprocess.run([sys.executable, str(TOOL), *map(str, argv)], capture_output=True,
                          text=True, timeout=60)


def test_same_outputs_digests_the_tree_reproducibly(tmp_path):
    # two configs per workload, and a load-free run on each inverse-sf result, digested
    # twice in fresh interpreters: equal records of exit 0 with every digest present,
    # which --diff passes, and a record changed on one side, which --diff names
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        proc = _tool(ROOT / "src", "--out", path, "--seeds", 3, "--count", 2)
        assert proc.returncode == 0, proc.stderr
    a, b = (json.loads(path.read_text()) for path in paths)
    assert a == b and len(a["runs"]) == 8
    assert all(r[0] == 0 and all(r[1:]) for r in a["runs"].values())
    proc = _tool("--diff", *paths)
    assert (proc.returncode, proc.stdout) == (0, "0 of 8 runs differ\n")
    key = "load-free/3/1"
    b["runs"][key][3] = "0" * 64
    paths[1].write_text(json.dumps(b))
    proc = _tool("--diff", *paths)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0].startswith(f"{key}: ")
    assert proc.stdout.splitlines()[-1] == "1 of 8 runs differ"
