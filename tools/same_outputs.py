"""Digests of the CLI's outputs over the benchmark's configs, to show that a change
leaves every run byte-identical.

Usage (from the repository root):

    python3 tools/same_outputs.py SRC --out digests.json [--seeds 3 4 11] [--count 80]
    python3 tools/same_outputs.py --diff A.json B.json

The first form imports prestress_tube from the tree SRC (a `src/` directory) and
runs `cli.main` in process on `count` configs per workload and seed, drawn by
`bench/inputs.py` of this checkout, plus a load-free run on the sectors of every
inverse-sf run that exits 0 (960 runs at the defaults when all do).  Each run is
recorded as its exit code and the SHA-256 of its stdout, its stderr and its CSV,
with the run's scratch directory (the CSV path in stdout) written as "<work>".
The second form lists the runs whose records differ between two such files and
exits 1 if any do.  Run each tree in its own interpreter: one process imports
one tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tube-solve", "opening-scan", "point-drive")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load(src: Path):
    """prestress_tube.cli imported from the tree src, and bench/inputs.py."""
    sys.path.insert(0, str(src))
    cli = importlib.import_module("prestress_tube.cli")
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"prestress_tube was imported from {cli.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return cli, inputs


def run_one(cli, cfg: dict, work: Path):
    """(record, parsed stdout or None) of one CLI run of cfg inside the directory work."""
    cfg_path, csv_path = work / "config.json", work / "out.csv"
    cfg_path.write_text(json.dumps(cfg))
    csv_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([cfg["workflow"], "--config", str(cfg_path), "--out", str(csv_path)])
        except Exception as e:   # a crash is an outcome to compare, not the end of the check
            code = f"raised {type(e).__name__}"
            print(e, file=sys.stderr)
            traceback.print_exc(file=sys.__stderr__)
    stdout, stderr = (s.getvalue().replace(str(work), "<work>") for s in (out, err))
    csv = _sha(csv_path.read_bytes()) if csv_path.exists() else None
    record = [code, _sha(stdout.encode()), _sha(stderr.encode()), csv]
    return record, json.loads(stdout) if code == 0 else None


def runs(cli, inputs, seeds, count: int, work: Path):
    """(run id, record) of every run, in order: per seed and workload, each config,
    and after an inverse-sf run that exits 0 the load-free run on its sectors."""
    for seed in seeds:
        for workload in WORKLOADS:
            for i, cfg in enumerate(inputs.generate(workload, seed, count)):
                record, summary = run_one(cli, cfg, work)
                yield f"{workload}/{seed}/{i}", record
                if cfg["workflow"] == "inverse-sf" and summary is not None:
                    follow = inputs.load_free_from_inverse(cfg, summary["key_results"])
                    yield f"load-free/{seed}/{i}", run_one(cli, follow, work)[0]


def diff(a: dict, b: dict):
    """Run ids whose records differ, or that only one side has."""
    ra, rb = a["runs"], b["runs"]
    return [key for key in dict.fromkeys([*ra, *rb]) if ra.get(key) != rb.get(key)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="?", type=Path, help="a src/ tree holding prestress_tube")
    ap.add_argument("--out", type=Path, help="the digests file to write")
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 4, 11])
    ap.add_argument("--count", type=int, default=80, help="configs per workload and seed")
    ap.add_argument("--diff", type=Path, nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.diff:
        a, b = (json.loads(p.read_text()) for p in args.diff)
        differing = diff(a, b)
        for key in differing:
            print(f"{key}: {a['runs'].get(key)} != {b['runs'].get(key)}")
        print(f"{len(differing)} of {len(set(a['runs']) | set(b['runs']))} runs differ")
        return 1 if differing else 0
    if args.src is None or args.out is None:
        ap.error("give SRC and --out, or --diff A B")
    cli, inputs = load(args.src)
    with tempfile.TemporaryDirectory() as tmp:
        records = dict(runs(cli, inputs, args.seeds, args.count, Path(tmp)))
    args.out.write_text(json.dumps({"seeds": args.seeds, "count": args.count,
                                    "runs": records}, indent=1) + "\n")
    print(f"{len(records)} runs, exit codes {sorted({str(r[0]) for r in records.values()})}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
