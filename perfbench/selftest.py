"""Self-test: counts from the traced run repeat exactly for a fixed seed.

    python3 perfbench/selftest.py

Runs ``run.py --trace 1`` twice per workload with seed 7 and the shortest
run length, and compares every metric whose unit is ``count`` (calls per
layer, the counts computed from sizes, and the census outcomes:
projective, distributive, hom-set sizes).  Exits 1 on any difference or
failed check.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 7


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload}: {res['failed']} failed checks\n{proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    ok = True
    for workload in ("cover", "witness", "census"):
        first, second = traced_counts(workload), traced_counts(workload)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        nonzero = sum(1 for v in first.values() if v)
        print(f"{workload}: {len(first)} counts, {nonzero} nonzero, "
              + ("all repeat" if not diff else f"differ: {diff}"))
        ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
