"""The semimod benchmark.

    python3 perfbench/run.py --workload {cover,witness,census} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Load comes from one process at a time: every job runs in its own
interpreter (``jobs.py``), one after another, with no threads.  Workloads:

* ``cover``: cold ``projective R`` for R in D2..D6 and E2..E4, plus
  ``projective E4 --budget 10``, which must exit 2 (inconclusive).  The
  whole-table passes over the free cover dominate; the search barely runs.
* ``witness``: cold ``witness`` runs (B up to 5, Finf up to 4, B up to 2 in
  the all-homs class, which must fail, and B up to 8 with budget 10, which
  must be inconclusive) and a ``rigidity`` grid for n, m in 2..8 in both
  flavors inside one interpreter.  The hom search dominates; no free module
  is built.
* ``census``: one warm process pushes seeded random modules and matrices
  through the library (see ``census.py``), plus budget-1 certificates on
  its 8-generator modules, which must be inconclusive.  Per-call overhead,
  small axiom scans and exhaustion searches dominate.

The seed orders the jobs of each pass (cover, witness) or generates the
inputs (census).  Passes repeat until ``--seconds`` have gone by; a job's
time is its median over passes.  The census's first pass fills the process
caches and is checked, not timed.  End-to-end metrics, with tracing off:

* ``wall_s``: the sum of the job medians, set-up excluded;
* ``slowest_job_s``: the slowest job; on ``census``, the slowest batch of
  objects of one kind (flavor and generator count, or matrices);
* ``inconclusive_s``: the budget-bounded job(s) that must be inconclusive;
* ``objects_per_s``: jobs (census: objects and certificates) per second of
  ``wall_s``;
* ``peak_rss_mb``: the largest peak RSS of any job process, from its own
  rusage;
* ``setup_s``: interpreter start plus ``import semimod``, median over job
  processes (census: over five bare imports and the census process), plus
  the census's input generation.

Every time is the job thread's CPU time, scaled to a reference host speed
(see ``hostspeed.py``): the shared host's speed swings by tens of percent,
which no median over one run can hide.  The unscaled figures are printed on
standard error.

``--trace 1`` alternates untraced and traced passes, checks that both
compute the same outputs, and prints the per-layer metrics: self time and
calls per layer span, counts (those computed from sizes repeat exactly),
the census outcomes, ``trace.overhead_s`` (traced minus untraced
``wall_s``) and ``failed_frac``.  It writes every span of the last traced
pass to ``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

JOB_TIMEOUT = 120.0  # seconds; a job that runs longer is killed and failed
LAST_START = 150.0  # no job starts later than this into a run
# The probe loop's time (hostspeed.py) on the reference host, a shared
# 2-vCPU Intel Xeon virtual machine with Python 3.11, when quiet.  Times are
# reported at that speed.
LOOP_REF = 0.00036

COVER = [{"kind": "projective", "ref": r, "expect_exit": 0}
         for r in ("D2", "D3", "D4", "D5", "D6", "E2", "E3", "E4")]
COVER.append({"kind": "projective", "ref": "E4", "budget": 10, "expect_exit": 2,
              "inconclusive": True})

WITNESS = [
    {"kind": "witness", "flavor": "B", "max_n": 5, "expect_exit": 0,
     "expect_verdict": "no-factorization"},
    {"kind": "witness", "flavor": "Finf", "max_n": 4, "expect_exit": 0,
     "expect_verdict": "no-factorization"},
    {"kind": "witness", "flavor": "B", "max_n": 2, "class": "all", "expect_exit": 1,
     "expect_verdict": "factors"},
    {"kind": "witness", "flavor": "B", "max_n": 8, "budget": 10, "expect_exit": 2,
     "expect_verdict": "inconclusive", "inconclusive": True},
    {"kind": "rigidity",
     "grid": [[fl, n, m] for fl in ("B", "Finf") for n in range(2, 9) for m in range(2, 9)]},
]

# every per-layer metric, printed on every traced run (zero where a
# workload bypasses the layer)
LAYERS = (
    "cli.main", "families.construct",
    "free.free_module", "free.extend_from_generators", "core.induced_order", "homs.check_hom",
    "homs.find_right_inverse", "homs.enumerate_homs", "families.rigidity_check",
    "noetherian.hom_catalog", "noetherian.witness_verify",
    "core.validate_module", "core.irreducible_generators", "core.is_distributive_lattice",
    "core.quotient", "projective.projectivity_certificate",
    "matrices.distinct_row_factorization", "matrices.dual_factorization",
    "serialize.module_to_json", "serialize.module_from_doc",
)
COUNTS = (
    "homs.check_hom.pairs", "free.table_entries", "homs.enumerate_homs.results",
    "noetherian.hom_catalog.entries", "families.rigidity_check.results",
    "noetherian.witness_verify.factors", "noetherian.witness_verify.no_factorization",
    "noetherian.witness_verify.inconclusive",
    "census.projective", "census.distributive", "census.quotient_elements",
)


def job_name(spec: dict) -> str:
    if spec["kind"] == "projective":
        return f"projective {spec['ref']}" + (f" --budget {spec['budget']}" if "budget" in spec else "")
    if spec["kind"] == "witness":
        extra = "".join(f" --{k} {spec[k]}" for k in ("class", "budget") if k in spec)
        return f"witness --flavor {spec['flavor']} --max-n {spec['max_n']}{extra}"
    return spec["kind"]


def run_child(spec: dict, timeout: float = JOB_TIMEOUT) -> tuple[dict | None, str, float, float]:
    """Run one job process to its end: (result or None, error text, peak RSS
    in MiB, set-up seconds)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    deadline = time.monotonic() + timeout
    proc = subprocess.Popen([sys.executable, str(HERE / "jobs.py"), json.dumps(spec)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    chunks, timed_out = [], False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    timed_out = True
                    break
                if sel.select(left):
                    data = os.read(proc.stdout.fileno(), 1 << 16)
                    if not data:
                        break
                    chunks.append(data)
    finally:
        if timed_out or sys.exc_info()[0] is not None:
            proc.kill()
        # os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
        # keep the maximum over every child so far
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    rss_mb = usage.ru_maxrss / 1024
    text = b"".join(chunks).decode(errors="replace")
    if timed_out:
        return None, f"timed out after {timeout:.0f} s", rss_mb, float("nan")
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {text[-500:]}", rss_mb, float("nan")
    try:
        res = json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, f"unreadable result: {text[-500:]}", rss_mb, float("nan")
    return res, "", rss_mb, res["setup_s"]


class Tally:
    """Samples and failures of one run.

    Every time is kept twice: as measured, and scaled to the reference
    host speed by the probe loop time seen while it was measured.
    """

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        self.rss: list[float] = []
        self.gen_s = self.raw_gen_s = 0.0  # census input generation, part of set-up
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, seconds: float, speed_s: float) -> None:
        self.times.setdefault(name, []).append(seconds * LOOP_REF / speed_s)
        self.raw.setdefault(name, []).append(seconds)

    def add_setup(self, seconds: float, speed_s: float) -> None:
        self.setups.append(seconds * LOOP_REF / speed_s)
        self.raw_setups.append(seconds)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def medians(self, raw: bool = False) -> dict[str, float]:
        return {k: statistics.median(v) for k, v in (self.raw if raw else self.times).items()}


def _sum_layers(into: dict, layers: dict, counts: dict, speed_s: float) -> None:
    for k, (self_s, calls) in layers.items():
        cur = into.setdefault(k, [0.0, 0])
        cur[0] += self_s * LOOP_REF / speed_s
        cur[1] += calls
    into_counts = into.setdefault("#counts", {})
    for k, n in counts.items():
        into_counts[k] = into_counts.get(k, 0) + n


def run_cold(jobs: list[dict], seed: int, seconds: float, trace: bool, started: float):
    """Passes over the job list, one fresh interpreter per job."""
    rng = random.Random(seed)
    tally, traced = Tally(), Tally()
    traced_passes: list[dict] = []
    spans: list = []
    reference: dict[str, str] = {}
    modes = [False, True] if trace else [False]
    done = False
    while not done:
        for mode in modes:
            order = list(range(len(jobs)))
            rng.shuffle(order)
            layers: dict = {}
            pass_spans: list = []
            for pos, j in enumerate(order):
                spec = dict(jobs[j], job=j, trace=mode)
                name = job_name(spec)
                t = traced if mode else tally
                t.attempted += 1
                res, err, rss, setup = run_child(spec)
                t.rss.append(rss)
                if res is None:
                    t.fail(f"{name}: {err}")
                    continue
                t.add_setup(setup, res["setup_speed_s"])
                t.add(name, res["job_s"], res["speed_s"])
                bad = list(res["failed"])
                out = json.dumps(res["output"], sort_keys=True)
                if reference.setdefault(name, out) != out:
                    bad.append(("traced" if mode else "untraced") + " output differs")
                if bad:
                    t.fail(f"{name}: {'; '.join(bad)}")
                if mode:
                    _sum_layers(layers, res["layers"], res["counts"], res["speed_s"])
                    pass_spans += res["spans"]
                # an untraced run may stop between jobs once every job has a sample
                elapsed = time.monotonic() - started
                if not trace and elapsed >= seconds and tally.attempted >= len(jobs):
                    done = True
                    break
                if elapsed >= LAST_START and pos + 1 < len(order):
                    tally.fail(f"run stopped after {elapsed:.0f} s with jobs left")
                    return tally, traced, traced_passes, spans
            if mode:
                traced_passes.append(layers)
                spans = pass_spans
                if time.monotonic() - started >= seconds:
                    done = True
                    break
    return tally, traced, traced_passes, spans


def run_census(seed: int, seconds: float, trace: bool, started: float):
    """One census process; five more bare imports sample the set-up time."""
    tally, traced = Tally(), Tally()
    for _ in range(5):
        res, err, rss, setup = run_child({"kind": "probe"})
        if res is None:
            raise SystemExit(f"set-up probe failed: {err}")
        tally.add_setup(setup, res["setup_speed_s"])
        tally.rss.append(rss)
    left = max(1.0, seconds - (time.monotonic() - started))
    res, err, rss, setup = run_child(
        {"kind": "census", "seed": seed, "seconds": left, "trace": trace},
        timeout=LAST_START)
    tally.rss.append(rss)
    if res is None:
        tally.attempted += 1
        tally.fail(f"census: {err}")
        return tally, traced, [], [], {"census": "census"}
    tally.add_setup(setup, res["setup_speed_s"])
    tally.gen_s = res["gen_s"] * LOOP_REF / res["gen_speed_s"]
    tally.raw_gen_s = res["gen_s"]
    traced_passes = []
    tally.attempted += res["objects"]  # the untimed first pass
    for p in [{"failed": res["warmup_failed"], "jobs": {}, "traced": False}] + res["passes"]:
        t = traced if p["traced"] else tally
        t.attempted += len(p["jobs"])
        by_object: dict[str, list[str]] = {}
        for f in p["failed"]:
            by_object.setdefault(f.split(":", 1)[0], []).append(f)
        t.failures += [f"census: {'; '.join(fs)}" for fs in by_object.values()]
        for name, (seconds, speed) in p["jobs"].items():
            t.add(name, seconds, speed)
        if p["traced"]:
            layers: dict = {}
            _sum_layers(layers, p["layers"], p["counts"], p["speed_s"])
            traced_passes.append(layers)
    return tally, traced, traced_passes, res["spans"], res["batches"]


def end_to_end(tally: Tally, batches: dict[str, str], inconclusive: str,
               raw: bool = False) -> dict:
    """Job (or census object) medians, summed per batch of the workload."""
    med = tally.medians(raw)
    wall = sum(med.values())
    per_batch: dict[str, float] = {}
    for name, seconds in med.items():
        per_batch[batches[name]] = per_batch.get(batches[name], 0.0) + seconds
    return {
        "wall_s": (wall, "s"),
        "slowest_job_s": (max(per_batch.values()), "s"),
        "inconclusive_s": (per_batch[inconclusive], "s"),
        "objects_per_s": (len(med) / wall, "1/s"),
        "peak_rss_mb": (max(tally.rss), "MiB"),
        "setup_s": (statistics.median(tally.raw_setups) + tally.raw_gen_s if raw
                    else statistics.median(tally.setups) + tally.gen_s, "s"),
    }


def per_layer(tally: Tally, traced: Tally, traced_passes: list[dict]) -> dict:
    out: dict = {}
    for name in LAYERS:
        out[name + ".self_s"] = (statistics.median(
            p.get(name, [0.0, 0])[0] for p in traced_passes), "s")
        out[name + ".calls"] = (statistics.median(
            p.get(name, [0.0, 0])[1] for p in traced_passes), "count")
    for name in COUNTS:
        out[name] = (statistics.median(
            p.get("#counts", {}).get(name, 0) for p in traced_passes), "count")
    untraced_wall = sum(tally.medians().values())
    traced_wall = sum(traced.medians().values())
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    attempted = tally.attempted + traced.attempted
    out["failed_frac"] = (len(tally.failures + traced.failures) / max(1, attempted), "fraction")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["cover", "witness", "census"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "semimod" / "__init__.py").is_file():
        print(f"no semimod sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # untimed warm-up: byte-compiles the sources once, and proves they import
    res, err, _rss, _setup = run_child({"kind": "probe"})
    if res is None:
        print(f"cannot import semimod: {err}", file=sys.stderr)
        return 2

    started = time.monotonic()
    trace = bool(args.trace)
    if args.workload == "census":
        tally, traced, traced_passes, spans, batches = run_census(
            args.seed, args.seconds, trace, started)
        inconclusive = "inconclusive"
    else:
        jobs = COVER if args.workload == "cover" else WITNESS
        tally, traced, traced_passes, spans = run_cold(
            jobs, args.seed, args.seconds, trace, started)
        batches = {job_name(j): job_name(j) for j in jobs}
        inconclusive = next(job_name(j) for j in jobs if j.get("inconclusive"))

    failures = tally.failures + traced.failures
    for f in failures[:20]:
        print("FAILED", f, file=sys.stderr)
    attempted = tally.attempted + traced.attempted
    missing = set(batches) - set(tally.times)
    if missing or (trace and not traced_passes):
        print(f"no completed sample of {sorted(missing) or 'a traced pass'}", file=sys.stderr)
        return 1
    raw = end_to_end(tally, batches, inconclusive, raw=True)
    print("as measured, before scaling to the reference host speed: "
          + ", ".join(f"{k} {v:.4f}" for k, (v, _u) in raw.items()), file=sys.stderr)
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "fields": ["name", "start", "end", "parent", "job"], "spans": spans}))
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
        metrics = per_layer(tally, traced, traced_passes)
    else:
        metrics = end_to_end(tally, batches, inconclusive)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
