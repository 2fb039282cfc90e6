"""One benchmark job, run in a fresh interpreter: ``python3 jobs.py '<spec json>'``.

Times are CPU seconds of this process's only thread (see ``hostspeed.py``,
whose probe samples from the start of this script to its end).  Set-up is
the time from interpreter start until ``import semimod`` has finished; it
stays out of the job time.  The process prints one JSON line: the set-up
and job times and the probe's loop time during each, what the job computed
(compared across traced and untraced runs), the failed checks, and, when
traced, the spans and counts.

Untraced ``projective``, ``witness`` and ``rigidity`` jobs call
``semimod.cli.main`` exactly as the command line does.  Traced jobs make
the same library calls one by one, each inside a span named after its
layer, and must compute the same output.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import hostspeed  # noqa: E402

PROBE = hostspeed.HostSpeed()
if __name__ == "__main__":
    PROBE.start()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import semimod  # noqa: E402,F401  (the import is part of set-up)
from semimod import Flavor, compose, free_module, is_distributive_lattice
from semimod import cli
from semimod.families import rigidity_check
from semimod.free import extend_from_generators
from semimod.homs import BudgetExceededError, Hom, find_right_inverse
from semimod.core import irreducible_generators
from semimod.noetherian import (
    MorphismClass,
    default_witness_family,
    hom_catalog,
    witness_verify,
)
from semimod.serialize import resolve_module_ref

import census
from tracing import NullTracer, Tracer, self_times

SETUP_S = PROBE.clock()  # thread CPU time since interpreter start
READY = time.perf_counter()


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# cover: projective R [--budget B]


def _projective_traced(ref: str, budget, tr: Tracer) -> tuple[int, dict | None]:
    """The steps of ``cli.main(["projective", ref])``, one span each.

    The ``core.induced_order`` and ``homs.check_hom`` spans force work that
    the library does today only as a side effect: ``find_right_inverse``
    reads ``cover.is_hom`` (the all-pairs check), and its search reads the
    free module's ``.order`` (the |F|^2 order pass).  Forcing them here puts
    that time in its own layer instead of in ``homs.find_right_inverse``.
    If the library stops reading either, drop the matching span: the traced
    job would otherwise pay for work that the command no longer does, and
    ``trace.overhead_s`` on ``cover`` grows by that amount.
    """
    with tr.span("families.construct"):
        mod = resolve_module_ref(ref)
    with tr.span("core.irreducible_generators"):
        gens = irreducible_generators(mod)
    with tr.span("free.free_module"):
        F = free_module(mod.flavor, len(gens))
    with tr.span("free.extend_from_generators"):
        cover = Hom(F, mod, extend_from_generators(F, mod, list(gens)))
    if not cover.surjective:
        raise AssertionError("irreducible generators failed to generate")
    # computed from sizes: the dense table and the all-pairs cover check
    tr.count("free.table_entries", F.size * F.size)
    tr.count("homs.check_hom.pairs", F.size * F.size + (F.size if F.flavor is Flavor.FINF else 0))
    with tr.span("core.induced_order"):
        F.order, mod.order
    with tr.span("homs.check_hom"):
        cover.is_hom
    try:
        with tr.span("homs.find_right_inverse"):
            section = find_right_inverse(cover, **({"budget": budget} if budget else {}))
    except BudgetExceededError:
        return 2, None
    if section is not None and not compose(cover, section).is_identity():
        raise AssertionError("found section does not split the cover")
    report = {"projective": section is not None}
    if mod.flavor is Flavor.B:
        with tr.span("core.is_distributive_lattice"):
            dist = is_distributive_lattice(mod)
        report["distributive"] = dist.distributive
        report["criteria_agree"] = dist.distributive == report["projective"]
    if section is not None:
        report["section"] = list(section.map)
    return (0 if section is not None else 1), report


def job_projective(spec: dict, tr) -> dict:
    ref, budget = spec["ref"], spec.get("budget")
    if tr.enabled:
        rc, report = _projective_traced(ref, budget, tr)
    else:
        rc, text = _cli(["projective", ref] + (["--budget", str(budget)] if budget else []))
        report = json.loads(text) if rc in (0, 1) else None
    return {"exit": rc, "report": report}


def check_projective(spec: dict, out: dict) -> list[str]:
    bad = []
    if out["exit"] != spec["expect_exit"]:
        bad.append(f"exit {out['exit']}, expected {spec['expect_exit']}")
    report = out["report"]
    if report is None:
        return bad
    mod = resolve_module_ref(spec["ref"])
    if mod.flavor is Flavor.B and report.get("criteria_agree") is not True:
        bad.append("projective and distributive disagree")
    section = report.get("section")
    if report["projective"] != (section is not None):
        bad.append("projective verdict without a section")
    if section is not None:
        F = free_module(mod.flavor, len(irreducible_generators(mod)))
        if not census.section_ok(mod, F, section):
            bad.append("section does not split the cover")
    return bad


# ---------------------------------------------------------------------------
# witness --flavor F --max-n N [--class C] [--budget B]


def _witness_doc(report) -> dict:
    return {
        "holds": report.holds,
        "inconclusive": report.inconclusive,
        "levels": [{"index": lv.index, "checks": [[yj, v.value] for yj, v in lv.checks]}
                   for lv in report.levels],
    }


def _witness_traced(spec: dict, tr: Tracer) -> tuple[int, dict]:
    mclass = MorphismClass(spec.get("class", "injections"))
    budget = spec.get("budget")
    with tr.span("families.construct"):
        wspec, x0, ys, fs = default_witness_family(
            Flavor(spec["flavor"]), spec["max_n"], mclass,
            **({"budget": budget} if budget else {}))
    # warm the catalogs witness_verify reads, so its span holds the rest
    pairs = []
    for i, yi in enumerate(ys):
        for yj in ys[:i]:
            pair = (x0, yj) if mclass is MorphismClass.ALL else (yj, yi)
            if pair not in pairs:
                pairs.append(pair)
    for x, y in pairs:
        try:
            with tr.span("noetherian.hom_catalog"):
                entries = hom_catalog(wspec, x, y)
            tr.count("noetherian.hom_catalog.entries", len(entries))
        except BudgetExceededError:
            pass
    with tr.span("noetherian.witness_verify"):
        report = witness_verify(wspec, x0, ys, fs)
    for lv in report.levels:
        for _yj, v in lv.checks:
            tr.count("noetherian.witness_verify." + v.name.lower(), 1)
    rc = 0 if report.holds else (2 if report.inconclusive else 1)
    return rc, _witness_doc(report)


def job_witness(spec: dict, tr) -> dict:
    if tr.enabled:
        rc, doc = _witness_traced(spec, tr)
    else:
        argv = ["witness", "--flavor", spec["flavor"], "--max-n", str(spec["max_n"]),
                "--format", "json"]
        if "class" in spec:
            argv += ["--class", spec["class"]]
        if spec.get("budget"):
            argv += ["--budget", str(spec["budget"])]
        rc, text = _cli(argv)
        doc = json.loads(text)
    return {"exit": rc, "doc": doc}


def check_witness(spec: dict, out: dict) -> list[str]:
    bad = []
    if out["exit"] != spec["expect_exit"]:
        bad.append(f"exit {out['exit']}, expected {spec['expect_exit']}")
    got = [check for lv in out["doc"]["levels"] for check in lv["checks"]]
    # Y_i is the (i+3)-rd family member, and f_i is checked against every earlier Y_j
    prefix = "D" if spec["flavor"] == "B" else "E"
    want = [[f"{prefix}{j + 4}", spec["expect_verdict"]]
            for i in range(spec["max_n"]) for j in range(i)]
    if got != want:
        bad.append(f"verdicts {got}, expected {want}")
    return bad


# ---------------------------------------------------------------------------
# rigidity grid, inside one interpreter


def _rigidity_line(found) -> str:
    if len(found) == 1 and found[0].is_identity():
        return "1 morphism (identity)"
    return f"{len(found)} morphisms"


def job_rigidity(spec: dict, tr) -> dict:
    rows = []
    for fl, n, m in spec["grid"]:
        if tr.enabled:
            with tr.span("families.rigidity_check"):
                found = rigidity_check(n, m, Flavor(fl))
            tr.count("families.rigidity_check.results", len(found))
            line = _rigidity_line(found)
            ok = (n == m and line == "1 morphism (identity)") or (n != m and not found)
            rc = 0 if ok else 1
        else:
            rc, text = _cli(["rigidity", "--flavor", fl, "--n", str(n), "--m", str(m)])
            line = text.splitlines()[0]
        rows.append([fl, n, m, rc, line])
    return {"rows": rows}


def check_rigidity(spec: dict, out: dict) -> list[str]:
    bad = []
    for fl, n, m, rc, line in out["rows"]:
        want = "1 morphism (identity)" if n == m else "0 morphisms"
        if rc != 0 or line != want:
            bad.append(f"rigidity {fl} {n},{m}: exit {rc}, {line!r}")
    return bad


JOBS = {
    "projective": (job_projective, check_projective),
    "witness": (job_witness, check_witness),
    "rigidity": (job_rigidity, check_rigidity),
}


def run_job(spec: dict) -> dict:
    run, check = JOBS[spec["kind"]]
    tr = Tracer(spec["job"], PROBE.clock) if spec["trace"] else NullTracer()
    p0, t0 = time.perf_counter(), PROBE.clock()
    with tr.span("cli.main"):
        out = run(spec, tr)
    job_s = PROBE.clock() - t0
    speed = PROBE.loop_time(p0, time.perf_counter())
    try:
        bad = check(spec, out)
    except Exception as exc:  # a check that crashes is a failed check
        bad = [f"check raised {type(exc).__name__}: {exc}"]
    res = {"job_s": job_s, "speed_s": speed, "output": out, "failed": bad}
    if tr.enabled:
        layers, calls = self_times(tr.spans)
        res.update(layers={k: [layers[k], calls[k]] for k in layers},
                   counts=dict(tr.counts), spans=tr.spans)
    return res


# ---------------------------------------------------------------------------
# census: one warm session over seeded inputs


def _census_job(inp, inconclusive: bool, tr) -> tuple[float, float, object, list[str], Tracer | None]:
    """Time one object (or one budget-bounded certificate on it); then check it.

    Returns the time, the probe's loop time around it, the outcome, the failed
    checks and, when traced, the job's tracer.
    """
    jtr = Tracer(clock=PROBE.clock) if tr.enabled else tr
    p0, t0 = time.perf_counter(), PROBE.clock()
    with jtr.span("cli.main"):
        if inconclusive:
            out = census.run_inconclusive(inp, jtr)
        elif isinstance(inp, census.ModuleInput):
            out = census.run_module(inp, jtr)
        else:
            out = census.run_matrix(inp, jtr)
    seconds = PROBE.clock() - t0
    speed = PROBE.loop_time(p0, time.perf_counter())
    try:
        if inconclusive:
            errs = [] if out else [f"budget-{census.INCONCLUSIVE_BUDGET} certificate completed"]
            jtr.count("homs.check_hom.pairs", (1 << inp.gens) ** 2)
            outcome = out
        elif isinstance(inp, census.ModuleInput):
            errs = census.check_module(inp, out)
            cert, F = out["cert"], out["cert"].cover.source
            jtr.count("census.projective", int(cert.projective))
            jtr.count("census.distributive", int(bool(out["dist"] and out["dist"].distributive)))
            jtr.count("census.quotient_elements", out["q"].size)
            jtr.count("homs.check_hom.pairs",
                      F.size * F.size + (F.size if F.flavor is Flavor.FINF else 0))
            outcome = census.outcome(inp, out)
        else:
            errs = census.check_matrix(inp, out)
            outcome = census.outcome(inp, out)
    except Exception as exc:  # a check that crashes is a failed check
        errs, outcome = [f"check raised {type(exc).__name__}: {exc}"], None
    return seconds, speed, outcome, errs, (jtr if tr.enabled else None)


def _census_pass(work: list, tr, deadline: float | None) -> dict:
    """One pass over the census jobs; an untraced pass may stop at the deadline."""
    p0 = time.perf_counter()
    jobs, outcomes, bad = {}, {}, []
    tracers: list[Tracer] = []
    for name, inp, inconclusive in work:
        seconds, speed, outcomes[name], errs, jtr = _census_job(inp, inconclusive, tr)
        jobs[name] = [seconds, speed]
        bad += [f"{name}: {e}" for e in errs]
        if jtr is not None:
            tracers.append(jtr)
        if deadline is not None and time.monotonic() >= deadline:
            break
    res = {"jobs": jobs, "outcomes": outcomes, "failed": bad, "traced": tr.enabled,
           "speed_s": PROBE.loop_time(p0, time.perf_counter())}
    if tr.enabled:
        layers: dict = {}
        counts: Counter = Counter()
        for job, t in enumerate(tracers):
            for sp in t.spans:
                sp[4] = job
            own, calls = self_times(t.spans)
            for k, v in own.items():
                cur = layers.setdefault(k, [0.0, 0])
                cur[0] += v
                cur[1] += calls[k]
            counts.update(t.counts)
        res.update(layers=layers, counts=dict(counts),
                   spans=[sp for t in tracers for sp in t.spans])
    return res


def run_census(spec: dict) -> dict:
    gen_s = []
    inputs = None
    p0 = time.perf_counter()
    for _ in range(3):
        t0 = PROBE.clock()
        again = census.generate(spec["seed"])
        gen_s.append(PROBE.clock() - t0)
        if inputs is not None and again != inputs:
            raise AssertionError("census inputs differ for one seed")
        inputs = again
    gen_speed = PROBE.loop_time(p0, time.perf_counter())
    work = [(inp.name, inp, False) for inp in inputs]
    work += [(f"{inp.name} budget-{census.INCONCLUSIVE_BUDGET}", inp, True)
             for inp in census.inconclusive_inputs(inputs)]
    deadline = time.monotonic() + spec["seconds"]
    # The first pass fills the process caches; it is checked but not timed.
    # Then whole passes, until the deadline; untraced runs may end mid-pass.
    passes = [_census_pass(work, NullTracer(), None)]
    traced = False
    while time.monotonic() < deadline or len(passes) < (3 if spec["trace"] else 2):
        traced = spec["trace"] and not traced
        stop = None if spec["trace"] or len(passes) < 2 else deadline
        passes.append(_census_pass(work, Tracer() if traced else NullTracer(), stop))
    ref = passes[0]["outcomes"]
    for p in passes[1:]:
        diff = [k for k in p["outcomes"] if p["outcomes"][k] != ref[k]]
        if diff:
            kind = "traced" if p["traced"] else "untraced"
            p["failed"].append(f"{kind} outcomes differ: {diff[:5]}")
    spans = [p.pop("spans") for p in passes if "spans" in p]
    for p in passes:
        del p["outcomes"]
    batches = {name: "inconclusive" if inconclusive else inp.batch
               for name, inp, inconclusive in work}
    return {"gen_s": statistics.median(gen_s), "gen_speed_s": gen_speed,
            "objects": len(work),
            "batches": batches, "passes": passes[1:], "warmup_failed": passes[0]["failed"],
            "spans": spans[-1] if spans else []}


def main() -> None:
    spec = json.loads(sys.argv[1])
    try:
        if spec["kind"] == "probe":
            res = {}
        elif spec["kind"] == "census":
            res = run_census(spec)
        else:
            res = run_job(spec)
        res.update(setup_s=SETUP_S, setup_speed_s=PROBE.loop_time(START, READY))
    finally:
        PROBE.stop()
    sys.stdout.write(json.dumps(res) + "\n")


if __name__ == "__main__":
    main()
