"""Benchmark of hav: `hav check` end to end, and the time and size of each layer.

One closed-loop client (one process, one thread) runs a workload's cases
back to back, each case after the previous one finishes, in whole passes
over the case list that take about `--seconds` seconds in all. Every output
is checked against an answer that does not come from the code it checks
(see oracles.py).

    python3 bench/run.py --workload check-net --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --baseline

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run instead. `--baseline` regenerates the Baseline rows of ROADMAP.md.
The program is imported from the `src/` directory next to this one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: a case that takes longer than this counts as failed and undecided
CASE_LIMIT_S = 60.0
#: set-up runs this many times per run; set-up time is the median
SETUP_REPEATS = 5
#: the gated metrics of BENCHMARK.json; the case times are only printed,
#: because a median of a few mixed cases jumps between cases from run to run
END_TO_END_UNITS = {"setup_s": "s", "cases_per_s": "1/s", "peak_rss_mb": "MB"}
TIME_UNITS = {"setup_s": "s", "cases_per_s": "1/s", "case_p50_s": "s", "case_p90_s": "s"}
#: seconds the reference task takes at the speed the end-to-end times are
#: scaled to (about its median on a 2-core x86-64 VM with Python 3.11)
REFERENCE_S = 0.017
#: the reference task runs before each case, and at least this many times
#: per pass, so short case lists still give a steady median
REFERENCES_PER_PASS = 20


def import_hav() -> None:
    """Import hav from ROOT/src, and only from there."""
    if not (SRC / "hav" / "__init__.py").is_file():
        sys.exit(f"bench: no hav sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import hav
    if Path(hav.__file__).resolve().parent != (SRC / "hav").resolve():
        sys.exit(f"bench: imported hav from {hav.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that only imports hav."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import hav"
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True,
                       timeout=120)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def reference_task() -> float:
    """Wall time of a fixed pure-Python task that allocates like hav does.

    The speed of a shared machine drifts by tens of percent over tens of
    seconds, and the drift outlasts a run. The end-to-end times are scaled
    by REFERENCE_S over this task's median time in the same phase of the
    run (set-up or cases), which takes most of that drift out. The raw
    wall times are printed next to them.
    """
    started = time.perf_counter()
    counts: dict = {}
    for i in range(20000):
        key = (i % 211, frozenset((i % 7, i % 11, i % 13)))
        counts[key] = counts.get(key, 0) + 1
    sum((Fraction(i % 13, 1 + i % 5) for i in range(800)), Fraction(0))
    return time.perf_counter() - started


class Tally:
    """Per-sample outcomes of one run."""

    def __init__(self):
        self.references: list[float] = []
        self.seconds: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.known_defects = 0
        self.undecided = 0
        self.violated = 0
        self.concrete = 0
        self.first_stdout: dict = {}

    def record(self, case, elapsed: float, output, error) -> None:
        self.seconds.append(elapsed)
        if error is not None:
            self.undecided += 1
            self.failures.append((case.ident, error))
            return
        if elapsed > CASE_LIMIT_S:
            self.undecided += 1
            self.failures.append((case.ident, f"took {elapsed:.1f} s"))
            return
        if case.cli:
            stdout = self.first_stdout.setdefault(case.ident, output[1])
            if stdout != output[1]:
                self.failures.append((case.ident, "stdout differs on repeat"))
                return
        try:
            check = case.verify(output)
        except Exception:
            self.failures.append((case.ident, "check raised " + traceback.format_exc()))
            return
        self.violated += check.violated
        self.concrete += check.concrete
        if check.failure:
            self.failures.append((case.ident, check.failure))
            self.known_defects += check.known_defect


def run_passes(cases, seconds: float, trace: bool, tracer, tally: Tally) -> list:
    """Whole passes over the case list, as many as fill `seconds` best.

    The run stops once the next pass would end further past `seconds` than
    stopping now falls short of it. Every case runs at least twice, so each
    output can be compared with its repeat: in two passes, or in one pass
    of a traced run, which runs each case untraced and then traced, back to
    back. Returns the [untraced, traced] case time of each pass.
    """
    min_passes = 1 if trace else 2
    references = max(1, REFERENCES_PER_PASS // len(cases))
    walls = []
    while True:
        wall = [0.0, 0.0]
        for case in cases:
            for traced in (False, True) if trace else (False,):
                wall[traced] += run_case(case, traced, tracer, tally, references)
        walls.append(wall)
        measured = sum(map(sum, walls))
        if len(walls) >= min_passes and measured + measured / len(walls) / 2 >= seconds:
            return walls


def run_case(case, traced: bool, tracer, tally: Tally, references: int) -> float:
    """Run one case after the reference task; only the case is timed."""
    gc.collect()
    tally.references.extend(reference_task() for _ in range(references))
    if traced:
        tracer.install()
    tracer.active, tracer.case = traced, case.ident
    error = output = None
    started = time.perf_counter()
    try:
        output = case.run()
    except Exception:
        error = traceback.format_exc()
    elapsed = time.perf_counter() - started
    tracer.active = False
    tracer.uninstall()
    tracer.flush()
    tally.record(case, elapsed, output, error)
    return elapsed


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    setup = WORKLOADS[workload]
    tracer = Tracer()
    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        if trace:
            tracer.install()
            tracer.active, tracer.case = True, "setup"
            cases = setup(random.Random(seed), ROOT, workdir, tracer)
            tracer.active = False
            tracer.uninstall()
            tracer.flush()
            setup_totals = tracer.totals()
            tracer.reset()
        else:
            setup_references = [reference_task()]
            imported = import_seconds()
            times = []
            for _ in range(SETUP_REPEATS):
                gc.collect()
                setup_references.append(reference_task())
                started = time.perf_counter()
                cases = setup(random.Random(seed), ROOT, workdir, tracer)
                times.append(time.perf_counter() - started)
            setup_s = imported + statistics.median(times)
        walls = run_passes(cases, seconds, trace, tracer, tally)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(tally.seconds)
    failed = len(tally.failures)
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(walls), "distinct_cases": len(cases),
        "failed_share": failed / attempted,
        "known_defect_failures": tally.known_defects,
        "decided_share": (attempted - tally.undecided) / attempted,
    }
    if tally.violated:
        summary["concrete_share"] = tally.concrete / tally.violated
    if trace:
        overhead = sum(traced - untraced for untraced, traced in walls) / len(walls)
        metrics = layer_metrics(setup_totals, tracer.totals(), len(walls), overhead)
    else:
        case_scale = REFERENCE_S / statistics.median(tally.references)
        wall = {"setup_s": setup_s, "cases_per_s": attempted / sum(tally.seconds),
                "case_p50_s": statistics.median(tally.seconds)}
        scaled = {"setup_s": setup_s * REFERENCE_S / statistics.median(setup_references),
                  "cases_per_s": wall["cases_per_s"] / case_scale,
                  "case_p50_s": wall["case_p50_s"] * case_scale}
        if attempted >= 100:
            wall["case_p90_s"] = statistics.quantiles(tally.seconds, n=10)[8]
            scaled["case_p90_s"] = wall["case_p90_s"] * case_scale
        summary["times"] = {name: (scaled[name], wall[name]) for name in scaled}
        scaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": scaled[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for ident, reason in tally.failures[:5]:
        print(f"bench: {ident} failed: {reason.strip()}", file=sys.stderr)
    return {
        "summary": summary,
        "result": {
            "correct": failed == tally.known_defects,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def print_report(report: dict) -> None:
    summary, result = report["summary"], report["result"]
    print(f"workload {summary['workload']}  seed {summary['seed']}  trace {summary['trace']}  "
          f"passes {summary['passes']}  distinct cases {summary['distinct_cases']}")
    times = summary.get("times", {})
    for name, (value, wall) in times.items():
        unit = TIME_UNITS[name]
        print(f"  {name:32s} {value:.6g} {unit}   (wall {wall:.6g} {unit})")
    for name, metric in result["metrics"].items():
        if name not in times:
            print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'cases':32s} {result['attempted']} count")
    print(f"  {'failed_share':32s} {summary['failed_share']:.6g} share "
          f"({result['failed']} failed, {summary['known_defect_failures']} from the "
          f"known Minsky drifted-zero defect)")
    print(f"  {'decided_share':32s} {summary['decided_share']:.6g} share")
    if "concrete_share" in summary:
        print(f"  {'concrete_share':32s} {summary['concrete_share']:.6g} share")
    print(json.dumps(result))


# ------------------------------------------------------------------ baseline

def baseline() -> None:
    """Regenerate the Baseline rows of ROADMAP.md and name the machine."""
    import hav.compose
    import hav.regions
    import hav.textfmt
    from hav.buchi import translate_to_buchi

    import generators as gen

    def timed(fn):
        started = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - started

    rows = []
    login = hav.textfmt.parse_model((ROOT / "models" / "login.hav").read_text()).automata[0]
    for k in (60, 120, 240):
        rg, seconds = timed(lambda: hav.regions.region_graph(login, k=k))
        rows.append((f"region graph, login, K={k}", rg.kripke.state_count,
                     len(rg.kripke.transitions), seconds))
    doc = hav.textfmt.parse_model(gen.login_network(["_a", "_b"], 10, 2))
    pair = hav.compose.product(doc.network("all"))
    rg, seconds = timed(lambda: hav.regions.region_graph(pair))
    rows.append(("region graph, 2 renamed login copies, constants 60→10, 10→2",
                 rg.kripke.state_count, len(rg.kripke.transitions), seconds))
    phi = hav.textfmt.parse_ltl(" && ".join(f"G F p{i}" for i in range(6)))
    automaton, seconds = timed(lambda: translate_to_buchi(phi))
    rows.append(("tableau for GF p0 && … && GF p5 (positive form)",
                 len(automaton.states), len(automaton.transitions), seconds))

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}
    print(f"machine: {machine['nproc']} cores, Python {machine['python']}, {cpu}")
    print("| workload | states | transitions | time |")
    print("| --- | ---: | ---: | ---: |")
    for name, states, transitions, seconds in rows:
        print(f"| {name} | {states:,} | {transitions:,} | {seconds:.2f} s |")
    print(json.dumps({"machine": machine, "rows": [
        {"workload": n, "states": s, "transitions": t, "seconds": sec}
        for n, s, t, sec in rows]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["check-net", "check-fair", "fm-paths",
                                               "regions-full"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="print the ROADMAP Baseline rows instead of running a workload")
    args = parser.parse_args(argv)
    if not args.baseline and args.workload is None:
        parser.error("pass --workload or --baseline")
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_hav()
    if args.baseline:
        baseline()
    else:
        print_report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
