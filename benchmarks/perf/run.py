"""The repo benchmark: four workloads, two clocks, one traced run per layer.

One workload, as the driver runs it (last stdout line is the result JSON)::

    python3 benchmarks/perf/run.py --workload query_hot --seed 1 --seconds 10 --trace 0

Everything, each workload alone in a fresh subprocess, one after the other::

    python3 benchmarks/perf/run.py [--seed S] [--seconds T] [--repeats N]
                                   [--trace] [--check-repeat] [--smoke]

See README.md in this directory for the metric and workload tables.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
SETUP_PASSES = 3


# -- one workload, in this process -------------------------------------------------


def _timed_repeats(run_repeat, seconds: float, at_least: int, give_up_at: float) -> list:
    """Repeat until ``seconds`` of wall are used up (and ``at_least`` done).

    On a host so slow that the run would not fit the driver's time cap
    (wall clock past ``give_up_at``), two repeats have to do."""
    repeats = []
    began = time.perf_counter()
    while True:
        gc.collect()
        repeats.append(run_repeat(len(repeats)))
        elapsed = time.perf_counter() - began
        # Stop when the next repeat would overshoot by more than half of itself.
        if len(repeats) >= at_least and elapsed + 0.5 * elapsed / len(repeats) >= seconds:
            return repeats
        if len(repeats) >= min(at_least, 2) and time.perf_counter() > give_up_at:
            return repeats


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool, smoke: bool, at_least: int) -> int:
    """Measure one workload here; prints the metrics, then the result line."""
    from hostclock import HostClock
    from report import TracedPass, end_to_end, ops_per_s, per_layer, spread_pct
    from tracer import Tracer, aggregate
    from workloads import WORKLOADS, kernel_events_per_s

    started = time.perf_counter()
    clock = HostClock(reps=1) if smoke else HostClock()  # the self-test wants speed, not steadiness
    workload = WORKLOADS[name](seed, smoke)
    attempted, failed, failures = 0, 0, []

    # Set-up, several times over so that its time is a median too.
    setups = []
    for _ in range(1 if (smoke or trace) else SETUP_PASSES):
        state = None
        gc.collect()
        state = workload.setup(clock)
        setups.append(state.setup_s)
        if time.perf_counter() - started > 0.8 * seconds:
            break  # a slow host: one set-up pass has to do
    stages = ", ".join(f"{stage} {meter.calibrated_s:.3f}" for stage, meter in state.meters.items())
    print(f"[{name}] seed {seed}: set-up {statistics.median(setups):.3f} s calibrated (last pass: {stages})")
    checks, failed_checks = workload.check(state)
    attempted += checks
    failed += len(failed_checks)
    failures += failed_checks

    def one_repeat(index: int, tracer=None, plain: bool = False):
        nonlocal attempted, failed
        if plain:
            repeat = workload.repeat_plain(state, clock)
        else:
            workload.prepare(state)
            if tracer is not None:
                tracer.install()
            try:
                repeat = workload.repeat(state, clock, tracer)
            finally:
                if tracer is not None:
                    tracer.remove()
        if index == 0 and not plain and tracer is None:
            checks, failed_checks = workload.verify(state, repeat, clock)
            repeat.checks += checks
            repeat.check_failures += failed_checks
        attempted += repeat.checks + sum(run.ops for run in repeat.runs.values())
        failed += len(repeat.check_failures) + sum(run.failed for run in repeat.runs.values())
        failures.extend(repeat.check_failures)
        failures.extend(f"{kind}: {run.failed} of {run.ops} ops failed" for kind, run in repeat.runs.items() if run.failed)
        return repeat

    has_plain = trace and hasattr(workload, "repeat_plain")
    budget = seconds / ((3 if has_plain else 2) if trace else 1)
    give_up_at = started + 2.5 * seconds
    repeats = _timed_repeats(one_repeat, budget, min(at_least, 2) if trace else at_least, give_up_at)
    for kind in repeats[0].runs:
        rates = [ops_per_s(r.runs[kind]) for r in repeats]
        print(
            f"[{name}] {kind}: {repeats[0].runs[kind].ops} ops/repeat, {len(repeats)} repeats, ops/s "
            + " ".join(f"{rate:.1f}" for rate in rates)
            + f" (spread {spread_pct(rates):.1f}% of median)"
        )

    if not trace:
        metrics = end_to_end(setups, repeats)
        declared = spec["end_to_end"]
    else:
        plain = state.plain_repeats + _timed_repeats(lambda i: one_repeat(i, plain=True), budget, 1, give_up_at) if has_plain else []
        tracer = Tracer()
        gc.collect()
        traced = TracedPass(tracer, one_repeat(0, tracer=tracer), kernel_events_per_s(clock, smoke), plain)
        metrics, defects = per_layer(state, repeats, traced, attempted, failed)
        failed += len(defects)
        failures += defects
        declared = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
        with open(span_path, "w", encoding="utf-8") as f:
            json.dump(tracer.to_json(workload=name, seed=seed, clock="time.process_time seconds"), f)
        print(f"[{name}] {len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}; raw wall by span name:")
        by_name = aggregate(tracer.spans)
        root_s = by_name["bench.root"].busy_s
        for key, stats in sorted(by_name.items(), key=lambda item: -item[1].self_s):
            print(
                f"    {key:<32} calls {stats.calls:>6}  busy {stats.busy_s:7.3f} s ({stats.busy_s / root_s:5.1%})"
                f"  self {stats.self_s:7.3f} s ({stats.self_s / root_s:5.1%})"
            )

    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        failed += 1
        failures.append(f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(metrics))}")
    for m in declared:
        value = metrics.get(m["name"])
        shown = "null" if value is None else f"{value:.6g}"
        bound = f", bound {m['bound']:.0%}" if "bound" in m else ""
        print(f"  {m['name']:<44} {shown:>14} {m['unit']:<9} ({m['better']} is better{bound})")
    for failure in failures:
        print(f"[{name}] FAILED: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 1 if failed else 0


# -- every workload, each in its own subprocess ------------------------------------


def _child(name: str, args, trace: int) -> dict | None:
    """Run one workload alone in a fresh interpreter; None if it failed."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
    command += ["--seconds", str(args.seconds), "--repeats", str(args.repeats), "--trace", str(trace)]
    command += ["--smoke"] if args.smoke else []
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if done.returncode != 0 or not lines:
        print(f"[{name}] exited with code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_set(args, workloads: list[str]) -> tuple[dict, list[str]]:
    """All workloads once; ``{(workload, metric): value}`` and the failures."""
    from report import is_exact

    values, failures = {}, []
    for name in workloads:
        for trace in (0, 1) if args.trace else (0,):
            result = _child(name, args, trace)
            if result is None or not result["correct"]:
                failures.append(f"{name} (trace {trace}) failed")
            if result is not None:
                values.update({(name, metric): v["value"] for metric, v in result["metrics"].items()})
    # query_telemetry differs from query_hot by the obs layer alone, which
    # must not move a single simulated number.
    for (name, metric), value in values.items():
        if name == "query_telemetry" and is_exact(metric) and not metric.startswith("obs."):
            hot = values.get(("query_hot", metric), value)
            if hot != value:
                failures.append(f"query_telemetry {metric} = {value!r}, query_hot has {hot!r}")
    return values, failures


def compare_sets(first: dict, second: dict, spec: dict) -> list[str]:
    """--check-repeat: exact metrics identical, bounded host metrics within bound."""
    from report import is_exact

    problems = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for key in sorted(first):
        a, b = first[key], second.get(key)
        workload, metric = key
        line = f"  {workload:<16} {metric:<44} {a!r:>24} {b!r:>24}"
        if is_exact(metric):
            if a != b:
                problems.append(f"{workload} {metric}: {a!r} then {b!r} (must repeat exactly)")
                line += "  DIFFERS"
        elif metric in bounds and a and b is not None:
            worse = (b - a) / a * (1 if bounds[metric]["better"] == "lower" else -1)
            line += f"  {worse:+.1%}"
            if abs(worse) > bounds[metric]["bound"]:
                problems.append(f"{workload} {metric}: {a:.6g} then {b:.6g}, beyond {bounds[metric]['bound']:.0%}")
        print(line)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=1, help="every input is generated from it")
    parser.add_argument("--seconds", type=float, help="wall budget of the timed section (default: run_seconds)")
    parser.add_argument("--repeats", type=int, default=3, help="timed repeats at least (default 3)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--check-repeat", action="store_true", help="run the set twice and compare")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test; numbers are meaningless")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"{ROOT} holds no src/repro and BENCHMARK.json: nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    if args.smoke:
        args.seconds, args.repeats = 0.0, 1
    elif args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; BENCHMARK.json has {known}")

    if args.workload is not None and not args.check_repeat:
        return run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.repeats)

    workloads = [args.workload] if args.workload else known
    values, failures = run_set(args, workloads)
    if args.check_repeat:
        second, more = run_set(args, workloads)
        print("check-repeat: first and second set")
        failures += more + compare_sets(values, second, spec)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("benchmark:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
