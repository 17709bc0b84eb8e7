#!/usr/bin/env python3
"""The repository benchmark: online index build end to end and layer by
layer.  See README.md in this directory.

    python3 benchmarks/e2e/run.py --workload traffic_sf --seed 1 \\
        --seconds 30 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric)
by name and unit, then one JSON object as the last line.  Any failed
correctness or determinism gate exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

STARTED = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: the traced round's self times must explain this share of its CPU
MIN_ATTRIBUTED = 0.95
#: and the benchmark's own code may burn at most this share of it
MAX_HARNESS_SHARE = 0.10
#: a profiled round costs about this many plain rounds
TRACED_ROUND_COST = 4.5
PHASES = ("setup", "build", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2 000-row tables, two rounds (tests)")
    parser.add_argument("--noise-check", type=int, metavar="K",
                        help="run every workload K times in fresh "
                             "processes and compare alternating sets")
    parser.add_argument("--out", help="with --noise-check: also write "
                                      "the report to this file")
    return parser.parse_args(argv)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one run ---------------------------------------------------------------


def first_difference(a: dict, b: dict):
    for name in a:
        if a[name] != b.get(name):
            return name, a[name], b.get(name)
    return None


def run_rounds(workload, seed: int, budget: float, min_rounds: int,
               traced: bool):
    """Plain rounds until the next would overrun ``budget`` seconds of
    wall time, then (``traced``) one more under ``cProfile``.  Returns
    ``(plain rounds, traced round or None, profiler or None)``; raises
    ``BenchError`` when two rounds disagree on anything simulated."""
    from load import make_rows, make_schedule
    from rounds import BenchError, Round

    rows = make_rows(seed, workload.rows)
    ops = make_schedule(seed, workload.segments, 10 * workload.rows)
    rounds: list = []
    walls: list[float] = []

    def one_round(profiler=None):
        gc.collect()
        began = perf_counter()
        result = Round(workload, seed, rows, ops, profiler).run()
        walls.append(perf_counter() - began)
        for field in ("exact", "counters", "counts") if rounds else ():
            diff = first_difference(getattr(rounds[0], field),
                                    getattr(result, field))
            if diff is not None:
                raise BenchError(
                    "determinism: round %d disagrees with round 1 on "
                    "%s: %r != %r"
                    % (len(rounds) + 1, diff[0], diff[2], diff[1]))
        return result

    reserve = 1.0 + (TRACED_ROUND_COST if traced else 0.0)
    while True:
        rounds.append(one_round())
        if len(rounds) >= min_rounds and perf_counter() - STARTED \
                + reserve * statistics.median(walls) > budget:
            break
    if not traced:
        return rounds, None, None
    import cProfile
    profiler = cProfile.Profile()
    return rounds, one_round(profiler), profiler


def host_phases(rounds) -> dict:
    """Host seconds per phase: ``ss_min`` over the plain rounds, scaled
    by the run's calibration to the reference machine speed."""
    from timing import machine_factor, ss_min

    factor = machine_factor([chunk for result in rounds
                             for chunk in result.chunks_ms])
    return {name: factor * ss_min([result.slices[name]
                                   for result in rounds])
            for name in PHASES}


def end_to_end_values(rounds, phase) -> dict:
    counts = rounds[0].counts
    return dict(
        rounds[0].exact,
        setup_s=phase["setup"],
        build_keys_per_s=counts["keys"] / phase["build"],
        serve_ops_per_s=counts["serve_ops"] / phase["serve"],
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def per_layer_values(rounds, phase, traced, profiler,
                     guard_harness: bool) -> dict:
    from layers import attribute
    from rounds import BenchError
    from timing import machine_factor, machine_speed

    values = attribute(profiler)
    traced_cpu = traced.cpu()
    attributed = sum(value for name, value in values.items()
                     if name.endswith(".self_s"))
    if attributed < MIN_ATTRIBUTED * traced_cpu:
        raise BenchError(f"per-layer self times sum to {attributed:.3f} s "
                         f"of the traced round's {traced_cpu:.3f} s")
    if guard_harness \
            and values["bench.self_s"] > MAX_HARNESS_SHARE * traced_cpu:
        raise BenchError(f"the harness used {values['bench.self_s']:.3f} "
                         f"s of the traced round's {traced_cpu:.3f} s")
    chunks = [chunk for result in rounds for chunk in result.chunks_ms]
    floor = sum(phase.values()) / machine_factor(chunks)  # raw seconds
    values.update(rounds[0].counters)
    values.update({
        "bench.rounds": len(rounds),
        "bench.slices": rounds[0].counts["slices"],
        "bench.calib_ms": machine_speed(chunks),
        "bench.round_spread": statistics.median(
            result.cpu() for result in rounds) / floor,
        "bench.trace_overhead_ratio": traced_cpu / floor,
        "bench.generator_late_max":
            rounds[0].counts["generator_late_max"],
    })
    return values


def measure(args) -> int:
    from rounds import BenchError
    from timing import machine_speed
    from workloads import BY_NAME, smoke

    if args.workload not in BY_NAME:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(BY_NAME)}", file=sys.stderr)
        return 2
    workload = BY_NAME[args.workload]
    if args.smoke:
        workload = smoke(workload)
    contract = load_contract()
    budget = args.seconds if args.seconds is not None \
        else contract["run_seconds"]

    gc.disable()  # as timeit does; collected between rounds instead
    try:
        rounds, traced, profiler = run_rounds(
            workload, args.seed, budget,
            min_rounds=2 if args.smoke else 3, traced=bool(args.trace))
        phase = host_phases(rounds)
        if args.trace:
            # at 2 000 rows the per-operation bookkeeping weighs three
            # times what it does at the committed sizes
            values = per_layer_values(rounds, phase, traced, profiler,
                                      guard_harness=not args.smoke)
            wanted = contract["per_layer"]
        else:
            values = end_to_end_values(rounds, phase)
            wanted = contract["end_to_end"]
        if set(values) != {metric["name"] for metric in wanted}:
            raise BenchError(
                "BENCHMARK.json and the runner disagree on the metrics: "
                + ", ".join(sorted(set(values) ^ {
                    metric["name"] for metric in wanted})))
    except BenchError as error:
        print(f"FAILED {workload.name}: {error}", file=sys.stderr)
        return 1
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in wanted}

    counts = rounds[0].counts
    chunk = machine_speed([chunk for result in rounds
                           for chunk in result.chunks_ms])
    print(f"workload {workload.name}  seed {args.seed}  rounds "
          f"{len(rounds)}  slices/round {counts['slices']}  "
          f"host phases (calibrated ss_min) setup {phase['setup']:.3f} s  "
          f"build {phase['build']:.3f} s  serve {phase['serve']:.3f} s  "
          f"calibration chunk {chunk:.3f} ms")
    print(f"operations {counts['attempted']}  ok {counts['ok']}  "
          f"cut by crash {counts['cut']}  latency samples: build window "
          f"{counts['build_samples']}, serve window "
          f"{counts['serve_samples']}  keys {counts['keys']}")
    for name, body in metrics.items():
        print(f"  {name:32s} {body['value']:>16.6f} {body['unit']}")
    print(json.dumps({"correct": True, "attempted": counts["attempted"],
                      "failed": counts["aborted"], "metrics": metrics}))
    return 0


# -- noise check -------------------------------------------------------------


def noise_check(args) -> int:
    """Run the suite K times in fresh processes, each with another seed
    (as the driver does), and judge every workload x end-to-end metric:
    the medians of the two alternating sets must agree within the
    metric's bound, and so must the quartile spread of all K runs."""
    contract = load_contract()
    bounds = {metric["name"]: metric["bound"]
              for metric in contract["end_to_end"]}
    better = {metric["name"]: metric["better"]
              for metric in contract["end_to_end"]}
    names = [workload["name"] for workload in contract["workloads"]]
    seconds = args.seconds if args.seconds is not None \
        else contract["run_seconds"]
    values: dict = {name: {metric: [] for metric in bounds}
                    for name in names}
    for run in range(args.noise_check):
        for name in names:
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", name, "--seed", str(args.seed + run),
                       "--seconds", str(seconds), "--trace", "0"]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            for metric, body in result["metrics"].items():
                values[name][metric].append(body["value"])
            print(f"run {run + 1}/{args.noise_check} {name} done",
                  file=sys.stderr)
    report = {"runs": args.noise_check, "seconds": seconds,
              "first_seed": args.seed, "results": []}
    ok = True
    for name in names:
        for metric, bound in bounds.items():
            sample = values[name][metric]
            first = statistics.median(sample[0::2])
            second = statistics.median(sample[1::2])
            worse = (second - first) / first
            if better[metric] == "higher":
                worse = -worse
            quartiles = statistics.quantiles(sample, n=4)
            spread = (quartiles[2] - quartiles[0]) \
                / statistics.median(sample)
            passed = worse <= bound and (metric == "setup_s"
                                         or spread <= bound)
            ok = ok and passed
            report["results"].append({
                "workload": name, "metric": metric, "values": sample,
                "median_even_runs": first, "median_odd_runs": second,
                "second_worse_by": worse, "iqr_over_median": spread,
                "bound": bound, "ok": passed})
    report["ok"] = ok
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.noise_check:
        return noise_check(args)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"the program under test is not at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomisation moves dict/set layouts and with them CPU
        # time from one process to the next; pin it and start over.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)]
                  + (sys.argv[1:] if argv is None else list(argv)),
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
