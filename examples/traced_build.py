"""Traced build: watch an NSF build crash, recover, and resume.

This is the observability tour (see README "Observability"): an NSF
online index build runs under a live update workload with a
:class:`repro.obs.TraceRecorder` attached, the power fails in the middle
of the key-insertion phase, restart recovery carries the *same* trace
recorder over to the recovered system, and the resumed build finishes.
One trace therefore tells the whole story -- scan and insert spans cut
short by the crash, the restart instant, the checkpoint the resume read,
and the second build span picking up from the checkpointed key.

Run:  python examples/traced_build.py
      python examples/traced_build.py --trace-out build.jsonl
"""

import argparse

from repro import (
    BuildOptions,
    IndexSpec,
    NSFIndexBuilder,
    System,
    SystemConfig,
    WorkloadDriver,
    WorkloadSpec,
    audit_index,
    build_pre_undo,
    restart,
    resume_build,
    run_until_crash,
)
from repro.btree.node import entry_key
from repro.obs import enable_tracing, render_report

ROWS = 1_200
CRASH_AFTER = 260.0  # sim time after the build starts; lands mid-insert


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="also write the raw JSONL trace here")
    args = parser.parse_args(argv)

    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=32), seed=11)
    tracer = enable_tracing(system, sample_every=25.0)
    table = system.create_table("events", ["ts", "payload"])
    spec = WorkloadSpec(operations=60, workers=2, think_time=0.8,
                        rollback_fraction=0.15)
    driver = WorkloadDriver(system, table, spec, seed=11)
    preload = system.spawn(driver.preload(ROWS), name="preload")
    system.run()
    assert preload.error is None

    options = BuildOptions(checkpoint_every_pages=16,
                           checkpoint_every_keys=128,
                           commit_every_keys=64)
    builder = NSFIndexBuilder(system, table,
                              IndexSpec.of("events_by_ts", ["ts"]),
                              options=options)
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    print(f"NSF build of events_by_ts over {ROWS} rows, "
          f"crash in t+{CRASH_AFTER:.0f}")

    # -- pull the plug mid-build ------------------------------------------
    run_until_crash(system, system.now() + CRASH_AFTER)

    # -- restart recovery: the trace recorder rides along -----------------
    recovered, utility_state = restart(system, pre_undo=build_pre_undo)
    highest = utility_state["manifest"]["events_by_ts"].get("highest_key")
    print(f"crashed in phase {utility_state.get('phase')!r}; "
          f"checkpoint resumes from key "
          f"{entry_key(highest) if highest else '(phase start)'}")

    resumed = resume_build(recovered, utility_state)
    assert resumed is not None
    # Re-arm the gauge sampler on the recovered system (the recorder
    # itself was carried over by restart).
    enable_tracing(recovered, tracer, sample_every=25.0)
    proc = recovered.spawn(resumed.run(), name="resumed-builder")
    recovered.run()
    assert proc.error is None

    report = audit_index(recovered, recovered.indexes["events_by_ts"])
    print(f"resumed build finished and audited clean: "
          f"{report['entries']} entries, height {report['height']}\n")

    print(render_report(tracer.events))
    if args.trace_out:
        tracer.write_jsonl(args.trace_out)


if __name__ == "__main__":
    main()
