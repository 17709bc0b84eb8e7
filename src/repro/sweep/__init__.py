"""One sweep harness: scenario x perturbation x oracle.

:mod:`repro.sweep.scenario` holds the seeded recipes (:class:`Scenario`,
:class:`ClusterScenario`), the :class:`Plan` that perturbs one run and
the :class:`PlanResult` it leaves; :mod:`repro.sweep.harness` holds the
sweep itself, the shrinker and the ``python -m repro.sweep`` CLI.  The
perturbation mechanisms stay where low-level code can import them
without cycles: fault sites and the injector in :mod:`repro.faultinject`,
schedule policies, the choice recorder and the full oracle in
:mod:`repro.schedsweep`.
"""

from repro.sweep.harness import (
    discover,
    enumerate_plans,
    failure_dump,
    main,
    run_plan,
    run_sweep,
    schedule_seed_for,
    shrink_failure,
)
from repro.sweep.scenario import (
    INDEX_NAME,
    ClusterScenario,
    Plan,
    Scenario,
    SchedulePlan,
    start_build,
)

__all__ = [
    "ClusterScenario",
    "INDEX_NAME",
    "Plan",
    "Scenario",
    "SchedulePlan",
    "discover",
    "enumerate_plans",
    "failure_dump",
    "main",
    "run_plan",
    "run_sweep",
    "schedule_seed_for",
    "shrink_failure",
    "start_build",
]
