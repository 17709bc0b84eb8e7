"""``python -m repro.bench`` entry point: the runner over the five suites."""

import sys

from repro.bench.paper import SUITE as PAPER
from repro.bench.perf import SUITE as PERF
from repro.bench.runner import main
from repro.cluster.bench import SUITE as CLUSTER
from repro.multibuild.bench import SUITE as MULTIBUILD
from repro.slo.tradeoff import SUITE as SLO

SUITES = (PERF, SLO, MULTIBUILD, CLUSTER, PAPER)

if __name__ == "__main__":
    sys.exit(main(SUITES))
