"""Simulated replication cluster: WAL shipping, routing, divergence.

See :mod:`repro.cluster.cluster` for the architecture overview.  The
public surface:

* :class:`Cluster`, :class:`ClusterNode`, :class:`NetworkLink` -- the
  fleet itself;
* :class:`Subscription` -- per-replica ship+apply loop;
* :class:`Router` -- staleness- and index-aware read routing;
* :class:`ClusterOpenLoopDriver` -- routed open-loop traffic;
* :func:`check_cluster` -- the cross-replica consistency oracle;
* :func:`plan_divergent_indexes` -- per-replica advisor slices;
* ``python -m repro.sweep crash --builder cluster`` /
  ``python -m repro.bench cluster`` -- the fault sweep and the
  end-to-end demo (:mod:`repro.cluster.bench`).
"""

from repro.cluster.cluster import Cluster, plan_divergent_indexes
from repro.cluster.node import ClusterNode, NetworkLink
from repro.cluster.oracle import check_cluster, heap_state, physical_fold
from repro.cluster.router import Router
from repro.cluster.ship import Subscription
from repro.cluster.traffic import ClusterOpenLoopDriver

__all__ = [
    "Cluster",
    "ClusterNode",
    "ClusterOpenLoopDriver",
    "NetworkLink",
    "Router",
    "Subscription",
    "check_cluster",
    "heap_state",
    "physical_fold",
    "plan_divergent_indexes",
]
