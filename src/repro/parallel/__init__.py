"""Partitioned parallel online index build (algorithm PSF).

SF's scan+sort phase, range-partitioned into P shards running as
concurrent kernel processes; see :mod:`repro.parallel.builder` for the
full phase walkthrough.  Import cycle note: :mod:`repro.core` must never
import this package at module level -- lookups go through
:func:`repro.core.get_builder` instead.
"""

from repro.parallel.builder import DEFAULT_PARTITIONS, ParallelSFBuilder
from repro.parallel.merge import sim_merge_pass, sim_merge_until

__all__ = [
    "DEFAULT_PARTITIONS",
    "ParallelSFBuilder",
    "sim_merge_pass",
    "sim_merge_until",
]
