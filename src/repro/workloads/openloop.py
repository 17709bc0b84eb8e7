"""Open-loop traffic generation on the simulated clock.

The closed-loop :class:`~repro.workloads.generator.WorkloadDriver`
workers wait for each transaction to finish before issuing the next, so
a slow system *slows the workload down* and latency degradation hides
inside reduced throughput (coordinated omission).  Production SLOs are
measured open-loop: arrivals are pre-scheduled by an external clock and
issued regardless of how many earlier operations are still in flight, so
a system slower than the arrival rate accumulates backlog and the
latency distribution shows it.

:func:`arrival_schedule` pre-computes the whole arrival process as a
pure function of ``(spec, seed)`` -- Poisson (exponential gaps at a
constant rate) or bursty (the instantaneous rate alternates between a
peak of ``rate * burst_factor`` for the first ``burst_fraction`` of each
``burst_period`` and a trough chosen to keep the long-run mean near
``rate``).  :class:`OpenLoopDriver` then replays that schedule: a
dispatcher process sleeps to each arrival instant and spawns a detached
per-operation process, tracking the in-flight count (the queue depth the
SLO analyzer reads back out of the trace).

Each operation is wrapped in a ``repro.obs`` ``op`` span from issue to
completion, so ``python -m repro.slo`` can derive p50/p95/p99 from the
trace JSONL; the same issue timestamp lands in ``op_timeline`` records
(:attr:`~repro.workloads.generator.OpRecord.issued`).

The mix adds two read operations to the writer mix: ``read`` (point read
of a live RID) and ``range`` (key-range scan that prefers the index
being built and falls back to a full table scan while the index is
unavailable -- the paper's availability story, observable as the
``openloop.range_via_index`` / ``..._via_scan`` counters).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.errors import RecordNotFoundError, TransactionAborted
from repro.query.access import (
    IndexNotAvailableError,
    index_range_scan,
    table_scan,
)
from repro.sim.kernel import Delay
from repro.workloads.generator import WorkloadDriver, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.table import Table
    from repro.system import System


@dataclass
class OpenLoopSpec:
    """Shape of one open-loop traffic run."""

    #: total operations issued (arrivals)
    operations: int = 200
    #: mean arrival rate, operations per simulated time unit
    rate: float = 1.0
    #: arrival process: "poisson" or "bursty"
    arrivals: str = "poisson"
    #: bursty: peak-rate multiplier during the burst window
    burst_factor: float = 4.0
    #: bursty: fraction of each period spent at the peak rate
    burst_fraction: float = 0.25
    #: bursty: burst cycle length in simulated time units
    burst_period: float = 50.0
    #: relative weights of the operation mix
    read_weight: float = 2.0
    range_weight: float = 0.5
    insert_weight: float = 1.0
    update_weight: float = 1.0
    delete_weight: float = 0.5
    #: range reads cover [low, low + range_span)
    range_span: int = 200
    #: weighted columns for range reads: ``((column, weight), ...)``.
    #: Each range read draws one column and scans it via the first index
    #: leading with that column (falling back to a table scan while it
    #: is unavailable) -- the multi-column query mix the index advisor
    #: (:mod:`repro.advisor`) derives its candidates from.  Empty keeps
    #: the single-column behaviour driven by ``index_name``.
    range_columns: tuple = ()
    #: key values are drawn from [0, key_space)
    key_space: int = 10_000
    #: "uniform", "skewed" (power-law squash), or "zipf" (rank-weighted)
    distribution: str = "uniform"
    #: zipf exponent (s > 0; larger = more skew toward low keys)
    zipf_s: float = 1.1
    #: fraction of write transactions deliberately rolled back
    rollback_fraction: float = 0.0
    #: fraction of updates that change the key columns
    key_change_fraction: float = 0.8


def _instant_rate(spec: OpenLoopSpec, t: float) -> float:
    """Instantaneous arrival rate at time ``t``."""
    if spec.arrivals == "poisson":
        return spec.rate
    if spec.arrivals != "bursty":
        raise ValueError(f"unknown arrival process {spec.arrivals!r}")
    phase = (t % spec.burst_period) / spec.burst_period
    if phase < spec.burst_fraction:
        return spec.rate * spec.burst_factor
    # Trough rate chosen so the cycle's mean stays near spec.rate
    # (floored: a burst_factor >= 1/burst_fraction would drive it to 0).
    trough = (1.0 - spec.burst_fraction * spec.burst_factor) \
        / (1.0 - spec.burst_fraction)
    return spec.rate * max(0.05, trough)


def arrival_schedule(spec: OpenLoopSpec, seed: int = 0) -> list[float]:
    """Absolute arrival offsets for the whole run.

    A pure function of ``(spec, seed)``: the schedule is fixed before
    the system runs, which is what makes the load *open*-loop -- and
    what makes replays deterministic regardless of how the system under
    test behaves.
    """
    if spec.rate <= 0:
        raise ValueError(f"rate must be positive, got {spec.rate!r}")
    rng = random.Random((seed << 4) ^ 0x0A1)
    times: list[float] = []
    t = 0.0
    for _ in range(spec.operations):
        t += rng.expovariate(_instant_rate(spec, t))
        times.append(t)
    return times


class ZipfSampler:
    """Bounded Zipf(s) sampling over ranks ``0..n-1`` (rank 0 hottest).

    Cumulative weights are precomputed once; each draw is one uniform
    variate plus a binary search, so sampling cost is independent of the
    skew and the key space.
    """

    def __init__(self, n: int, s: float) -> None:
        if n < 1:
            raise ValueError(f"need at least one rank, got {n}")
        if s <= 0:
            raise ValueError(f"zipf exponent must be positive, got {s}")
        self.n = n
        self.s = s
        cumulative: list[float] = []
        total = 0.0
        for rank in range(n):
            total += (rank + 1) ** -s
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: random.Random) -> int:
        # rng.random() < 1.0, but the product with _total can round up
        # to (or past) the last cumulative weight -- e.g. when _total's
        # binary representation rounds the final partial sum down --
        # and bisect_left then returns n, an out-of-range rank.  Clamp.
        index = bisect_left(self._cumulative, rng.random() * self._total)
        return index if index < self.n else self.n - 1


class OpenLoopDriver(WorkloadDriver):
    """Issues a pre-scheduled arrival stream against one table.

    Layered over :class:`WorkloadDriver`: write operations reuse its
    ``_one_transaction`` / RID-pool machinery verbatim (so audits and
    the serial reference replay keep working); this class adds the
    dispatcher, the read operations, Zipf key skew, and in-flight
    accounting.
    """

    def __init__(self, system: "System", table: "Table",
                 spec: Optional[OpenLoopSpec] = None, seed: int = 0,
                 index_name: Optional[str] = None) -> None:
        olspec = spec or OpenLoopSpec()
        base = WorkloadSpec(
            operations=olspec.operations, workers=1, think_time=0.0,
            insert_weight=olspec.insert_weight,
            delete_weight=olspec.delete_weight,
            update_weight=olspec.update_weight,
            rollback_fraction=olspec.rollback_fraction,
            key_space=olspec.key_space,
            distribution=("uniform" if olspec.distribution == "zipf"
                          else olspec.distribution),
            key_change_fraction=olspec.key_change_fraction)
        super().__init__(system, table, base, seed=seed)
        self.olspec = olspec
        self.index_name = index_name
        self._range_columns = list(olspec.range_columns)
        for name, _weight in self._range_columns:
            if name not in table.columns:
                raise ValueError(f"range column {name!r} not in table "
                                 f"{table.name!r} columns {table.columns}")
        self._zipf = ZipfSampler(olspec.key_space, olspec.zipf_s) \
            if olspec.distribution == "zipf" else None
        self.arrivals = arrival_schedule(olspec, seed)
        #: operations issued but not yet completed (open-loop backlog)
        self.inflight = 0
        self.inflight_high_water = 0

    # -- key skew ----------------------------------------------------------

    def _draw_key(self, rng) -> int:
        if self._zipf is not None:
            return self._zipf.sample(rng)
        return super()._draw_key(rng)

    # -- dispatch ----------------------------------------------------------

    def spawn(self):
        """Spawn the dispatcher process; returns it (join to wait for
        issuance to finish -- completions may still be in flight)."""
        self.started_at = self.system.sim.now
        return self.system.spawn(self.dispatcher(), name="openloop")

    def dispatcher(self):
        """Generator process: sleep to each arrival, fire-and-forget the
        operation.  Never waits on an operation -- that is the point."""
        rng = random.Random((self.seed << 8) ^ 0xD15)
        ops = ["read", "range", "insert", "delete", "update"]
        weights = [self.olspec.read_weight, self.olspec.range_weight,
                   self.olspec.insert_weight, self.olspec.delete_weight,
                   self.olspec.update_weight]
        for op_id, at in enumerate(self.arrivals):
            delay = self.started_at + at - self.system.sim.now
            if delay > 0:
                yield Delay(delay)
            op = rng.choices(ops, weights=weights)[0]
            # Independent per-op stream: the dispatcher's own rng stays
            # in lockstep with the arrival count no matter what each
            # operation consumes.
            op_rng = random.Random((self.seed << 16) ^ (op_id * 0x9E3779B1))
            self.inflight += 1
            if self.inflight > self.inflight_high_water:
                self.inflight_high_water = self.inflight
            self._gauge_inflight()
            self.system.spawn(self._op_body(op_id, op, op_rng),
                              name=f"ol-op-{op_id}")
        return len(self.arrivals)

    def _gauge_inflight(self) -> None:
        tracer = self.system.metrics.tracer
        if tracer is not None:
            tracer.gauge("openloop.inflight", self.inflight)

    def _op_body(self, op_id: int, op: str, rng):
        """One operation's process: span from issue to completion."""
        tracer = self.system.metrics.tracer
        span = tracer.begin_span("op", op=op, id=op_id) \
            if tracer is not None else None
        outcome = "error"
        try:
            if op in ("read", "range"):
                outcome = yield from self._read_op(op, rng)
            else:
                # _one_transaction stamps issued = sim.now, which still
                # equals the arrival instant: spawning costs no
                # simulated time.
                yield from self._one_transaction(rng, 0, op)
                outcome = self.op_timeline[-1].outcome
        finally:
            self.inflight -= 1
            self._gauge_inflight()
            if span is not None:
                tracer.end_span(span, outcome=outcome)

    # -- read operations ---------------------------------------------------

    def _read_op(self, op: str, rng):
        issued = self.system.sim.now
        txn = self.system.txns.begin(f"ol-{op}")
        try:
            if op == "read":
                rid = self._sample_rid(rng)
                if rid is not None:
                    try:
                        yield from self.table.read(txn, rid)
                    except RecordNotFoundError:
                        # A concurrent delete won the race after we
                        # sampled: an empty result, not an error.
                        pass
                else:
                    op = "noop"
            else:
                yield from self._range_read(txn, rng)
            yield from txn.commit()
            self._record(op, 0, "committed", issued=issued)
            return "committed"
        except TransactionAborted:
            yield from txn.rollback()
            self._record(op, 0, "aborted", issued=issued)
            return "aborted"

    def _range_read(self, txn, rng):
        """Key-range read: via the index when AVAILABLE, else the full
        scan the index exists to avoid (section 2.2.4's motivation).

        With ``spec.range_columns`` set, each read first draws the
        column it filters on; availability is probed per column, so the
        ``openloop.range_via_index.<column>`` counters show each index
        taking over its queries as it flips AVAILABLE mid-run.
        """
        low = self._draw_key(rng)
        high = low + self.olspec.range_span
        column: Optional[str] = None
        position = 0
        if self._range_columns:
            column = rng.choices(
                [name for name, _weight in self._range_columns],
                weights=[weight
                         for _name, weight in self._range_columns])[0]
            descriptor = self._index_leading_on(column)
            position = self.table.columns.index(column)
        else:
            descriptor = self.system.indexes.get(self.index_name) \
                if self.index_name is not None else None
        if descriptor is not None:
            try:
                # Index keys are column tuples (IndexDescriptor.key_of).
                results = yield from index_range_scan(
                    txn, descriptor, (low,), (high,))
                self.system.metrics.incr("openloop.range_via_index")
                if column is not None:
                    self.system.metrics.incr(
                        f"openloop.range_via_index.{column}")
                return results
            except IndexNotAvailableError:
                pass
        results = yield from table_scan(
            txn, self.table,
            predicate=lambda record: low <= record.values[position] < high)
        self.system.metrics.incr("openloop.range_via_scan")
        if column is not None:
            self.system.metrics.incr(f"openloop.range_via_scan.{column}")
        return results

    def _index_leading_on(self, column: str):
        """The first of the table's indexes whose leading key column is
        ``column`` (any state -- availability is probed by the scan
        attempt, exactly like the ``index_name`` path)."""
        for descriptor in self.table.indexes:
            key_columns = getattr(descriptor, "key_columns", ())
            if key_columns and key_columns[0] == column:
                return descriptor
        return None

    def _sample_rid(self, rng) -> Optional[int]:
        """A live committed RID to point-read (no claim: readers only
        take S locks, so sharing a victim with a writer is the conflict
        we *want* to measure)."""
        if not self.pool:
            return None
        return self.pool.choice(rng)
