"""Restartable sort phase: replacement selection with checkpoints.

Implements section 5.1.  Keys stream in from IB's data scan, a page's worth
at a time; *replacement selection* [Knut73] over a workspace of
``workspace_size`` keys emits sorted runs about twice that size.  The
paper's tournament tree picks the same keys as the ``heapq`` heap the
selection runs on (``tests/loser_tree.py`` is the reference tree).
Periodically the caller checkpoints:

    "While taking a checkpoint, we wait for the tournament tree to output
    all the keys that have so far been extracted.  We force to disk all
    those keys.  We checkpoint the information (file names, etc.) relating
    to the already output sorted streams and the position of the IB data
    scan up to which keys have already been extracted and sorted.  For the
    last sorted stream that was produced, we also record the value of the
    highest key that was output."

After a crash, :meth:`RunFormation.restore` replays the restart steps of
section 5.1: discard post-checkpoint streams, reposition the last stream to
its checkpointed end-of-file, and continue feeding the tournament from the
checkpointed scan position -- appending to the same stream when the new
keys are all higher than the checkpointed highest key, else opening a new
stream (the tournament's run-assignment rule gives exactly that behaviour).
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Any, Sequence

from repro.errors import SortRestartError
from repro.sort.runs import RunStore, SortRun


class RunFormation:
    """Replacement-selection run formation over a :class:`RunStore`.

    The workspace is a ``heapq`` heap of the keys of the run being
    emitted (run ``_emit_seq``) plus a plain list of the keys held back
    for the next run; when the heap runs dry the held keys become it.
    """

    def __init__(self, store: RunStore, workspace_size: int) -> None:
        if workspace_size < 1:
            raise SortRestartError("workspace must hold at least one key")
        self.store = store
        self.workspace_size = workspace_size
        #: keys of the run being emitted: a plain list while the
        #: workspace fills, a heap from the key that fills it
        self._current: list[Any] = []
        #: keys held back for the next run, in arrival order
        self._held: list[Any] = []
        #: sequence number of the run currently being emitted
        self._emit_seq = 0
        #: run objects by sequence number
        self._runs_by_seq: dict[int, SortRun] = {}
        self._run_order: list[SortRun] = []
        self.keys_pushed = 0
        self._finished = False

    # -- feeding ------------------------------------------------------------

    def push(self, key: Any) -> None:
        """Feed one key from the data scan."""
        self.push_many((key,))

    def push_many(self, keys: Sequence[Any]) -> None:
        """Feed a batch of keys in scan order."""
        if self._finished:
            raise SortRestartError("run formation already finished")
        self.keys_pushed += len(keys)
        current, held = self._current, self._held
        room = self.workspace_size - len(current) - len(held)
        if room:
            # (Re)filling: a key joins the run being emitted unless it
            # would break that run's sort order.
            run = self._runs_by_seq.get(self._emit_seq)
            highest = run.highest_key if run is not None else None
            for key in keys[:room]:
                if highest is None or key >= highest:
                    current.append(key)
                else:
                    held.append(key)
            if len(keys) < room:
                return
            heapify(current)
            keys = keys[room:]
        if not keys:
            return
        seq = self._emit_seq
        emitted: list[Any] = []
        for key in keys:
            if not current:
                # The run is complete: the held keys start the next one.
                if emitted:
                    self._emit(seq, emitted)
                    emitted = []
                current, held = held, []
                heapify(current)
                seq += 1
            smallest = current[0]
            emitted.append(smallest)
            if key >= smallest:
                heapreplace(current, key)
            else:
                heappop(current)
                held.append(key)
        self._current, self._held = current, held
        self._emit(seq, emitted)

    def _emit(self, seq: int, keys: list[Any]) -> None:
        run = self._runs_by_seq.get(seq)
        if run is None:
            run = self.store.new_run()
            self._runs_by_seq[seq] = run
            self._run_order.append(run)
            if seq > self._emit_seq:
                previous = self._runs_by_seq.get(self._emit_seq)
                if previous is not None:
                    previous.closed = True
                self._emit_seq = seq
        run.extend(keys)

    # -- draining (checkpoints and finish) --------------------------------------

    def drain(self) -> None:
        """Emit every key still in the workspace, preserving run
        assignment ("we wait for the tournament tree to output all the
        keys that have so far been extracted")."""
        current, held = self._current, self._held
        self._current, self._held = [], []
        seq = self._emit_seq
        if current:
            self._emit(seq, sorted(current))
        if held:
            self._emit(seq + 1, sorted(held))

    def checkpoint(self, scan_position: Any) -> dict:
        """Drain, force all runs, and return the restart manifest."""
        self.drain()
        for run in self._run_order:
            run.force()
        last = self._run_order[-1] if self._run_order else None
        manifest = {
            "phase": "sort",
            "scan_position": scan_position,
            "runs": [run.name for run in self._run_order],
            "run_lengths": {run.name: len(run) for run in self._run_order},
            "emit_seq": self._emit_seq,
            "last_run": last.name if last is not None else None,
            "last_highest_key": last.highest_key if last is not None else None,
        }
        return manifest

    def finish(self) -> list[SortRun]:
        """Drain, close and force every run; returns them in order."""
        self.drain()
        for run in self._run_order:
            run.closed = True
            run.force()
        self._finished = True
        return list(self._run_order)

    # -- restart (section 5.1) ------------------------------------------------------

    @classmethod
    def restore(cls, store: RunStore, manifest: dict,
                workspace_size: int,
                prune: bool = True) -> tuple["RunFormation", Any]:
        """Rebuild run formation from a checkpoint after a crash.

        Returns ``(sorter, scan_position)``: the caller repositions IB's
        data scan to ``scan_position`` and resumes pushing keys.

        ``prune=False`` skips discarding store runs outside the manifest:
        the parallel build keeps several shards' sorters on one shared
        store, so each shard restores with ``prune=False`` and the caller
        issues a single union ``keep_only`` across every shard's manifest.
        """
        if manifest.get("phase") != "sort":
            raise SortRestartError("manifest is not a sort-phase checkpoint")
        run_names = list(manifest["runs"])
        run_lengths = manifest["run_lengths"]
        for name in run_names:
            if name not in run_lengths:
                raise SortRestartError(
                    f"sort manifest records no length for run {name!r}")
        if run_names and len(run_names) - 1 > manifest["emit_seq"]:
            raise SortRestartError(
                f"sort manifest emit_seq {manifest['emit_seq']} cannot cover "
                f"{len(run_names)} runs")
        if run_names and manifest.get("last_run") != run_names[-1]:
            raise SortRestartError(
                f"sort manifest last_run {manifest.get('last_run')!r} is not "
                f"the newest run {run_names[-1]!r}")
        if prune:
            store.keep_only(run_names)
        for name, length in run_lengths.items():
            run = store.get(name)
            if length > len(run):
                raise SortRestartError(
                    f"run {name!r} holds {len(run)} keys but the manifest "
                    f"checkpointed {length}: stale manifest for a reused run")
            run.truncate(length)
        sorter = cls(store, workspace_size)
        sorter._emit_seq = manifest["emit_seq"]
        for seq_offset, name in enumerate(manifest["runs"]):
            run = store.get(name)
            run.closed = False
            # Sequence numbers are dense in emission order ending at
            # emit_seq; rebuild the mapping accordingly.
            seq = manifest["emit_seq"] - (len(manifest["runs"]) - 1
                                          - seq_offset)
            sorter._runs_by_seq[seq] = run
            sorter._run_order.append(run)
        for run in sorter._run_order[:-1]:
            run.closed = True
        return sorter, manifest["scan_position"]

