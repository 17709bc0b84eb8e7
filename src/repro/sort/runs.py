"""Sorted runs (streams) with stable/volatile crash semantics.

Section 5 checkpoints "the sorted streams" by forcing their keys to disk.
A :class:`SortRun` therefore keeps an explicit *stable length*: keys past
it are lost by a crash (:meth:`crash` truncates to the stable prefix),
exactly modelling an ordinary sequential file whose tail was still in OS
buffers.  :class:`RunStore` groups the runs of one sort and gives each a
"file name" so checkpoint records can reference them the way the paper's
do ("we checkpoint the information (file names, etc.) relating to the
already output sorted streams").
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import SortRestartError


def run_sequence(name: str) -> int:
    """Creation sequence number of a run name (``"sort:idx-10"`` -> 10).

    :meth:`RunStore.new_run` names runs ``f"{prefix}-{counter}"``, so the
    numeric suffix is the creation order.  Resuming builders must feed the
    final merge in this order; sorting the *names* lexicographically puts
    ``...-10`` before ``...-2`` once a build produces ten or more runs.
    """
    return int(name.rsplit("-", 1)[-1])


class SortRun:
    """One sorted stream of keys."""

    __slots__ = ("name", "keys", "stable_length", "closed", "ever_forced")

    def __init__(self, name: str) -> None:
        self.name = name
        self.keys: list[Any] = []
        #: keys[:stable_length] survive a crash
        self.stable_length = 0
        self.closed = False
        #: an empty-but-forced run still "exists" on disk after a crash
        self.ever_forced = False

    def append(self, key: Any) -> None:
        self.extend((key,))

    def extend(self, keys: Sequence[Any]) -> None:
        """Append a batch: the run must be open and the batch must
        continue its sort order, checked once for the whole batch."""
        if self.closed:
            raise SortRestartError(f"run {self.name} is closed")
        own = self.keys
        # In order exactly when it equals its stable sort (one C pass).
        batch = [*own[-1:], *keys]
        if batch == sorted(batch):
            own.extend(keys)
            return
        # Keep the keys ahead of the offender, as key-at-a-time appends
        # did, and name it.
        for key in keys:
            if own and key < own[-1]:
                raise SortRestartError(
                    f"run {self.name}: key {key!r} breaks sort order "
                    f"after {own[-1]!r}")
            own.append(key)

    def force(self) -> None:
        """Make everything appended so far crash-survivable."""
        self.stable_length = len(self.keys)
        self.ever_forced = True

    def truncate(self, length: int) -> None:
        """Drop keys beyond ``length`` (merge-phase output rewind)."""
        if length > len(self.keys):
            raise SortRestartError(
                f"run {self.name}: cannot truncate to {length}, only "
                f"{len(self.keys)} keys exist")
        del self.keys[length:]
        self.stable_length = min(self.stable_length, length)

    def crash(self) -> None:
        del self.keys[self.stable_length:]

    @property
    def highest_key(self) -> Optional[Any]:
        return self.keys[-1] if self.keys else None

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SortRun {self.name} n={len(self.keys)} "
                f"stable={self.stable_length}>")


class RunStore:
    """All runs belonging to one (possibly multi-pass) sort."""

    def __init__(self, prefix: str = "run") -> None:
        self.prefix = prefix
        self.runs: dict[str, SortRun] = {}
        self._counter = 0

    def new_run(self) -> SortRun:
        self._counter += 1
        run = SortRun(f"{self.prefix}-{self._counter}")
        self.runs[run.name] = run
        return run

    def get(self, name: str) -> SortRun:
        try:
            return self.runs[name]
        except KeyError:
            raise SortRestartError(f"unknown run {name!r}") from None

    def discard(self, name: str) -> None:
        self.runs.pop(name, None)

    def crash(self) -> None:
        """Apply crash semantics to every run; drop fully volatile runs."""
        doomed = []
        for name, run in self.runs.items():
            run.crash()
            if not run.ever_forced and run.stable_length == 0 \
                    and not run.keys:
                doomed.append(name)
        for name in doomed:
            del self.runs[name]

    def keep_only(self, names: list[str]) -> None:
        """Discard runs not listed (restart: "discard any output sorted
        streams that did not exist as of the last checkpoint")."""
        for name in list(self.runs):
            if name not in names:
                del self.runs[name]

    def total_keys(self) -> int:
        return sum(len(run) for run in self.runs.values())
