"""Per-layer attribution of one traced round.

The layers are the program's packages.  The trace is a ``cProfile`` run
started from the benchmark's own files around exactly the regions the
untraced rounds time; spans inside the program are a later change.
``cProfile`` charges every call but not the work inside C functions, so
it shifts proportions: these numbers say where to look, and the
end-to-end metrics (always from untraced rounds) say what it bought.
"""

from __future__ import annotations

import os

LAYERS = ("sim", "wal", "storage", "txn", "btree", "sort", "sidefile",
          "core", "query", "recovery", "metrics", "obs")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: calls into each layer's public functions: metric -> (file suffix,
#: qualified names).  A generator's cumulative time is the time spent
#: running inside it and its callees, not the time it sat suspended.
ENTRIES = {
    "entry.table_write_s": ("storage/table.py", (
        "Table.insert", "Table.update", "Table.delete")),
    "entry.table_read_s": ("storage/table.py", ("Table.read",)),
    "entry.lock_s": ("txn/locks.py", (
        "LockManager.lock", "LockManager.release_all")),
    "entry.wal_append_s": ("wal/manager.py", (
        "LogManager.append", "LogManager.flush")),
    "entry.buffer_fetch_s": ("storage/buffer.py", (
        "BufferPool.fetch", "BufferPool.fetch_sequential",
        "BufferPool.new_page", "BufferPool.ensure_page")),
    "entry.sort_push_s": ("sort/sorter.py", (
        "RunFormation.push", "RunFormation.drain", "RunFormation.finish")),
    "entry.sort_merge_s": ("sort/merge.py", (
        "RestartableMerger.pop", "RestartableMerger.pop_many",
        "RestartableMerger.run_to_completion")),
    "entry.bulk_load_s": ("btree/loader.py", (
        "BulkLoader.append", "BulkLoader.finish")),
    "entry.btree_txn_s": ("btree/tree.py", (
        "BTree.txn_insert_key", "BTree.txn_delete_key")),
    "entry.btree_ib_s": ("btree/tree.py", ("BTree.ib_insert_batch",)),
    "entry.btree_drain_s": ("btree/tree.py", (
        "BTree.sf_drain_apply_batch",)),
    "entry.sidefile_append_s": ("sidefile/sidefile.py", (
        "SideFile.append", "SideFile.append_sync",
        "SideFile.append_during_undo")),
    "entry.index_read_s": ("query/access.py", (
        "index_lookup", "index_range_scan")),
    "entry.restart_s": ("recovery/restart.py", ("restart",)),
    "entry.metrics_incr_s": ("metrics/registry.py", (
        "MetricsRegistry.incr",)),
}


def layer_of(filename: str) -> str:
    """The layer a source file belongs to: its ``repro`` package (files
    directly under ``repro/`` count as ``core``), ``bench`` for this
    directory, ``other`` for everything else (stdlib, other packages)."""
    path = filename.replace(os.sep, "/")
    if path.startswith(BENCH_DIR.replace(os.sep, "/") + "/"):
        return "bench"
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    parts = path[at + len(marker):].split("/")
    if len(parts) == 1:
        return "core"
    return parts[0] if parts[0] in LAYERS else "other"


def attribute(profiler) -> dict[str, float]:
    """``L.self_s`` / ``L.calls`` per layer, ``bench.self_s``,
    ``other.self_s`` and the ``entry.*_s`` cumulative times.

    Self time is the time inside a layer's own Python functions plus the
    C functions they call directly (a builtin has no file, so it is
    charged through its caller edge).
    """
    self_s = dict.fromkeys(LAYERS + ("bench", "other"), 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    wanted = {}
    for metric, (suffix, names) in ENTRIES.items():
        for name in names:
            wanted[(suffix, name)] = metric
    entry_s = dict.fromkeys(ENTRIES, 0.0)
    members: dict[str, set] = {metric: set() for metric in ENTRIES}

    stats = [entry for entry in profiler.getstats()
             if not isinstance(entry.code, str)]
    for entry in stats:
        code = entry.code
        path = code.co_filename.replace(os.sep, "/")
        for (suffix, name), metric in wanted.items():
            if code.co_qualname == name and path.endswith("/" + suffix):
                members[metric].add(code)
    for entry in stats:
        code = entry.code
        layer = layer_of(code.co_filename)
        own = entry.inlinetime
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                own += sub.inlinetime
        self_s[layer] += own
        if layer in calls:
            calls[layer] += entry.callcount
        for metric, codes in members.items():
            if code not in codes:
                continue
            # one group member calling another would count twice
            inner = sum(sub.totaltime for sub in entry.calls or ()
                        if sub.code in codes and sub.code is not code)
            entry_s[metric] += entry.totaltime - inner
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out["bench.self_s"] = self_s["bench"]
    out["other.self_s"] = self_s["other"]
    out.update(entry_s)
    return out
