"""The paper's contribution: online index build (NSF and SF).

Public entry points:

* :class:`NSFIndexBuilder` -- algorithm NSF (section 2);
* :class:`SFIndexBuilder` -- algorithm SF (section 3);
* :class:`OfflineIndexBuilder` -- the quiesced baseline;
* :class:`RebuildIndexBuilder` -- drop + rebuild an existing index from
  its sealed sorted runs without rescanning the table (via
  :meth:`repro.system.System.rebuild_index`);
* :func:`resume_build` -- restart an interrupted build after recovery;
* :func:`cleanup_pseudo_deleted` -- background GC (section 2.2.4);
* :func:`cancel_build` -- drop an in-progress build (section 2.3.2).
"""

from importlib import import_module
from typing import Optional, TYPE_CHECKING

from repro.core.base import (
    BuilderBase,
    BuildOptions,
    IndexSpec,
    RESUMABLE_MODES,
    recovery_context,
)
from repro.core.cancel import cancel_build
from repro.core.cleanup import cleanup_pseudo_deleted
from repro.core.descriptor import IndexDescriptor, IndexState
from repro.core.maintenance import (
    BuildContext,
    IndexMaintenance,
    MULTI_MODE,
    NSF_MODE,
    OFFLINE_MODE,
    PSF_MODE,
    REBUILD_MODE,
    SF_LIKE_MODES,
    SF_MODE,
    install_maintenance,
)
from repro.core.nsf import NSFIndexBuilder
from repro.core.offline import OfflineIndexBuilder
from repro.core.sf import SFIndexBuilder

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

BUILDERS = {
    "nsf": NSFIndexBuilder,
    "sf": SFIndexBuilder,
    "offline": OfflineIndexBuilder,
}

#: mode -> (module, class) of the builders imported on first use:
#: ``repro.parallel`` / ``repro.multibuild`` import ``repro.core``, so
#: registering them in :data:`BUILDERS` at import time would make the
#: dependency circular
_LAZY_BUILDERS = {
    "psf": ("repro.parallel", "ParallelSFBuilder"),
    "multi": ("repro.multibuild", "MultiIndexBuilder"),
    "rebuild": ("repro.core.rebuild", "RebuildIndexBuilder"),
}


def get_builder(mode: str):
    """Builder class for ``mode``, including the lazily imported ones."""
    if mode in _LAZY_BUILDERS:
        module, name = _LAZY_BUILDERS[mode]
        return getattr(import_module(module), name)
    return BUILDERS[mode]


def build_pre_undo(system: "System", utility_state: dict) -> None:
    """Recovery hook reinstalling build context before the undo pass.

    Pass this as ``pre_undo`` to :func:`repro.recovery.restart.restart`
    whenever an index build might have been interrupted.  When the
    surviving checkpoint recorded several concurrent builds
    (``system.utility_states``, one entry per table), every one of them
    gets its context back -- Figure 2's visibility classification must
    hold for losers touching any of the tables.
    """
    states = list(getattr(system, "utility_states", {}).values()) \
        or [utility_state]
    for state in states:
        recovery_context(system, state)


def resume_build(system: "System", utility_state: dict
                 ) -> Optional[BuilderBase]:
    """Reconstruct the interrupted builder from a utility checkpoint.

    Returns None when no build was in progress (or it had finished).
    Spawn the returned builder's ``run()`` to continue the build.
    """
    mode = utility_state.get("builder")
    if mode not in RESUMABLE_MODES or utility_state.get("phase") == "done":
        return None
    return get_builder(mode).resume(system, utility_state)


def resume_builds(system: "System",
                  utility_state: Optional[dict] = None) -> list:
    """Resume every interrupted build the latest checkpoint recorded.

    Concurrent builds (one per table) each checkpoint their own payload;
    :func:`repro.recovery.restart.restart` collects the whole registry
    into ``system.utility_states``.  Returns the resumed builders in
    table-name order (spawn each one's ``run()``).  Falls back to the
    single ``utility_state`` for pre-registry checkpoints.
    """
    states = dict(getattr(system, "utility_states", {}) or {})
    if not states and utility_state:
        name = utility_state.get("table")
        if name:
            states[name] = utility_state
    builders = []
    for name in sorted(states):
        builder = resume_build(system, states[name])
        if builder is not None:
            builders.append(builder)
    return builders


__all__ = [
    "BUILDERS",
    "BuildContext",
    "BuildOptions",
    "BuilderBase",
    "IndexDescriptor",
    "IndexMaintenance",
    "IndexSpec",
    "IndexState",
    "MULTI_MODE",
    "NSFIndexBuilder",
    "NSF_MODE",
    "OFFLINE_MODE",
    "OfflineIndexBuilder",
    "PSF_MODE",
    "REBUILD_MODE",
    "RESUMABLE_MODES",
    "SFIndexBuilder",
    "SF_LIKE_MODES",
    "SF_MODE",
    "build_pre_undo",
    "get_builder",
    "cancel_build",
    "cleanup_pseudo_deleted",
    "install_maintenance",
    "resume_build",
    "resume_builds",
]
