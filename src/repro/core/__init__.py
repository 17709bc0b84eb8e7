"""The paper's contribution: online index build (NSF and SF).

Public entry points:

* :class:`NSFIndexBuilder` -- algorithm NSF (section 2);
* :class:`SFIndexBuilder` -- algorithm SF (section 3), and its named
  compositions :class:`ParallelSFBuilder` (sharded scan),
  :class:`MultiIndexBuilder` (section 6.2, per-index flips) and
  :class:`RebuildIndexBuilder` (sealed sorted runs instead of a scan,
  via :meth:`repro.system.System.rebuild_index`);
* :class:`OfflineIndexBuilder` -- the quiesced baseline;
* :func:`get_builder` -- the builder class of a mode name;
* :func:`resume_build` -- restart an interrupted build after recovery;
* :func:`cleanup_pseudo_deleted` -- background GC (section 2.2.4);
* :func:`cancel_build` -- drop an in-progress build (section 2.3.2).
"""

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
from repro.core.sf import (
    MultiIndexBuilder,
    ParallelSFBuilder,
    RebuildIndexBuilder,
    SFIndexBuilder,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

#: mode name -> builder.  The four side-file modes are one class and a
#: row of data each (key source x visiting order, :mod:`repro.core.sf`):
#: ``sf`` heap scan, all loads then all drains; ``psf`` the same with
#: ``partitions`` defaulting to 2; ``multi`` load -> drain -> flip per
#: index; ``rebuild`` sealed runs (obtained from
#: :meth:`repro.system.System.rebuild_index`).  ``BuildOptions.partitions``
#: shards the scan of any of the first three.
BUILDERS = {cls.mode: cls for cls in (
    NSFIndexBuilder, SFIndexBuilder, ParallelSFBuilder, MultiIndexBuilder,
    RebuildIndexBuilder, OfflineIndexBuilder)}


def get_builder(mode: str):
    """Builder class for ``mode``."""
    return BUILDERS[mode]


def build_pre_undo(system: "System", utility_state: dict) -> None:
    """Recovery hook reinstalling build context before the undo pass.

    Pass this as ``pre_undo`` to :func:`repro.recovery.restart.restart`
    whenever an index build might have been interrupted.  Every build in
    the checkpoint's registry (``system.utility_states``, one entry per
    table, ``utility_state``'s among them) gets its context back --
    Figure 2's visibility classification must hold for losers touching
    any of the tables.
    """
    for state in system.utility_states.values():
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


def resume_builds(system: "System") -> list:
    """Resume every interrupted build the latest checkpoint recorded.

    Concurrent builds (one per table) each checkpoint their own payload
    into the one registry that :func:`repro.recovery.restart.restart`
    reloads as ``system.utility_states``.  Returns the resumed builders
    in table-name order (spawn each one's ``run()``).
    """
    builders = []
    for name in sorted(system.utility_states):
        builder = resume_build(system, system.utility_states[name])
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
    "MultiIndexBuilder",
    "NSFIndexBuilder",
    "NSF_MODE",
    "OFFLINE_MODE",
    "OfflineIndexBuilder",
    "PSF_MODE",
    "ParallelSFBuilder",
    "REBUILD_MODE",
    "RESUMABLE_MODES",
    "RebuildIndexBuilder",
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
