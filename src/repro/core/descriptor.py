"""Index descriptors: the catalog entry for one index.

Creating the descriptor is the step that makes a new index *visible* to
update transactions (sections 2.2.1 and 3.2.1).  How and when it is created
differs per algorithm -- NSF quiesces updates around this step, SF does not
-- so the builders orchestrate that; this module only defines the catalog
object and the plumbing that attaches it to its table.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Optional, Sequence, TYPE_CHECKING

from repro.btree.tree import BTree
from repro.errors import StorageError
from repro.storage.page import Record

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.table import Table
    from repro.system import System


def key_extractor(column_indexes: Sequence[int]):
    """A callable taking a record's ``values`` tuple to its key value,
    the tuple of the indexed columns' values (section 1.1).  One column
    is cut out as a slice so that its key is still a 1-tuple."""
    if not column_indexes:
        raise StorageError("an index needs at least one key column")
    if len(column_indexes) == 1:
        (only,) = column_indexes
        return itemgetter(slice(only, only + 1))
    return itemgetter(*column_indexes)


class IndexState(enum.Enum):
    """Lifecycle of an index."""

    #: descriptor exists; transactions maintain it (per-algorithm rules)
    #: but readers may not use it as an access path yet (section 2.2.1)
    BUILDING = "building"
    #: fully built; available for reads and maintained directly
    AVAILABLE = "available"
    #: build was cancelled; descriptor pending removal
    CANCELLED = "cancelled"


class IndexDescriptor:
    """Catalog entry: key columns, uniqueness, the tree, and build state."""

    def __init__(self, system: "System", table: "Table", name: str,
                 key_columns: Sequence[str], unique: bool = False,
                 leaf_capacity: Optional[int] = None) -> None:
        if name in system.indexes:
            raise StorageError(f"index {name!r} already exists")
        self.system = system
        self.table = table
        self.name = name
        self.key_columns = tuple(key_columns)
        self.unique = unique
        self.column_indexes = table.column_indexes(self.key_columns)
        #: ``record.values`` -> key value, and one getter per key column
        #: that the build scans zip into entries (both in C)
        self.extract_key = key_extractor(self.column_indexes)
        self.column_getters = tuple(map(itemgetter, self.column_indexes))
        self.tree = BTree(system, name, table.name, unique=unique,
                          leaf_capacity=leaf_capacity)
        self.state = IndexState.BUILDING

    def key_of(self, record: Record) -> tuple:
        """The record's key value: concatenated key-column values
        (section 1.1)."""
        return self.extract_key(record.values)

    def attach(self) -> None:
        """Register in the catalog and append to the table's index list.

        Section 3.1 footnote 6: the per-table index list only grows while
        update transactions are active, so the count comparison of
        Figure 2 is meaningful.
        """
        self.system.indexes[self.name] = self
        self.table.indexes.append(self)
        self.system.metrics.incr("catalog.index_descriptors")

    def detach(self) -> None:
        """Remove from the catalog (index cancel/drop)."""
        self.system.indexes.pop(self.name, None)
        if self in self.table.indexes:
            self.table.indexes.remove(self)

    @property
    def is_available(self) -> bool:
        return self.state is IndexState.AVAILABLE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        uniq = "unique " if self.unique else ""
        return (f"<{uniq}Index {self.name} on {self.table.name}"
                f"({', '.join(self.key_columns)}) {self.state.value}>")
