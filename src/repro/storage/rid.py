"""Record and page identifiers.

The paper's index entries are ``<key value, RID>`` where the RID is the
record ID of the record containing that key value (section 1.1).  A RID is
``(page number, slot)`` within the table's data file, packed into one int:
``page_no << SLOT_BITS | slot``.  Slots stay below ``1 << SLOT_BITS`` (a
larger ``page_capacity`` is a config error), so the int orders exactly as
the pair does -- by page, then slot, the order IB's sequential scan visits
records, which is what makes SF's ``Target-RID < Current-RID`` visibility
test meaningful (section 3.1).  :func:`format_rid` prints it as the pair.
"""

from __future__ import annotations

from typing import NamedTuple

#: low bits of a RID holding the slot
SLOT_BITS = 12
SLOT_MASK = (1 << SLOT_BITS) - 1


def RID(page_no: int, slot: int) -> int:
    """The RID of ``slot`` on data page ``page_no``."""
    return page_no << SLOT_BITS | slot


def rid_page(rid: int) -> int:
    """The data page number of ``rid``."""
    return rid >> SLOT_BITS


def rid_slot(rid: int) -> int:
    """The slot of ``rid`` within its page."""
    return rid & SLOT_MASK


def format_rid(rid: int) -> str:
    """``rid`` as ``(page,slot)``, the form every message and report
    prints."""
    return f"({rid >> SLOT_BITS},{rid & SLOT_MASK})"


class PageId(NamedTuple):
    """Globally unique page address: owning file name plus page number."""

    file: str
    page_no: int

    def __str__(self) -> str:
        return f"{self.file}:{self.page_no}"


#: Sentinel scan position meaning "IB has finished the data scan".
#: Section 3.2.2: "When IB finishes processing the last data page, it sets
#: Current-RID to infinity", so later file extensions still go to the
#: side-file.
INFINITY_RID = RID(2**62, 0)
