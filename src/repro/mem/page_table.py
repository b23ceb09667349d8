"""Per-node page tables: how each global page is mapped on a node.

Each node's operating system maps shared pages on demand (the "soft page
fault" path of Figure 2b in the paper).  A page may be mapped on a node in
one of several modes, and the protocol implementations drive all of their
decisions off this mode:

``LOCAL_HOME``
    The page's home is this node; accesses are local memory accesses.
``CCNUMA_REMOTE``
    The page is remote and cached at block granularity through the node's
    block cache (base CC-NUMA behaviour).
``SCOMA``
    The page has been relocated by R-NUMA into this node's S-COMA page
    cache; block fills are satisfied locally once fetched.
``REPLICA``
    The node holds a read-only replica installed by page replication;
    reads are local, writes raise a protection fault.
``UNMAPPED``
    The node has never touched the page.

The page table also tracks the per-node access protection used by page
replication, and a few counters the kernels/protocols consult.

Storage layout
--------------
Mapping state lives in flat parallel arrays indexed by global page id: a
mode-code bytearray (see :data:`MODE_CODES`), a writable bytearray,
buffer-backed fault and remap counts (``array("q")`` so the compiled
kernel can view and bump them), plus a ``tracked`` byte
distinguishing "never touched" from "touched and currently unmapped".  :class:`PageMode` enum
objects are materialized only at the API boundary (``mode_of`` and the
:class:`PageTableEntry` view); the hot paths in the protocol layer and the
batched engine read the mode-code bytearray directly.  Arrays grow lazily
and in place, so pre-bound aliases stay valid.
"""

from __future__ import annotations

import enum
from array import array
from typing import Iterator, Optional


class PageMode(enum.Enum):
    """Mapping mode of a global page on one node."""

    UNMAPPED = "unmapped"
    LOCAL_HOME = "local_home"
    CCNUMA_REMOTE = "ccnuma_remote"
    SCOMA = "scoma"
    REPLICA = "replica"


#: PageMode in mode-code order; ``MODE_CODES[mode] == index``.
MODES_BY_CODE = (PageMode.UNMAPPED, PageMode.LOCAL_HOME,
                 PageMode.CCNUMA_REMOTE, PageMode.SCOMA, PageMode.REPLICA)
MODE_CODES = {mode: code for code, mode in enumerate(MODES_BY_CODE)}
for _code, _mode in enumerate(MODES_BY_CODE):
    _mode.code = _code  # int code as a member attribute for the hot paths

#: Mode code of :attr:`PageMode.UNMAPPED` (the default of a fresh slot).
UNMAPPED_CODE = 0
#: Mode code of :attr:`PageMode.LOCAL_HOME`.
LOCAL_HOME_CODE = 1

#: Initial number of page slots allocated on first use.
_MIN_RESERVE = 256


class PageTableEntry:
    """View of the per-node mapping state for a single global page."""

    __slots__ = ("_pt", "page")

    def __init__(self, table: "PageTable", page: int) -> None:
        self._pt = table
        self.page = page

    @property
    def mode(self) -> PageMode:
        return MODES_BY_CODE[self._pt._modes[self.page]]

    @mode.setter
    def mode(self, value: PageMode) -> None:
        self._pt._modes[self.page] = value.code

    @property
    def writable(self) -> bool:
        return bool(self._pt._writable[self.page])

    @writable.setter
    def writable(self, value: bool) -> None:
        self._pt._writable[self.page] = 1 if value else 0

    @property
    def faults(self) -> int:
        """Number of soft page faults taken on this page by this node."""
        return self._pt._faults[self.page]

    @faults.setter
    def faults(self, value: int) -> None:
        self._pt._faults[self.page] = value

    @property
    def remaps(self) -> int:
        """Number of times this node's mapping of the page changed mode."""
        return self._pt._remaps[self.page]

    @remaps.setter
    def remaps(self, value: int) -> None:
        self._pt._remaps[self.page] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PageTableEntry(page={self.page}, mode={self.mode},"
                f" writable={self.writable})")


class PageTable:
    """Page table (and mapping-mode bookkeeping) for a single node."""

    __slots__ = ("node", "_modes", "_writable", "_faults", "_remaps",
                 "_tracked", "_views", "soft_faults", "protection_faults")

    def __init__(self, node: int) -> None:
        if node < 0:
            raise ValueError("node id must be non-negative")
        self.node = node
        self._modes = bytearray()
        self._writable = bytearray()
        self._faults = array("q")
        self._remaps = array("q")
        self._tracked = bytearray()
        # entry()/peek() view objects, one per page, created on demand so
        # repeated calls return the same object (callers may hold them)
        self._views: dict[int, PageTableEntry] = {}
        self.soft_faults = 0
        self.protection_faults = 0

    # -- storage management ---------------------------------------------------------

    def reserve(self, n: int) -> None:
        """Grow the arrays (in place) to cover page ids ``< n``."""
        cap = len(self._modes)
        if n <= cap:
            return
        grow = max(n, 2 * cap, _MIN_RESERVE) - cap
        self._modes += bytes(grow)
        self._writable += b"\x01" * grow      # pages default to writable
        self._faults.frombytes(bytes(8 * grow))
        self._remaps.frombytes(bytes(8 * grow))
        self._tracked += bytes(grow)

    # -- lookup --------------------------------------------------------------------

    def entry(self, page: int) -> PageTableEntry:
        """Return (creating if needed) a view of the entry for ``page``."""
        if page >= len(self._modes):
            self.reserve(page + 1)
        self._tracked[page] = 1
        view = self._views.get(page)
        if view is None:
            view = PageTableEntry(self, page)
            self._views[page] = view
        return view

    def peek(self, page: int) -> Optional[PageTableEntry]:
        """Return a view of the entry for ``page`` without creating it."""
        if page < len(self._modes) and self._tracked[page]:
            return self.entry(page)
        return None

    def mode_code(self, page: int) -> int:
        """Mode code of ``page`` (see :data:`MODE_CODES`); 0 when untouched."""
        modes = self._modes
        return modes[page] if page < len(modes) else UNMAPPED_CODE

    def mode_of(self, page: int) -> PageMode:
        """Mapping mode of ``page`` on this node (UNMAPPED if never touched)."""
        return MODES_BY_CODE[self.mode_code(page)]

    def is_mapped(self, page: int) -> bool:
        """True if the page has any mapping on this node."""
        return self.mode_code(page) != UNMAPPED_CODE

    # -- mapping transitions ----------------------------------------------------------

    def map_page(self, page: int, mode: PageMode, *, writable: bool = True,
                 count_fault: bool = True) -> PageTableEntry:
        """Map ``page`` in ``mode``.

        ``count_fault`` distinguishes an OS-visible soft page fault (the
        normal path for a first touch) from internal remappings that are
        accounted separately by the protocols (e.g. an R-NUMA relocation
        charges its own trap cost).
        """
        code = mode.code
        if code == UNMAPPED_CODE:
            raise ValueError("use unmap() to remove a mapping")
        modes = self._modes
        if page >= len(modes):
            self.reserve(page + 1)
        self._tracked[page] = 1
        old = modes[page]
        if old != UNMAPPED_CODE and old != code:
            self._remaps[page] += 1
        modes[page] = code
        self._writable[page] = 1 if writable else 0
        if count_fault:
            self._faults[page] += 1
            self.soft_faults += 1
        return self.entry(page)

    def unmap(self, page: int) -> None:
        """Drop the mapping for ``page`` (it becomes UNMAPPED)."""
        modes = self._modes
        if (page < len(modes) and self._tracked[page]
                and modes[page] != UNMAPPED_CODE):
            modes[page] = UNMAPPED_CODE
            self._writable[page] = 1
            self._remaps[page] += 1

    def record_protection_fault(self, page: int) -> None:
        """Record a write-protection fault (write to a read-only replica)."""
        self.entry(page)
        self.protection_faults += 1

    # -- queries ------------------------------------------------------------------------

    def pages_in_mode(self, mode: PageMode) -> Iterator[int]:
        """Iterate over page ids currently mapped in ``mode`` on this node."""
        want = mode.code
        tracked = self._tracked
        for page, code in enumerate(self._modes):
            if code == want and tracked[page]:
                yield page

    def count_in_mode(self, mode: PageMode) -> int:
        """Number of pages currently mapped in ``mode``."""
        return sum(1 for _ in self.pages_in_mode(mode))

    def num_entries(self) -> int:
        """Total number of pages this node has ever touched."""
        return sum(self._tracked)
