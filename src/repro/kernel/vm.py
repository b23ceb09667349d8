"""Global page map with first-touch placement and migration support.

All systems in the paper start from the same "first-touch" placement
policy (Section 2): upon the first request for a page, the page is homed
at the requesting node, on the assumption that the first requester will be
a frequent requester.  Page migration later changes a page's home;
replication leaves the home in place but marks the page as having
read-only copies elsewhere.

The :class:`VirtualMemoryManager` is a machine-global object (conceptually
the cooperating per-node kernels) tracking, per page:

* the current home node,
* whether the page is currently replicated and on which nodes, and
* the migration history (used by the experiments to report page-operation
  counts and by tests to assert policy invariants).
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Set


class PageRecord:
    """View of the global (home-side) state of one placed page.

    Like :class:`repro.mem.page_table.PageTableEntry`, a record holds no
    state of its own: every field reads the manager's per-page arrays,
    so a view stays current across page operations, including those the
    compiled kernel performs on the same arrays.
    """

    __slots__ = ("_vm", "page")

    def __init__(self, vm: "VirtualMemoryManager", page: int) -> None:
        self._vm = vm
        self.page = page

    @property
    def home(self) -> int:
        """Current home node."""
        return self._vm._home[self.page]

    @property
    def first_toucher(self) -> int:
        """Node whose first touch placed the page."""
        return self._vm._first_toucher[self.page]

    @property
    def migrations(self) -> int:
        """Number of times the page changed home."""
        return self._vm._migrations[self.page]

    @property
    def replicas(self) -> Set[int]:
        """Nodes currently holding a read-only replica (excluding the home)."""
        return _nodes_of(self._vm._replica_mask[self.page])

    @property
    def replicated(self) -> bool:
        """True while the page is in replicated (read-only everywhere) state."""
        return bool(self._vm._replicated[self.page])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PageRecord(page={self.page}, home={self.home},"
                f" replicas={sorted(self.replicas)})")


def _nodes_of(mask: int) -> Set[int]:
    """The node ids of the set bits of ``mask``."""
    nodes = set()
    while mask:
        low = mask & -mask
        nodes.add(low.bit_length() - 1)
        mask ^= low
    return nodes


class VirtualMemoryManager:
    """Global page map shared by every node's kernel.

    ``placement`` selects the initial page-placement policy; the default
    (``None``) is the paper's first-touch policy.  Any
    :class:`repro.kernel.placement.PlacementPolicy` (or plain callable
    ``(page, requesting_node) -> home``) may be supplied to run the
    placement ablation.

    Per-page state lives in flat buffer-backed arrays indexed by page id,
    so the protocols read them directly on every miss and the compiled
    kernel views them without copying: the home (``-1`` = never placed),
    the first toucher, the migration count, a replicated flag byte and a
    bitmask of the nodes holding a replica.  They grow lazily and in
    place, so aliases stay valid.
    """

    __slots__ = ("num_nodes", "_home", "_first_toucher", "_migrations",
                 "_replicated", "_replica_mask", "_placement",
                 "first_touches", "migrations", "replications",
                 "replica_collapses")

    def __init__(self, num_nodes: int, placement=None) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self._home = array("q")
        self._first_toucher = array("q")
        self._migrations = array("q")
        self._replicated = bytearray()
        self._replica_mask = array("Q")
        self._placement = placement
        self.first_touches = 0
        self.migrations = 0
        self.replications = 0
        self.replica_collapses = 0

    # -- storage management --------------------------------------------------------

    def reserve(self, n: int) -> None:
        """Grow the per-page arrays (in place) to cover page ids ``< n``."""
        cap = len(self._home)
        if n <= cap:
            return
        grow = max(n, 2 * cap, 256) - cap
        # -1 as little-endian two's-complement int64 is all-ones bytes
        self._home.frombytes(b"\xff" * (8 * grow))
        self._first_toucher.frombytes(b"\xff" * (8 * grow))
        self._migrations.frombytes(bytes(8 * grow))
        self._replicated += bytes(grow)
        self._replica_mask.frombytes(bytes(8 * grow))

    def _placed_record(self, page: int) -> PageRecord:
        """The record of ``page``; ``KeyError`` if it was never placed."""
        if self.home_of(page) is None:
            raise KeyError(f"page {page} has never been placed")
        return PageRecord(self, page)

    # -- placement ---------------------------------------------------------------

    def ensure_placed(self, page: int, node: int) -> tuple[PageRecord, bool]:
        """Return the record for ``page``, placing it on first touch.

        The home node is the first toucher under the default first-touch
        policy, or whatever the configured placement policy decides.
        Returns ``(record, first_touch)``; ``first_touch`` is True when
        this call performed the placement.
        """
        self._check_node(node)
        if self.home_of(page) is not None:
            return PageRecord(self, page), False
        home = node if self._placement is None else self._placement(page, node)
        self._check_node(home)
        if page >= len(self._home):
            self.reserve(page + 1)
        self._home[page] = home
        self._first_toucher[page] = node
        self.first_touches += 1
        return PageRecord(self, page), True

    def is_placed(self, page: int) -> bool:
        """True if the page already has a home."""
        return self.home_of(page) is not None

    def home_of(self, page: int) -> Optional[int]:
        """Current home node of ``page``, or None if never touched."""
        home = self._home
        if page < len(home):
            h = home[page]
            return h if h >= 0 else None
        return None

    def record(self, page: int) -> Optional[PageRecord]:
        """Return the record of ``page`` if it has been placed."""
        return PageRecord(self, page) if self.is_placed(page) else None

    # -- migration -----------------------------------------------------------------

    def migrate(self, page: int, new_home: int) -> PageRecord:
        """Move ``page``'s home to ``new_home`` (must already be placed)."""
        self._check_node(new_home)
        rec = self._placed_record(page)
        if self._replicated[page]:
            raise ValueError("cannot migrate a page while it is replicated")
        if self._home[page] != new_home:
            self._home[page] = new_home
            self._migrations[page] += 1
            self.migrations += 1
        return rec

    # -- replication ------------------------------------------------------------------

    def replicate(self, page: int, node: int) -> PageRecord:
        """Install a read-only replica of ``page`` at ``node``."""
        self._check_node(node)
        rec = self._placed_record(page)
        if node == self._home[page]:
            raise ValueError("the home node does not need a replica")
        self._replicated[page] = 1
        bit = 1 << node
        if not self._replica_mask[page] & bit:
            self._replica_mask[page] |= bit
            self.replications += 1
        return rec

    def collapse_replicas(self, page: int) -> Set[int]:
        """Switch a replicated page back to a single read-write page.

        Returns the set of nodes whose replicas were revoked (the caller
        charges their invalidation cost).
        """
        self._placed_record(page)
        revoked = _nodes_of(self._replica_mask[page])
        if self._replicated[page] or revoked:
            self.replica_collapses += 1
        self._replicated[page] = 0
        self._replica_mask[page] = 0
        return revoked

    def is_replicated(self, page: int) -> bool:
        """True while the page is in replicated state."""
        rep = self._replicated
        return page < len(rep) and rep[page] != 0

    def replicas_of(self, page: int) -> Set[int]:
        """Nodes currently holding a replica of ``page`` (excluding home)."""
        mask = self._replica_mask
        return _nodes_of(mask[page]) if page < len(mask) else set()

    def has_local_copy(self, page: int, node: int) -> bool:
        """True if ``node`` is the home of ``page`` or holds a replica."""
        home = self.home_of(page)
        if home is None:
            return False
        return home == node or bool(self._replica_mask[page] >> node & 1)

    # -- inspection -----------------------------------------------------------------------

    def pages(self) -> Iterator[int]:
        """Iterate over every placed page id, in ascending order."""
        return (page for page, home in enumerate(self._home) if home >= 0)

    def num_pages(self) -> int:
        """Number of pages that have been placed."""
        return sum(1 for _ in self.pages())

    def pages_homed_at(self, node: int) -> List[int]:
        """Pages whose current home is ``node``."""
        self._check_node(node)
        return [page for page, home in enumerate(self._home) if home == node]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")
