"""The page flush every page operation starts with.

Migration and replication gather a page from each node caching it, and
an R-NUMA relocation or page-cache eviction drops one node's copies of a
page.  All of them flush a node the same way: for each block of the
page, the node's block-cache frame first and then each of the node's L1
lines, and finally the node leaves the sharer sets of the page's blocks
in the directory (an owned block is written back).  The compiled
kernel's ``flush_node_page`` in ``cwalk.c`` transcribes this function;
keep the two in step.
"""

from __future__ import annotations

from typing import Sequence

from repro.mem.address import AddressSpace
from repro.mem.block_cache import BlockCache
from repro.mem.directory import Directory


def flush_node_page(addr: AddressSpace, directory: Directory,
                    block_cache: BlockCache, l1_caches: Sequence[object],
                    node: int, page: int) -> int:
    """Drop every block of ``page`` cached on ``node``; return the count.

    Each L1 drop goes through ``invalidate(block)``, so a cache's watch
    hook sees every line the flush removes.
    """
    blocks = addr.blocks_of_page(page)
    flushed = 0
    for block in blocks:
        if block_cache.invalidate(block):
            flushed += 1
        for l1 in l1_caches:
            if l1.invalidate(block):
                flushed += 1
    directory.drop_node_from_page(blocks, node)
    return flushed
