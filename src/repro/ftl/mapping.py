"""Logical-to-physical page mapping state.

The table keeps the forward map (LPN -> PPA), the reverse map
(PPA -> LPN, needed by garbage collection to find whose data lives in a
victim block), the per-page state, and per-block valid-page counts.

Invariants (exercised by the property tests):

* ``l2p[lpn] == ppa`` implies ``p2l[ppa] == lpn`` and ``state[ppa] == VALID``;
* a block's valid count equals the number of its pages in state VALID;
* at most one PPA is VALID for any LPN.

Storage is flat typed buffers, not lists: ``l2p``, ``p2l`` and the valid
counts are ``array('q')`` (signed 64-bit, so ``UNMAPPED`` fits and no
layout the spec validator accepts can overflow an index), page states a
``bytearray``.  The reason is measured.  A preconditioned drive is
nearly all mapped, and as lists its two maps held one boxed int per
page, ~520k objects on the ``intel750`` layout.  Every sweep point fills
a fresh drive: building the objects element by element took 5 ms per
fill on ``zssd`` and 12-19 ms on ``intel750``, and freeing them when the
point ended 2.5 and 6.4 ms.  As buffers, a fill copies a cached
closed-form template (:func:`striped_fill`) into the table in 0.2-0.4
ms, and teardown frees four buffers in under 0.1 ms.  A scalar index
into an ``array`` costs about what a list index does (100-170 ns per
:meth:`MappingTable.lookup` either way), so the per-write path does not
slow down.  Numpy stays off that path, since ``ndarray.__getitem__``
plus unboxing costs several times a buffer index; it only builds
templates.  The hot paths compare states against plain int constants:
``PageState`` stays the public vocabulary, but enum
``__eq__``/``__hash__`` are off the per-write path.
"""

from __future__ import annotations

import enum
import functools
from array import array
from typing import List, NamedTuple

import numpy as np

from repro.ftl.layout import FtlLayout

UNMAPPED = -1

#: ``array`` typecode of the LPN/PPA maps and valid counters, and its
#: numpy twin for building templates.
_INDEX = "q"
_NP_INDEX = np.dtype(_INDEX)


class PageState(enum.IntEnum):
    """Lifecycle of a physical page between erases."""

    FREE = 0
    VALID = 1
    INVALID = 2


# Int twins of PageState for the hot paths (enum comparison costs a
# __getattr__ plus rich-compare per use; these are plain ints).
_FREE = int(PageState.FREE)
_VALID = int(PageState.VALID)
_INVALID = int(PageState.INVALID)


class FillTemplate(NamedTuple):
    """Raw buffers of a table after a striped sequential fill."""

    l2p: bytes
    p2l: bytes
    state: bytes
    valid_per_block: bytes


@functools.lru_cache(maxsize=2)
def striped_fill(layout: FtlLayout, logical_pages: int, count: int) -> FillTemplate:
    """The table state of LPNs ``0..count-1`` bound round-robin across
    dies at consecutive per-die PPAs, as immutable bytes.

    LPN ``stripe * dies + die`` lands at page ``stripe`` of its die, so
    the maps are two broadcast grids: ``l2p`` is stripe-major and
    ``p2l`` die-major.  Every sweep point preconditions a fresh drive of
    the same few layouts, so a template is computed once per (layout,
    logical pages, count) and each fill copies it.  The cache keeps two
    (the paper's two devices), so memory does not grow with the number
    of distinct devices; a miss costs a few milliseconds, most of it
    first-touching the new buffers.
    """
    dies = layout.dies
    die_pages = layout.blocks_per_die * layout.pages_per_block
    rows, tail = divmod(count, dies)  # full stripes; dies in the last one
    die = np.arange(dies, dtype=_NP_INDEX)
    stripe = np.arange(rows + 1, dtype=_NP_INDEX)
    l2p = np.full(logical_pages, UNMAPPED, dtype=_NP_INDEX)
    l2p[:count] = (die * die_pages + stripe[:, None]).ravel()[:count]
    p2l = np.full((dies, die_pages), UNMAPPED, dtype=_NP_INDEX)
    p2l[:, :rows] = stripe[:rows] * dies + die[:, None]
    state = np.full((dies, die_pages), _FREE, dtype=np.uint8)
    state[:, :rows] = _VALID
    if tail:
        p2l[:tail, rows] = rows * dies + die[:tail]
        state[:tail, rows] = _VALID
    valid = state.reshape(layout.total_blocks, layout.pages_per_block).sum(
        axis=1, dtype=_NP_INDEX
    )
    return FillTemplate(l2p.tobytes(), p2l.tobytes(), state.tobytes(), valid.tobytes())


class MappingTable:
    """Page-level mapping with reverse map and valid counters."""

    def __init__(self, layout: FtlLayout, logical_pages: int) -> None:
        if logical_pages < 1:
            raise ValueError("logical_pages must be >= 1")
        if logical_pages > layout.total_pages:
            raise ValueError(
                "logical space cannot exceed physical space "
                f"({logical_pages} > {layout.total_pages})"
            )
        self.layout = layout
        self.logical_pages = logical_pages
        self._pages_per_block = layout.pages_per_block
        self._total_pages = layout.total_pages
        self._l2p = array(_INDEX, [UNMAPPED]) * logical_pages
        self._p2l = array(_INDEX, [UNMAPPED]) * layout.total_pages
        self._state = bytearray(layout.total_pages)  # all _FREE
        self._valid_per_block = array(_INDEX, [0]) * layout.total_blocks
        self._mapped = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def lookup(self, lpn: int) -> int:
        """PPA holding ``lpn``'s data, or ``UNMAPPED`` if never written."""
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(f"logical page out of range: {lpn}")
        return self._l2p[lpn]

    def owner(self, ppa: int) -> int:
        """LPN whose data is at ``ppa``, or ``UNMAPPED``."""
        return self._p2l[ppa]

    def state(self, ppa: int) -> PageState:
        return PageState(self._state[ppa])

    def valid_count(self, block: int) -> int:
        return self._valid_per_block[block]

    def valid_counts(self) -> "array[int]":
        """Per-block valid-page counts (the live array; do not mutate)."""
        return self._valid_per_block

    def valid_lpns_in_block(self, block: int) -> List[int]:
        """LPNs whose current data lives in ``block`` (GC migration set)."""
        first = self.layout.first_page_of_block(block)
        stop = first + self._pages_per_block
        p2l = self._p2l
        state = self._state
        return [p2l[ppa] for ppa in range(first, stop) if state[ppa] == _VALID]

    @property
    def mapped_lpn_count(self) -> int:
        return self._mapped

    def is_pristine(self) -> bool:
        """True if no page was ever bound (every page still FREE).

        ``mapped_lpn_count == 0`` alone is not enough: a bind/trim pair
        leaves an INVALID page behind with zero mappings.  The state
        scan is a single C-speed ``bytearray.count``.
        """
        return (
            self._mapped == 0
            and self._state.count(_FREE) == self._total_pages
        )

    def fill_sequential_striped(self, count: int) -> None:
        """Bulk-bind LPNs ``0..count-1`` round-robin striped across dies
        at consecutive per-die PPAs — the closed form of a sequential
        fill on a pristine table — by copying :func:`striped_fill`'s
        template.

        The caller (:meth:`repro.ftl.core.PageMappedFtl.fill_sequential`)
        is responsible for checking :meth:`is_pristine` and the
        no-deflection guard; this method only applies the state.
        """
        template = striped_fill(self.layout, self.logical_pages, count)
        # Copied byte for byte into the table's own buffers (already
        # touched when they were allocated), so tables never share the
        # cached template.
        for table, image in zip(
            (self._l2p, self._p2l, self._state, self._valid_per_block), template
        ):
            memoryview(table).cast("B")[:] = image
        self._mapped = count

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def bind(self, lpn: int, ppa: int) -> int:
        """Point ``lpn`` at freshly-programmed ``ppa``.

        Returns the previous PPA (now invalidated) or ``UNMAPPED``.
        """
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(f"logical page out of range: {lpn}")
        if not 0 <= ppa < self._total_pages:
            raise ValueError(f"physical page out of range: {ppa}")
        state = self._state
        if state[ppa] != _FREE:
            raise ValueError(f"cannot bind to non-free page {ppa}")
        l2p = self._l2p
        previous = l2p[lpn]
        if previous != UNMAPPED:
            self._invalidate(previous)
        else:
            self._mapped += 1
        l2p[lpn] = ppa
        self._p2l[ppa] = lpn
        state[ppa] = _VALID
        self._valid_per_block[ppa // self._pages_per_block] += 1
        return previous

    def trim(self, lpn: int) -> int:
        """Discard ``lpn``'s mapping (TRIM); returns the freed PPA."""
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(f"logical page out of range: {lpn}")
        previous = self._l2p[lpn]
        if previous != UNMAPPED:
            self._invalidate(previous)
            self._l2p[lpn] = UNMAPPED
            self._mapped -= 1
        return previous

    def erase_block(self, block: int) -> None:
        """Reset a block's pages to FREE.  All pages must be non-valid."""
        if self._valid_per_block[block] != 0:
            raise ValueError(
                f"block {block} still has {self._valid_per_block[block]} "
                "valid pages; migrate before erasing"
            )
        first = self.layout.first_page_of_block(block)
        pages = self._pages_per_block
        self._p2l[first : first + pages] = array(_INDEX, [UNMAPPED]) * pages
        self._state[first : first + pages] = bytes(pages)  # all _FREE

    def _invalidate(self, ppa: int) -> None:
        state = self._state
        if state[ppa] != _VALID:
            raise ValueError(f"page {ppa} is not valid")
        state[ppa] = _INVALID
        self._p2l[ppa] = UNMAPPED
        self._valid_per_block[ppa // self._pages_per_block] -= 1

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the structural invariants (used by property tests)."""
        layout = self.layout
        valid = [0] * layout.total_blocks
        for ppa in range(layout.total_pages):
            state = self._state[ppa]
            lpn = self._p2l[ppa]
            if state == _VALID:
                if lpn == UNMAPPED or self._l2p[lpn] != ppa:
                    raise AssertionError(f"broken forward/reverse map at ppa {ppa}")
                valid[layout.block_of_page(ppa)] += 1
            elif lpn != UNMAPPED:
                raise AssertionError(f"non-valid page {ppa} has an owner")
        if valid != self._valid_per_block.tolist():
            raise AssertionError("valid-per-block counters out of sync")
        mapped = sum(1 for ppa in self._l2p if ppa != UNMAPPED)
        if mapped != self._mapped:
            raise AssertionError("mapped-LPN counter out of sync")
