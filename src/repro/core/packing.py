"""Shared cache-line packing machinery (paper §II-C).

A *packing scheme* decides where each variable-sized compressed line
lives inside its page allocation, which determines three costs the
paper trades off: compression ratio, offset-calculation complexity, and
split accesses (compressed lines straddling 64-byte DRAM boundaries).
Concrete schemes are :mod:`.linepack` and :mod:`.lcp`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, List, Sequence, Tuple


def choose_bin(size_bytes: int, bins: Sequence[int]) -> int:
    """Index of the smallest bin that holds ``size_bytes`` (bins sorted).

    Sizes beyond the largest bin clamp to it — the line is then stored
    uncompressed (the largest bin is always the raw line size).
    """
    for index, capacity in enumerate(bins):
        if size_bytes <= capacity:
            return index
    return len(bins) - 1


def blocks_spanned(offset: int, size: int, block: int = 64) -> int:
    """Number of ``block``-byte DRAM blocks a [offset, offset+size) access touches."""
    if size <= 0:
        return 0
    return (offset + size - 1) // block - offset // block + 1


@dataclass(frozen=True)
class LineLocation:
    """Where one line's data lives inside the page allocation."""

    offset: int          # byte offset from the start of the page allocation
    size: int            # allocated slot size in bytes
    inflated: bool       # stored raw in the inflation/exception room?

    def accesses(self, block: int = 64) -> int:
        """DRAM accesses needed to fetch this line (2 if split, §IV-A2)."""
        return blocks_spanned(self.offset, self.size, block)


@dataclass(frozen=True)
class PageLayout:
    """Full layout of a compressed page."""

    slot_offsets: Tuple[int, ...]   # per line, offset of its regular slot
    slot_sizes: Tuple[int, ...]     # per line, size of its regular slot
    data_bytes: int                 # bytes used by the regular slots
    inflated_lines: Tuple[int, ...] # lines living in the inflation room

    @property
    def inflation_bytes(self) -> int:
        return 64 * len(self.inflated_lines)

    @property
    def inflation_base(self) -> int:
        """Start of the inflation room: just above the compressed slots,
        aligned to 64 B so inflated lines never split (§III, Fig. 5a).

        Anchoring the room to the *bottom* of the free space (rather
        than the end of the allocation) keeps existing inflated slots
        stable when Dynamic IR Expansion grows the allocation by a
        chunk (§IV-B3) — the expansion costs one cache-line write, not
        a shuffle of the room.
        """
        return (self.data_bytes + 63) // 64 * 64

    @property
    def total_bytes(self) -> int:
        """Minimum allocation that holds slots + inflation room."""
        if not self.inflated_lines:
            return self.data_bytes
        return self.inflation_base + self.inflation_bytes

    def locate(self, line: int) -> LineLocation:
        """Physical location of ``line`` within the page allocation."""
        if line in self.inflated_lines:
            slot = self.inflated_lines.index(line)
            offset = self.inflation_base + 64 * slot
            return LineLocation(offset=offset, size=64, inflated=True)
        return LineLocation(
            offset=self.slot_offsets[line],
            size=self.slot_sizes[line],
            inflated=False,
        )


class PackingScheme(abc.ABC):
    """Strategy object: LinePack or LCP."""

    name: str = "abstract"

    def __init__(self, line_bins: Sequence[int], line_size: int = 64,
                 max_exceptions: int = 17) -> None:
        if line_bins[-1] != line_size:
            raise ValueError("largest bin must equal the raw line size")
        self.line_bins = tuple(line_bins)
        self.line_size = line_size
        self.max_exceptions = max_exceptions
        # choose_bin of every size 0..line_size + 1; larger sizes clamp
        # to the last entry, which is the raw bin.
        self._size_bins = tuple(
            choose_bin(size, self.line_bins) for size in range(line_size + 2)
        )

    def bin_index(self, size_bytes: int) -> int:
        """:func:`choose_bin` for a size in bytes, as a table lookup."""
        return self._size_bins[min(size_bytes, self.line_size + 1)]

    def bin_indices(self, sizes: Iterable[int]) -> List[int]:
        """:meth:`bin_index` of every size, mapped through the table in C."""
        return list(map(self._size_bins.__getitem__,
                        map(min, sizes, repeat(self.line_size + 1))))

    def bin_bytes(self, bin_index: int) -> int:
        return self.line_bins[bin_index]

    @abc.abstractmethod
    def pack(self, line_sizes: Sequence[int]) -> PageLayout:
        """Lay out a page from fresh per-line compressed sizes (bytes).

        Used on initial allocation and on every repack.
        """

    def pack_candidates(self, line_sizes: Sequence[int]) -> List["PageLayout"]:
        """All reasonable layouts for fresh sizes.

        LinePack has exactly one; LCP has one per feasible target size,
        and the *allocation-aware* caller picks the one that minimizes
        the allocated size class (leaving exception headroom within the
        class rather than sitting exactly on its boundary).
        """
        return [self.pack(line_sizes)]

    @abc.abstractmethod
    def layout_from_bins(self, slot_bins: Sequence[int],
                         inflated_lines: Sequence[int]) -> PageLayout:
        """Reconstruct the layout from metadata (slot bins + inflation list)."""

    @property
    @abc.abstractmethod
    def offset_calc_cycles(self) -> int:
        """Extra cycles to compute a line offset (LinePack's adder, §VII-E)."""
