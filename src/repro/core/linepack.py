"""LinePack: per-line size bins packed back to back (paper §II-C).

Each line compresses to one of (typically four) allowed sizes and is
stored immediately after its predecessor.  The offset of line *i* is
the sum of the encoded sizes of lines 0..i-1 — computed by a 63-input
4-bit adder in one extra cycle (§VII-E).  LinePack keeps the highest
compression ratio (Fig. 2) at the cost of that adder and of split
accesses when bins are not alignment friendly (§IV-B1).

The model follows the hardware: a size becomes its bin through a
per-scheme lookup table (:meth:`PackingScheme.bin_indices`), and the
adder is a prefix sum, ``itertools.accumulate`` over the slot sizes.
Pages repeat the same bins (all-raw, all-zero, one dominant size), so
:meth:`LinePack.layout_from_bins` memoizes the frozen layout per
(bins, inflated lines), per packer, up to :data:`LAYOUT_MEMO_MAX`
entries.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Sequence, Tuple

from .packing import PackingScheme, PageLayout

#: Bound on the layouts one :class:`LinePack` keeps; the oldest entry
#: goes first when it is full.
LAYOUT_MEMO_MAX = 1024


class LinePack(PackingScheme):
    """Compresso's packing scheme."""

    name = "linepack"

    def __init__(self, line_bins: Sequence[int], line_size: int = 64,
                 max_exceptions: int = 17) -> None:
        super().__init__(line_bins, line_size, max_exceptions)
        self._layouts: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]],
                            PageLayout] = {}

    def pack(self, line_sizes: Sequence[int]) -> PageLayout:
        """Pack fresh sizes: every line gets its own best-fit bin."""
        return self.layout_from_bins(self.bin_indices(line_sizes),
                                     inflated_lines=())

    def layout_from_bins(self, slot_bins: Sequence[int],
                         inflated_lines: Sequence[int]) -> PageLayout:
        key = (tuple(slot_bins), tuple(inflated_lines))
        layout = self._layouts.get(key)
        if layout is not None:
            return layout
        sizes = tuple(map(self.line_bins.__getitem__, key[0]))
        offsets = tuple(accumulate(sizes, initial=0))  # the 63-input adder
        layout = PageLayout(
            slot_offsets=offsets[:-1],
            slot_sizes=sizes,
            data_bytes=offsets[-1],
            inflated_lines=key[1],
        )
        if len(self._layouts) >= LAYOUT_MEMO_MAX:
            del self._layouts[next(iter(self._layouts))]
        self._layouts[key] = layout
        return layout

    @property
    def offset_calc_cycles(self) -> int:
        # The 63-input adder partially overlaps the metadata cache
        # lookup, leaving one visible cycle (§VII-E).
        return 1


def split_access_fraction(line_sizes: Sequence[int], bins: Sequence[int],
                          lines_per_page: int = 64) -> float:
    """Fraction of lines whose LinePack slot straddles a 64 B boundary.

    ``line_sizes`` is consumed in consecutive ``lines_per_page`` groups,
    each packed as its own page (offsets restart at every page).  This
    is the metric behind the §IV-B1 numbers (30.9% with 0/22/44/64 bins
    vs. 3.2% with 0/8/32/64).
    """
    pack = LinePack(bins)
    stored = split = 0
    for start in range(0, len(line_sizes), lines_per_page):
        page = list(line_sizes[start : start + lines_per_page])
        layout = pack.pack(page)
        for line, size in enumerate(layout.slot_sizes):
            if size == 0:
                continue
            stored += 1
            if layout.locate(line).accesses() > 1:
                split += 1
    return split / stored if stored else 0.0
