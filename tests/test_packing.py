"""Tests for LinePack and LCP packing (§II-C, §IV-B1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ALIGNMENT_FRIENDLY_LINE_BINS, PRIOR_WORK_LINE_BINS
from repro.core.lcp import LCPPack, derive_targets
from repro.core.linepack import (
    LAYOUT_MEMO_MAX,
    LinePack,
    split_access_fraction,
)
from repro.core.packing import PageLayout, blocks_spanned, choose_bin

#: Every bin set the systems pack with: prior work, alignment friendly,
#: and the two LCP target sets derived from the size classes.
BIN_SETS = [PRIOR_WORK_LINE_BINS, ALIGNMENT_FRIENDLY_LINE_BINS,
            derive_targets(aligned=False), derive_targets(aligned=True)]


class TestChooseBin:
    @pytest.mark.parametrize("size,expected_bin", [
        (0, 0), (1, 1), (8, 1), (9, 2), (32, 2), (33, 3), (64, 3),
    ])
    def test_alignment_bins(self, size, expected_bin):
        assert choose_bin(size, ALIGNMENT_FRIENDLY_LINE_BINS) == expected_bin

    def test_oversized_clamps_to_raw(self):
        assert choose_bin(100, ALIGNMENT_FRIENDLY_LINE_BINS) == 3


class TestBinTable:
    @pytest.mark.parametrize("bins", BIN_SETS, ids=str)
    @pytest.mark.parametrize("scheme", [LinePack, LCPPack])
    def test_table_matches_choose_bin(self, scheme, bins):
        packer = scheme(bins)
        sizes = range(packer.line_size + 9)
        for size in sizes:
            assert packer.bin_index(size) == choose_bin(size,
                                                        packer.line_bins)
        assert packer.bin_indices(sizes) == [
            choose_bin(size, packer.line_bins) for size in sizes]


def reference_layout(packer, slot_bins, inflated_lines):
    """LinePack's layout built by an explicit running-sum loop."""
    offsets, sizes, cursor = [], [], 0
    for bin_index in slot_bins:
        offsets.append(cursor)
        sizes.append(packer.line_bins[bin_index])
        cursor += packer.line_bins[bin_index]
    return PageLayout(slot_offsets=tuple(offsets), slot_sizes=tuple(sizes),
                      data_bytes=cursor, inflated_lines=tuple(inflated_lines))


class TestLayoutMemo:
    @given(bins=st.lists(st.integers(min_value=0, max_value=3),
                         min_size=0, max_size=64),
           inflated=st.lists(st.integers(min_value=0, max_value=63),
                             max_size=17, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_memo_matches_reference_loop(self, bins, inflated):
        packer = LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)
        for _ in range(2):  # a miss, then a hit
            assert (packer.layout_from_bins(bins, inflated)
                    == reference_layout(packer, bins, inflated))

    def test_caller_mutation_leaves_cached_layout_alone(self):
        packer = LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)
        bins, inflated = [1] * 64, [3]
        first = packer.layout_from_bins(bins, inflated)
        expected = reference_layout(packer, bins, inflated)
        bins[0] = 3
        inflated.append(9)
        assert first == expected
        assert packer.layout_from_bins([1] * 64, [3]) == expected
        assert (packer.layout_from_bins(bins, inflated)
                == reference_layout(packer, bins, inflated))

    def test_memo_is_bounded(self):
        packer = LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)
        for n in range(LAYOUT_MEMO_MAX + 50):
            bins = [int(digit) for digit in f"{n:012b}"]
            assert (packer.layout_from_bins(bins, ())
                    == reference_layout(packer, bins, ()))
            assert len(packer._layouts) <= LAYOUT_MEMO_MAX
        assert len(packer._layouts) == LAYOUT_MEMO_MAX

    def test_memo_is_per_packer(self):
        aligned = LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)
        prior = LinePack(PRIOR_WORK_LINE_BINS)
        assert aligned.layout_from_bins([1] * 64, ()).slot_sizes[0] == 8
        assert prior.layout_from_bins([1] * 64, ()).slot_sizes[0] == 22


class TestBlocksSpanned:
    @pytest.mark.parametrize("offset,size,expected", [
        (0, 0, 0),
        (0, 64, 1),
        (0, 65, 2),
        (32, 32, 1),
        (32, 33, 2),
        (40, 32, 2),     # straddles the 64 B boundary
        (8, 8, 1),
        (60, 8, 2),
        (128, 64, 1),
    ])
    def test_counts(self, offset, size, expected):
        assert blocks_spanned(offset, size) == expected


class TestLinePack:
    def test_offsets_are_prefix_sums(self):
        pack = LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)
        layout = pack.pack([8, 32, 0, 64, 8] + [0] * 59)
        assert layout.slot_offsets[:5] == (0, 8, 40, 40, 104)
        assert layout.data_bytes == 112

    def test_no_slot_overlap(self):
        pack = LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)
        layout = pack.pack([7, 30, 64, 1, 0, 33] * 10 + [5] * 4)
        for i in range(len(layout.slot_sizes) - 1):
            end = layout.slot_offsets[i] + layout.slot_sizes[i]
            assert end <= layout.slot_offsets[i + 1]

    def test_inflation_room_above_data(self):
        pack = LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)
        layout = pack.layout_from_bins([1] * 64, inflated_lines=(3, 9))
        base = layout.inflation_base
        assert base % 64 == 0
        assert base >= layout.data_bytes
        loc3 = layout.locate(3)
        loc9 = layout.locate(9)
        assert loc3.inflated and loc3.offset == base
        assert loc9.inflated and loc9.offset == base + 64
        assert layout.total_bytes == base + 128

    def test_inflated_lines_never_split(self):
        pack = LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)
        layout = pack.layout_from_bins([2] * 64, inflated_lines=(5,))
        assert layout.locate(5).accesses() == 1

    def test_offset_calc_is_one_cycle(self):
        assert LinePack(ALIGNMENT_FRIENDLY_LINE_BINS).offset_calc_cycles == 1

    @given(st.lists(st.integers(min_value=0, max_value=64),
                    min_size=64, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_pack_property(self, sizes):
        """Every slot holds its line; data bytes equal sum of slots."""
        pack = LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)
        layout = pack.pack(sizes)
        assert layout.data_bytes == sum(layout.slot_sizes)
        for line, size in enumerate(sizes):
            assert layout.slot_sizes[line] >= size


class TestSplitAccessFraction:
    def test_paper_bin_comparison(self):
        """Alignment-friendly bins slash split accesses (§IV-B1).

        The paper reports 30.9% -> 3.2%.  Real pages are largely
        homogeneous (one data class per page), so 8 B and 32 B runs
        stay self-aligned under 0/8/32/64 bins, while 22/44 B runs
        cycle through boundary-crossing offsets under 0/22/44/64.
        """
        import random
        rng = random.Random(3)
        sizes = []
        for _ in range(60):  # 60 pages, each dominated by one size class
            dominant = rng.choice([6, 20, 30])
            page = [dominant if rng.random() < 0.98 else rng.randint(1, 64)
                    for _ in range(64)]
            sizes.extend(page)
        prior = split_access_fraction(sizes, PRIOR_WORK_LINE_BINS)
        aligned = split_access_fraction(sizes, ALIGNMENT_FRIENDLY_LINE_BINS)
        assert prior > 0.2
        assert aligned < 0.1
        assert aligned < prior / 3


class TestLCPPack:
    def test_uniform_slots(self):
        pack = LCPPack(PRIOR_WORK_LINE_BINS)
        layout = pack.pack([20] * 64)
        assert set(layout.slot_sizes) == {22}
        assert layout.slot_offsets == tuple(22 * i for i in range(64))
        assert not layout.inflated_lines

    def test_exceptions_for_outliers(self):
        pack = LCPPack(PRIOR_WORK_LINE_BINS)
        sizes = [20] * 60 + [64] * 4
        layout = pack.pack(sizes)
        assert set(layout.slot_sizes) == {22}
        assert set(layout.inflated_lines) == {60, 61, 62, 63}
        # Exceptions live in the exception region, stored raw.
        for line in layout.inflated_lines:
            assert layout.locate(line).size == 64

    def test_too_many_exceptions_grows_target(self):
        pack = LCPPack(PRIOR_WORK_LINE_BINS, max_exceptions=17)
        sizes = [20] * 40 + [64] * 24  # 24 > 17 exceptions at target 22
        layout = pack.pack(sizes)
        assert layout.slot_sizes[0] == 64  # must fall back to raw target

    def test_mixed_bin_metadata_rejected(self):
        pack = LCPPack(PRIOR_WORK_LINE_BINS)
        with pytest.raises(ValueError):
            pack.layout_from_bins([1, 2] * 32, ())

    def test_candidates_cover_feasible_targets(self):
        pack = LCPPack(PRIOR_WORK_LINE_BINS)
        sizes = [20] * 63 + [64]
        candidates = pack.pack_candidates(sizes)
        targets = {layout.slot_sizes[0] for layout in candidates}
        assert 22 in targets and 64 in targets

    def test_offset_calc_is_free(self):
        assert LCPPack(PRIOR_WORK_LINE_BINS).offset_calc_cycles == 0

    @given(st.lists(st.integers(min_value=0, max_value=64),
                    min_size=64, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_pack_property(self, sizes):
        """Non-exception lines fit the target; exceptions are bounded."""
        pack = LCPPack(PRIOR_WORK_LINE_BINS)
        layout = pack.pack(sizes)
        target = layout.slot_sizes[0]
        assert len(layout.inflated_lines) <= pack.max_exceptions
        for line, size in enumerate(sizes):
            if line not in layout.inflated_lines:
                assert size <= target


class TestCompressionComparison:
    def test_linepack_beats_lcp_on_variable_data(self):
        """LCP trades compression for simple offsets (§II-C, Fig. 2)."""
        import random
        rng = random.Random(11)
        linepack = LinePack(ALIGNMENT_FRIENDLY_LINE_BINS)
        lcp = LCPPack(ALIGNMENT_FRIENDLY_LINE_BINS)
        lp_total = lcp_total = 0
        for _ in range(30):
            sizes = [rng.choice([4, 6, 20, 30, 60, 64]) for _ in range(64)]
            lp_total += linepack.pack(sizes).total_bytes
            lcp_total += lcp.pack(sizes).total_bytes
        assert lp_total < lcp_total
