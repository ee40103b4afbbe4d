"""Tests for the DDR4 timing model."""

import random

import pytest

from repro.memory.dram import DDR4Channel, DRAMSystem, DRAMTimings
from repro.memory.request import AccessCategory, AccessKind, MemAccess


def read(address, category=AccessCategory.DEMAND, critical=True):
    return MemAccess(AccessKind.READ, category, address, critical)


def write(address):
    return MemAccess(AccessKind.WRITE, AccessCategory.DEMAND, address, False)


class TestTimings:
    def test_cpu_cycle_conversion(self):
        t = DRAMTimings()
        # 3 GHz CPU / 1333 MHz DRAM: ~2.25 CPU cycles per DRAM clock.
        assert t.cycles_per_dram_clock == pytest.approx(2.2505, abs=0.01)
        assert t.row_hit_latency == round(18 * t.cycles_per_dram_clock)
        assert t.row_miss_latency > t.row_hit_latency
        assert t.row_conflict_latency > t.row_miss_latency

    def test_burst_occupancy(self):
        t = DRAMTimings()
        assert t.burst_cycles == round(4 * t.cycles_per_dram_clock)


class TestChannel:
    def test_row_hit_faster_than_conflict(self):
        channel = DDR4Channel()
        first = channel.access(0, read(0))
        # Same bank, same row: hit.
        hit_done = channel.access(first, read(64)) - first
        # Same bank (same stripe alignment), different row: conflict.
        far = 8192 * channel.n_banks  # same bank index, different row
        conflict_done = channel.access(first, read(far)) - first
        assert hit_done < conflict_done

    def test_banks_overlap(self):
        """Two accesses to different banks overlap; same bank serializes."""
        same = DDR4Channel()
        t1 = same.access(0, read(0))
        t2 = same.access(0, read(8192 * same.n_banks))  # same bank
        serial = t2

        other = DDR4Channel()
        other.access(0, read(0))
        t4 = other.access(0, read(256))  # neighbouring bank stripe
        assert t4 < serial

    def test_stream_engages_all_banks(self):
        channel = DDR4Channel()
        banks = {channel._map(64 * i)[0] for i in range(64)}
        assert len(banks) == channel.n_banks

    def test_stats_accumulate(self):
        channel = DDR4Channel()
        channel.access(0, read(0))
        channel.access(0, write(64))
        assert channel.stats.reads == 1
        assert channel.stats.writes == 1
        assert channel.stats.accesses == 2

    def test_metadata_reads_are_prioritized(self):
        """A metadata read bypasses the bank backlog (§III latency)."""
        channel = DDR4Channel()
        # Pile work onto every bank.
        for i in range(64):
            channel.access(0, read(i * 64))
        busy_now = 0
        demand_done = channel.access(busy_now, read(0))
        md = read(0, category=AccessCategory.METADATA)
        md_done = channel.access(busy_now, md)
        assert md_done - busy_now < demand_done - busy_now

    def test_invalid_bank_count(self):
        with pytest.raises(ValueError):
            DDR4Channel(n_banks=12)

    def test_utilization_bounded(self):
        channel = DDR4Channel()
        for i in range(10):
            channel.access(0, read(i * 64))
        assert 0.0 < channel.utilization(10_000) <= 1.0


class TestSystem:
    def test_channel_interleave(self):
        system = DRAMSystem(n_channels=2)
        system.access(0, read(0))
        system.access(0, read(64))
        assert system.channels[0].stats.reads == 1
        assert system.channels[1].stats.reads == 1

    def test_aggregate_stats(self):
        system = DRAMSystem(n_channels=2)
        for i in range(8):
            system.access(0, read(i * 64))
        assert system.stats.reads == 8

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            DRAMSystem(n_channels=0)


class ReferenceChannel(DDR4Channel):
    """``access`` as it read the timing properties on every call: the
    behaviour the cached latencies must reproduce."""

    def access(self, now, access):
        t = self.timings
        bank_idx, row = self._map(access.address)
        bank = self.banks[bank_idx]

        if (access.category is AccessCategory.METADATA
                and access.kind is AccessKind.READ and access.critical):
            latency = (t.row_hit_latency if bank.open_row == row
                       else t.row_miss_latency)
            completion = now + latency + t.burst_cycles
            self.stats.reads += 1
            self.stats.busy_cycles += t.burst_cycles
            self.stats.total_wait_cycles += completion - now
            return completion

        start = max(now, bank.ready_at)
        if bank.open_row == row:
            latency = t.row_hit_latency
            self.stats.row_hits += 1
        elif bank.open_row == -1:
            latency = t.row_miss_latency
            self.stats.row_misses += 1
        else:
            latency = t.row_conflict_latency
            self.stats.row_conflicts += 1
        bank.open_row = row

        data_ready = start + latency
        burst_start = max(data_ready, self.bus_free_at)
        completion = burst_start + t.burst_cycles
        self.bus_free_at = completion
        bank.ready_at = completion

        if access.kind is AccessKind.READ:
            self.stats.reads += 1
        else:
            self.stats.writes += 1
        self.stats.busy_cycles += t.burst_cycles
        self.stats.total_wait_cycles += completion - now
        return completion


TIMINGS = [DRAMTimings(),
           DRAMTimings(cpu_freq_ghz=2.0, tCL=22, burst_length=16)]


def random_stream(seed, n=3000):
    """(now, access) pairs over a few hot rows of every bank, so the
    stream mixes row hits, misses and conflicts, reads and writes, and
    critical and non-critical metadata reads."""
    rng = random.Random(seed)
    now = 0
    for _ in range(n):
        now += rng.choice((0, 0, 1, 7, 40, 300))
        address = (rng.randrange(4) * DDR4Channel.ROW_BYTES * 16
                   + rng.randrange(16) * DDR4Channel.BANK_STRIPE
                   + rng.randrange(4) * 64)
        roll = rng.random()
        if roll < 0.15:
            access = MemAccess(AccessKind.READ, AccessCategory.METADATA,
                               address, rng.random() < 0.7)
        elif roll < 0.25:
            access = MemAccess(AccessKind.WRITE, AccessCategory.METADATA,
                               address, False)
        elif roll < 0.6:
            access = write(address)
        else:
            access = read(address, critical=rng.random() < 0.8)
        yield now, access


class TestCachedTimings:
    """``DDR4Channel`` reads its frozen timings once, at construction."""

    @pytest.mark.parametrize("timings", TIMINGS, ids=["default", "slow"])
    def test_cached_latencies_equal_the_properties(self, timings):
        channel = DDR4Channel(timings)
        assert channel._row_hit == timings.row_hit_latency
        assert channel._row_miss == timings.row_miss_latency
        assert channel._row_conflict == timings.row_conflict_latency
        assert channel._burst == timings.burst_cycles

    def test_non_default_timings_change_the_latencies(self):
        default, slow = (DDR4Channel(t) for t in TIMINGS)
        assert slow._row_hit != default._row_hit
        assert slow._burst != default._burst

    @pytest.mark.parametrize("timings", TIMINGS, ids=["default", "slow"])
    @pytest.mark.parametrize("n_channels", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_access_stream_matches_reference(self, timings, n_channels,
                                             seed):
        system = DRAMSystem(n_channels, timings)
        reference = DRAMSystem(n_channels, timings)
        reference.channels = [ReferenceChannel(timings)
                              for _ in range(n_channels)]
        for now, access in random_stream(seed):
            assert system.access(now, access) == reference.access(now, access)
        assert system.stats == reference.stats
        for channel, ref in zip(system.channels, reference.channels):
            assert channel.stats == ref.stats
            assert channel.bus_free_at == ref.bus_free_at
            assert channel.banks == ref.banks
        stats = system.stats
        assert min(stats.row_hits, stats.row_misses, stats.row_conflicts,
                   stats.reads, stats.writes) > 0
