"""DDR4 channel timing model (paper Tab. III).

A deliberately compact but structurally faithful model: banks with open
rows, tRCD/tRP/tCL timing, a shared data bus occupied for BL/2 DRAM
cycles per burst, and FR-FCFS-ish service where requests wait for their
bank and the bus.  Everything is expressed in **CPU cycles** (3 GHz core
vs. 1333 MHz DDR4-2666 command clock), matching how the simulator
accumulates stalls.

This is the substitution for the authors' zsim+DRAM setup: we do not
model refresh, rank-to-rank penalties or write-to-read turnarounds, but
we do capture the three effects the paper's results hinge on — row
locality, bank parallelism and bandwidth contention from the extra
compression traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .request import AccessCategory, AccessKind, MemAccess


@dataclass(frozen=True)
class DRAMTimings:
    """DDR4-2666 timings from Tab. III, converted to CPU cycles."""

    cpu_freq_ghz: float = 3.0
    dram_freq_mhz: float = 1333.0        # command clock of DDR4-2666
    tCL: int = 18                        # DRAM cycles
    tRCD: int = 18
    tRP: int = 18
    burst_length: int = 8

    @property
    def cycles_per_dram_clock(self) -> float:
        return self.cpu_freq_ghz * 1000.0 / self.dram_freq_mhz

    def _cpu(self, dram_cycles: float) -> int:
        return max(1, round(dram_cycles * self.cycles_per_dram_clock))

    @property
    def row_hit_latency(self) -> int:
        return self._cpu(self.tCL)

    @property
    def row_miss_latency(self) -> int:
        return self._cpu(self.tRCD + self.tCL)

    @property
    def row_conflict_latency(self) -> int:
        return self._cpu(self.tRP + self.tRCD + self.tCL)

    @property
    def burst_cycles(self) -> int:
        """Bus occupancy of one 64-byte transfer (BL/2 DRAM clocks)."""
        return self._cpu(self.burst_length / 2)


@dataclass
class _Bank:
    open_row: int = -1
    ready_at: int = 0


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    busy_cycles: int = 0
    total_wait_cycles: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


class DDR4Channel:
    """One DDR4 channel: banks + shared data bus."""

    #: Address mapping: banks interleave at 256-byte stripes (as real
    #: controllers do, so streams engage all banks in parallel); the row
    #: id covers an 8 KB region, so a stream's return to a bank is a row
    #: hit.
    ROW_BYTES = 8192
    BANK_STRIPE = 256

    def __init__(self, timings: DRAMTimings = DRAMTimings(), n_banks: int = 16) -> None:
        if n_banks <= 0 or n_banks & (n_banks - 1):
            raise ValueError("n_banks must be a positive power of two")
        self.timings = timings
        # The timings are frozen: their CPU-cycle figures are computed
        # here once rather than on every access.
        self._row_hit = timings.row_hit_latency
        self._row_miss = timings.row_miss_latency
        self._row_conflict = timings.row_conflict_latency
        self._burst = timings.burst_cycles
        self.n_banks = n_banks
        self.banks: List[_Bank] = [_Bank() for _ in range(n_banks)]
        self.bus_free_at = 0
        self.stats = DRAMStats()

    def _map(self, address: int):
        """Return (bank index, row index) for a byte address."""
        bank = (address // self.BANK_STRIPE) % self.n_banks
        row = address // self.ROW_BYTES
        return bank, row

    def access(self, now: int, access: MemAccess) -> int:
        """Issue one access arriving at CPU cycle ``now``.

        Returns the completion cycle (data available / write retired).

        Metadata reads are *prioritized*: they are latency-critical
        64-byte fetches into a small, row-hot region, so an FR-FCFS
        scheduler serves them ahead of the bank backlog.  They still
        consume bus bandwidth.
        """
        bank_idx, row = self._map(access.address)
        bank = self.banks[bank_idx]
        stats = self.stats
        burst = self._burst

        if (access.category is AccessCategory.METADATA
                and access.kind is AccessKind.READ and access.critical):
            latency = (self._row_hit if bank.open_row == row
                       else self._row_miss)
            completion = now + latency + burst
            stats.reads += 1
            stats.busy_cycles += burst
            stats.total_wait_cycles += completion - now
            return completion

        start = max(now, bank.ready_at)
        if bank.open_row == row:
            latency = self._row_hit
            stats.row_hits += 1
        elif bank.open_row == -1:
            latency = self._row_miss
            stats.row_misses += 1
        else:
            latency = self._row_conflict
            stats.row_conflicts += 1
        bank.open_row = row

        data_ready = start + latency
        # The burst needs the shared bus.
        burst_start = max(data_ready, self.bus_free_at)
        completion = burst_start + burst
        self.bus_free_at = completion
        bank.ready_at = completion

        if access.kind is AccessKind.READ:
            stats.reads += 1
        else:
            stats.writes += 1
        stats.busy_cycles += burst
        stats.total_wait_cycles += completion - now
        return completion

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of time the data bus was busy."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.stats.busy_cycles / elapsed_cycles)


class DRAMSystem:
    """One or more channels, selected by address interleaving."""

    def __init__(self, n_channels: int = 1,
                 timings: DRAMTimings = DRAMTimings(),
                 n_banks: int = 16) -> None:
        if n_channels <= 0:
            raise ValueError("need at least one channel")
        self.channels = [DDR4Channel(timings, n_banks) for _ in range(n_channels)]

    def access(self, now: int, access: MemAccess) -> int:
        channel = (access.address // 64) % len(self.channels)
        return self.channels[channel].access(now, access)

    @property
    def stats(self) -> DRAMStats:
        total = DRAMStats()
        for channel in self.channels:
            s = channel.stats
            total.reads += s.reads
            total.writes += s.writes
            total.row_hits += s.row_hits
            total.row_misses += s.row_misses
            total.row_conflicts += s.row_conflicts
            total.busy_cycles += s.busy_cycles
            total.total_wait_cycles += s.total_wait_cycles
        return total
