"""Bit-Plane Compression (BPC) [Kim et al., ISCA 2016], adapted for Compresso.

BPC is a context-based compressor: it first applies a
Delta-BitPlane-XOR (DBX) transform that turns typical low-entropy data
(arrays of similar integers, pointers, floats) into mostly-zero bit
planes, then encodes each plane with a small prefix code.

The Compresso paper adapts BPC from the GPU's 128-byte lines to the
CPU's 64-byte lines (§II-A), so here a line is 16 little-endian 32-bit
words:

1. keep word 0 as the *base*, encoded with a width prefix code;
2. compute 15 successive deltas ``d[i] = w[i+1] - w[i]`` (33-bit
   two's complement);
3. transpose the deltas into 33 *delta bit-planes* (DBPs) of 15 bits;
4. XOR each DBP with its more-significant neighbour (DBX);
5. encode each DBX plane with the symbol table below.

Plane symbols (``m`` = plane width, here 15; positions use 4 bits):

=================================== ==================== =========
 pattern                             code                 bits
=================================== ==================== =========
 run of 2..33 all-zero DBX planes    ``01`` + 5-bit len   7
 single all-zero DBX plane           ``001``              3
 all-ones DBX plane                  ``00000``            5
 DBX != 0 but DBP == 0               ``00001``            5
 two consecutive ones                ``00010`` + pos      5 + 4
 single one                          ``00011`` + pos      5 + 4
 uncompressed plane                  ``1`` + raw          1 + m
=================================== ==================== =========

The paper additionally observes that always applying the transform is
suboptimal and adds a module that compresses **with and without the
transform in parallel** and picks the best (worth ~13% extra memory
savings).  ``BPCCompressor`` implements exactly that: mode 1 is the
delta transform above; mode 0 bit-plane-encodes the raw words (32
planes of 16 bits, still with the plane XOR); a 1-bit header selects
the mode, and a raw fallback guarantees the output never exceeds
``line_size * 8 + 2`` bits.

Both modes share one table transpose (``_PlaneCoder.planes``): five
256-entry "spread" lookups per value place its bits in per-plane
fields of one integer, so every DBX plane comes from a single shifted
XOR, and one ``to_bytes`` plus a struct unpack splits the planes.  The
memory models only need sizes, so ``BPCCompressor.compressed_size_bits``
counts the bits the encoder would write -- same planes, same symbol
table, same mode choice and raw cap -- without assembling a bit stream.
``compress``/``decompress`` remain the byte-exact reference that the
count is tested against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import sub
from typing import Iterator, Iterable, List, Sequence, Tuple

from .base import CompressedLine, Compressor, bytes_of
from .bitstream import BitReader, BitWriter, sign_extend

_WORD_BITS = 32

# Mode header: 2 bits (00 = raw, 01 = plane-encode raw words,
# 10 = delta transform).
_MODE_RAW = 0
_MODE_PLAIN = 1
_MODE_DELTA = 2
_MODE_BITS = 2

_RUN_LEN_BITS = 5  # runs of 2..33 zero planes, stored as len-2
_MAX_RUN = 2 + (1 << _RUN_LEN_BITS) - 1

# The parallel no-transform path only matters when the delta transform
# did poorly; below one byte-bin (64 bits) the choice cannot change any
# packing decision, so the second pass is skipped.
_PLAIN_MODE_ABOVE_BITS = 64

# The transpose spreads a value five bytes at a time: 40 bits cover
# the 33-bit deltas and the 32-bit words.
_SPREAD_BYTES = 5
# Struct codes for the plane fields, by field size in bytes.
_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _spread_tables(stride: int) -> Tuple[Tuple[int, ...], ...]:
    """Byte-lookup tables for the plane transpose.

    ``tables[k][byte]`` moves bit ``j`` of ``byte`` -- bit ``8k + j`` of
    a value -- to bit 0 of that bit's plane field, which starts at bit
    ``(8k + j) * stride``.
    """
    spread = [0] * 256
    for byte in range(1, 256):
        spread[byte] = spread[byte >> 1] << stride | byte & 1
    return tuple(
        tuple(bits << (8 * k * stride) for bits in spread)
        for k in range(_SPREAD_BYTES)
    )


def _from_bit_planes(planes: List[int], width: int) -> List[int]:
    """``width`` values from their DBP planes, MSB plane first."""
    n_planes = len(planes)
    values = [0] * width
    for p, plane in enumerate(planes):
        b = n_planes - 1 - p
        for i in range(width):
            values[i] |= ((plane >> i) & 1) << b
    return values


def _base_code(base: int) -> Tuple[int, int, int, int]:
    """``(prefix, prefix bits, payload, payload bits)`` coding the base word."""
    signed = sign_extend(base, _WORD_BITS)
    if base == 0:
        return 0b000, 3, 0, 0
    if -8 <= signed <= 7:
        return 0b001, 3, signed & 0xF, 4
    if -128 <= signed <= 127:
        return 0b010, 3, signed & 0xFF, 8
    if -(1 << 15) <= signed <= (1 << 15) - 1:
        return 0b011, 3, signed & 0xFFFF, 16
    return 0b1, 1, base, 32


def _deltas(words: Sequence[int]) -> Iterator[int]:
    """The 15 successive deltas ``w[i+1] - w[i]``.

    They are left unmasked: the transpose keeps a value's low
    ``n_planes`` bits, which for the 33 delta planes is the 33-bit two's
    complement.
    """
    return map(sub, words[1:], words)


@dataclass(frozen=True)
class _PlaneGeometry:
    """Shape of the plane encoding for one mode."""

    n_planes: int   # number of bit planes
    width: int      # bits per plane (= number of values transposed)

    @property
    def pos_bits(self) -> int:
        return max(1, (self.width - 1).bit_length())


class _PlaneCoder:
    """Encodes/decodes a sequence of DBX planes with the BPC symbol table.

    :meth:`encode` writes the symbols; :meth:`count` returns how many
    bits :meth:`encode` would write, from the same planes and the same
    symbol table, without a writer.
    """

    def __init__(self, geometry: _PlaneGeometry) -> None:
        self.geometry = geometry
        self._mask = (1 << geometry.width) - 1
        width = geometry.width
        # Each plane sits in a byte-aligned field so that one
        # ``to_bytes`` and one struct unpack split all of them.
        field_bytes = min(
            (size for size in _FIELD_CODES if 8 * size >= width), default=None
        )
        if field_bytes is None:
            raise ValueError(f"{width}-bit planes exceed the 64-bit field")
        self._stride = 8 * field_bytes
        self._spread = _spread_tables(self._stride)
        # The top lookup keeps only the bits that have a plane (bit 32
        # of a delta, none of a word).
        self._top_mask = (1 << geometry.n_planes - 8 * (_SPREAD_BYTES - 1)) - 1
        self._planes_bytes = field_bytes * geometry.n_planes
        self._unpack = struct.Struct(
            f">{geometry.n_planes}{_FIELD_CODES[field_bytes]}").unpack
        # Bits of the zero-run symbols covering a run of n planes.
        self._run_bits = tuple(
            self._count_run(n) for n in range(geometry.n_planes + 1)
        )
        # Bits of every short plane symbol, keyed by its DBX plane (the
        # DBP == 0 symbol is decided before this lookup); any other
        # nonzero plane is stored raw.
        self._raw_plane_bits = 1 + width
        short = [self._mask] + [1 << pos for pos in range(width)] + [
            0b11 << pos for pos in range(width - 1)
        ]
        self._symbol_bits = {dbx: self._plane_bits(dbx) for dbx in short}

    def planes(self, values: Iterable[int]) -> Tuple[Tuple[int, ...],
                                                     Tuple[int, ...]]:
        """DBP and DBX planes of ``values``, MSB plane first.

        A table transpose: five lookups spread the five low bytes of a
        value into the planes of their bits, all planes living in one
        int ``big`` (the plane of bit ``b`` in the field at bit
        ``b * stride``, holding bit ``b`` of ``values[i]`` at its bit
        ``i``).  The XOR of every plane with its more-significant
        neighbour is then one shifted XOR, ``big ^ (big >> stride)``.
        """
        t0, t1, t2, t3, t4 = self._spread
        top = self._top_mask
        big = 0
        for i, value in enumerate(values):
            big |= (t0[value & 0xFF] | t1[value >> 8 & 0xFF]
                    | t2[value >> 16 & 0xFF] | t3[value >> 24 & 0xFF]
                    | t4[value >> 32 & top]) << i
        dbx = big ^ (big >> self._stride)
        size = self._planes_bytes
        return (self._unpack(big.to_bytes(size, "big")),
                self._unpack(dbx.to_bytes(size, "big")))

    def encode(self, writer: BitWriter, values: Iterable[int]) -> None:
        dbps, dbxs = self.planes(values)
        run = 0
        for dbp, dbx in zip(dbps, dbxs):
            if dbx == 0:
                run += 1
                continue
            self._flush_run(writer, run)
            run = 0
            self._encode_plane(writer, dbx, dbp)
        self._flush_run(writer, run)

    def count(self, values: Iterable[int]) -> int:
        """Bits :meth:`encode` writes for ``values``."""
        dbps, dbxs = self.planes(values)
        run_bits = self._run_bits
        symbol_bits = self._symbol_bits
        raw_plane_bits = self._raw_plane_bits
        bits = run = 0
        for dbp, dbx in zip(dbps, dbxs):
            if dbx == 0:
                run += 1
                continue
            bits += run_bits[run]
            run = 0
            # A vanished DBP takes the 5-bit ``00001`` symbol.
            bits += symbol_bits.get(dbx, raw_plane_bits) if dbp else 5
        return bits + run_bits[run]

    def decode(self, reader: BitReader) -> List[int]:
        geo = self.geometry
        planes: List[int] = []
        prev_dbp = 0
        while len(planes) < geo.n_planes:
            dbp = self._decode_plane(reader, prev_dbp, planes)
            if dbp is None:
                continue  # a run already appended planes
            planes.append(dbp)
            prev_dbp = dbp
        return _from_bit_planes(planes, geo.width)

    def _flush_run(self, writer: BitWriter, run: int) -> None:
        while run >= 2:
            chunk = min(run, _MAX_RUN)
            writer.write(0b01, 2)
            writer.write(chunk - 2, _RUN_LEN_BITS)
            run -= chunk
        if run == 1:
            writer.write(0b001, 3)

    @staticmethod
    def _count_run(run: int) -> int:
        """Bits :meth:`_flush_run` writes for ``run`` zero planes."""
        bits = 7 * (run // _MAX_RUN)
        left = run % _MAX_RUN
        return bits + (7 if left >= 2 else 3 * left)

    def _plane_bits(self, dbx: int) -> int:
        """Bits :meth:`_encode_plane` writes for ``dbx`` when DBP != 0."""
        if dbx == self._mask:
            return 5
        if (self._single_one_position(dbx) is not None
                or self._two_consecutive_ones_position(dbx) is not None):
            return 5 + self.geometry.pos_bits
        return self._raw_plane_bits

    def _encode_plane(self, writer: BitWriter, dbx: int, dbp: int) -> None:
        geo = self.geometry
        if dbp == 0:  # dbx != 0 here, but the DBP itself vanished
            writer.write(0b00001, 5)
            return
        if dbx == self._mask:
            writer.write(0b00000, 5)
            return
        single = self._single_one_position(dbx)
        if single is not None:
            writer.write(0b00011, 5)
            writer.write(single, geo.pos_bits)
            return
        double = self._two_consecutive_ones_position(dbx)
        if double is not None:
            writer.write(0b00010, 5)
            writer.write(double, geo.pos_bits)
            return
        writer.write(1, 1)
        writer.write(dbx, geo.width)

    def _decode_plane(self, reader: BitReader, prev_dbp: int, planes: List[int]):
        geo = self.geometry
        first = reader.read(1)
        if first == 1:  # raw plane
            dbx = reader.read(geo.width)
            return dbx ^ prev_dbp
        second = reader.read(1)
        if second == 1:  # '01' zero run
            run = reader.read(_RUN_LEN_BITS) + 2
            planes.extend([prev_dbp] * run)
            return None
        third = reader.read(1)
        if third == 1:  # '001' single zero plane
            planes.append(prev_dbp)
            return None
        # '000' + 2 selector bits
        selector = reader.read(2)
        if selector == 0b00:  # all ones
            return self._mask ^ prev_dbp
        if selector == 0b01:  # DBP == 0
            return 0
        if selector == 0b10:  # two consecutive ones
            pos = reader.read(geo.pos_bits)
            return (0b11 << pos) ^ prev_dbp
        pos = reader.read(geo.pos_bits)  # single one
        return (1 << pos) ^ prev_dbp

    @staticmethod
    def _single_one_position(plane: int):
        if plane and plane & (plane - 1) == 0:
            return plane.bit_length() - 1
        return None

    def _two_consecutive_ones_position(self, plane: int):
        low = plane & -plane
        if plane == low | (low << 1) and (low << 1) <= self._mask:
            return low.bit_length() - 1
        return None


class BPCCompressor(Compressor):
    """Bit-Plane Compression with the Compresso best-of-two-modes tweak.

    Set ``transform_only=True`` to model the unmodified BPC of Kim et
    al. (always applies the delta transform); the default models the
    Compresso-modified compressor.
    """

    name = "bpc"

    def __init__(self, line_size: int = 64, transform_only: bool = False) -> None:
        super().__init__(line_size)
        self.transform_only = transform_only
        n_words = line_size // 4
        self._delta_geo = _PlaneGeometry(n_planes=_WORD_BITS + 1, width=n_words - 1)
        self._plain_geo = _PlaneGeometry(n_planes=_WORD_BITS, width=n_words)
        self._delta_coder = _PlaneCoder(self._delta_geo)
        self._plain_coder = _PlaneCoder(self._plain_geo)
        self._words = struct.Struct(f"<{n_words}I").unpack
        self._raw_bits = line_size * 8 + _MODE_BITS

    def compress(self, data: bytes) -> CompressedLine:
        self._check_input(data)
        words = self._words(data)

        best = self._compress_delta(words)
        if (not self.transform_only
                and best.bit_length > _PLAIN_MODE_ABOVE_BITS):
            plain = self._compress_plain(words)
            if plain.bit_length < best.bit_length:
                best = plain

        if best.bit_length >= self._raw_bits:
            writer = BitWriter()
            writer.write(_MODE_RAW, _MODE_BITS)
            writer.write(int.from_bytes(data, "big"), self.line_size * 8)
            best = writer
        bits = best.to_bits()
        return CompressedLine(self.name, bits.length, bits, self.line_size)

    def compressed_size_bits(self, data: bytes) -> int:
        """``compress(data).size_bits``, counted without building the stream.

        Same modes and the same choice between them as :meth:`compress`:
        plain mode only when delta mode exceeds 64 bits, a strict ``<``
        between the modes, and the raw cap.
        """
        self._check_input(data)
        words = self._words(data)
        _, prefix_bits, _, payload_bits = _base_code(words[0])
        best = (_MODE_BITS + prefix_bits + payload_bits
                + self._delta_coder.count(_deltas(words)))
        if not self.transform_only and best > _PLAIN_MODE_ABOVE_BITS:
            plain = _MODE_BITS + self._plain_coder.count(words)
            if plain < best:
                best = plain
        return min(best, self._raw_bits)

    def decompress(self, line: CompressedLine) -> bytes:
        self._check_line(line)
        reader = BitReader(line.payload)
        mode = reader.read(_MODE_BITS)
        if mode == _MODE_RAW:
            return reader.read(line.original_size * 8).to_bytes(
                line.original_size, "big"
            )
        if mode == _MODE_PLAIN:
            words = self._plain_coder.decode(reader)
            return bytes_of(words, 4)
        base = self._decode_base(reader)
        deltas_tc = self._delta_coder.decode(reader)
        words = [base]
        for delta_tc in deltas_tc:
            delta = sign_extend(delta_tc, _WORD_BITS + 1)
            words.append((words[-1] + delta) & 0xFFFFFFFF)
        return bytes_of(words, 4)

    # -- mode 2: delta + bit-plane + xor ---------------------------------

    def _compress_delta(self, words: Sequence[int]) -> BitWriter:
        writer = BitWriter()
        writer.write(_MODE_DELTA, _MODE_BITS)
        prefix, prefix_bits, payload, payload_bits = _base_code(words[0])
        writer.write(prefix, prefix_bits)
        writer.write(payload, payload_bits)
        self._delta_coder.encode(writer, _deltas(words))
        return writer

    # -- mode 1: bit-plane + xor on raw words ----------------------------

    def _compress_plain(self, words: Sequence[int]) -> BitWriter:
        writer = BitWriter()
        writer.write(_MODE_PLAIN, _MODE_BITS)
        self._plain_coder.encode(writer, words)
        return writer

    # -- base word prefix code -------------------------------------------

    @staticmethod
    def _decode_base(reader: BitReader) -> int:
        if reader.read(1) == 1:
            return reader.read(32)
        selector = reader.read(2)
        if selector == 0b00:
            return 0
        if selector == 0b01:
            return sign_extend(reader.read(4), 4) & 0xFFFFFFFF
        if selector == 0b10:
            return sign_extend(reader.read(8), 8) & 0xFFFFFFFF
        return sign_extend(reader.read(16), 16) & 0xFFFFFFFF


def compression_ratio(compressor: Compressor, lines) -> float:
    """Aggregate compression ratio over an iterable of 64-byte lines."""
    total_raw = 0
    total_compressed = 0
    for line in lines:
        result = compressor.compress(line)
        total_raw += len(line) * 8
        total_compressed += max(result.size_bits, 1)
    if total_compressed == 0:
        return float("inf")
    return total_raw / total_compressed
