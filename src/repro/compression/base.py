"""Compressor interface shared by every algorithm in this package.

A compressor maps a fixed-size cache line (``bytes``) to a
:class:`CompressedLine` carrying the exact encoded bit stream, and back.
The memory-system models only consume ``size_bits``/``size_bytes``, but
every algorithm implements true decode so the test suite can verify
round trips.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from .bitstream import Bits

#: Cache line size used throughout the reproduction (paper §II-A).
LINE_SIZE = 64


@dataclass(frozen=True)
class CompressedLine:
    """Result of compressing one cache line.

    Attributes:
        algorithm: name of the producing algorithm.
        size_bits: exact encoded size in bits (0 for an all-zero line
            under algorithms with a zero special case).
        payload: the encoded bit stream, sufficient to decompress.
        original_size: size of the uncompressed line in bytes.
    """

    algorithm: str
    size_bits: int
    payload: Bits
    original_size: int = LINE_SIZE

    @property
    def size_bytes(self) -> int:
        """Encoded size rounded up to whole bytes (what packing uses)."""
        return (self.size_bits + 7) // 8

    @property
    def ratio(self) -> float:
        """Compression ratio (>= 1.0 means the line shrank)."""
        if self.size_bits == 0:
            return float("inf")
        return self.original_size * 8 / self.size_bits


class Compressor(abc.ABC):
    """Abstract cache-line compressor."""

    #: Short algorithm name, e.g. ``"bpc"``.
    name: str = "abstract"

    def __init__(self, line_size: int = LINE_SIZE) -> None:
        if line_size <= 0 or line_size % 4 != 0:
            raise ValueError(f"line_size must be a positive multiple of 4, got {line_size}")
        self.line_size = line_size

    @abc.abstractmethod
    def compress(self, data: bytes) -> CompressedLine:
        """Compress one cache line; never returns more than raw size + header."""

    @abc.abstractmethod
    def decompress(self, line: CompressedLine) -> bytes:
        """Invert :meth:`compress` exactly."""

    def batch_compress(self, lines) -> list:
        """Compress N lines; element i equals ``compress(lines[i])``.

        The default is a scalar loop; :class:`BestOfCompressor` and the
        :mod:`repro.compression.vector` kernels override this with a
        numpy fast path (docs/KERNELS.md).
        """
        return [self.compress(bytes(line)) for line in lines]

    def compressed_size_bits(self, data: bytes) -> int:
        """Encoded size of ``data`` in bits.

        Subclasses may count the size without building the bit stream;
        the result must equal ``compress(data).size_bits``.
        """
        return self.compress(data).size_bits

    def compressed_size_bytes(self, data: bytes) -> int:
        """Encoded size rounded up to whole bytes (what packing uses).

        The single size entry point of the memory models; subclasses
        override :meth:`compressed_size_bits`, not this.
        """
        return (self.compressed_size_bits(data) + 7) // 8

    def _check_input(self, data: bytes) -> None:
        if len(data) != self.line_size:
            raise ValueError(
                f"{self.name}: expected a {self.line_size}-byte line, got {len(data)} bytes"
            )

    def _check_line(self, line: CompressedLine) -> None:
        if line.algorithm != self.name:
            raise ValueError(
                f"cannot decompress {line.algorithm!r} payload with {self.name!r}"
            )


def words_of(data: bytes, word_bytes: int = 4) -> list:
    """Split a line into little-endian unsigned words."""
    return [
        int.from_bytes(data[i : i + word_bytes], "little")
        for i in range(0, len(data), word_bytes)
    ]


def bytes_of(words, word_bytes: int = 4) -> bytes:
    """Inverse of :func:`words_of`."""
    return b"".join(int(w).to_bytes(word_bytes, "little") for w in words)
