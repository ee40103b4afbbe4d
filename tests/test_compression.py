"""Round-trip and behavioural tests for every compression algorithm."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    BDICompressor,
    BPCCompressor,
    BestOfCompressor,
    CompressedLine,
    CPackCompressor,
    FPCCompressor,
    LZCompressor,
    ZeroCompressor,
    available_algorithms,
    is_zero_line,
    make_compressor,
)

ALL_COMPRESSORS = [
    BPCCompressor(),
    BPCCompressor(transform_only=True),
    BDICompressor(),
    FPCCompressor(),
    CPackCompressor(),
    LZCompressor(),
    ZeroCompressor(),
]

IDS = [f"{c.name}{'-t' if getattr(c, 'transform_only', False) else ''}"
       for c in ALL_COMPRESSORS]


def interesting_lines():
    """Hand-picked lines covering each algorithm's special cases."""
    yield bytes(64)                                        # all zero
    yield b"\xff" * 64                                     # all ones
    yield bytes(range(64))                                 # byte ramp
    yield struct.pack("<16I", *[7] * 16)                   # repeated word
    yield struct.pack("<16I", *range(100, 116))            # small deltas
    yield struct.pack("<16i", *[-1] * 16)                  # negative small
    yield struct.pack("<8Q", *[0x7F0000000000 + i * 64 for i in range(8)])
    yield struct.pack("<16I", *[0xDEADBEEF] * 16)
    yield struct.pack("<16I", *([0] * 8 + [0xFFFFFFFF] * 8))
    yield (b"hello world! " * 5)[:64]
    yield struct.pack("<16I", *[1 << 31] * 16)             # sign boundary
    yield struct.pack("<16I", 0xFFFFFFFF, *[0] * 15)       # big then zeros


@pytest.mark.parametrize("compressor", ALL_COMPRESSORS, ids=IDS)
class TestRoundTrip:
    def test_interesting_lines(self, compressor):
        for line in interesting_lines():
            compressed = compressor.compress(line)
            assert compressor.decompress(compressed) == line

    def test_rejects_wrong_length(self, compressor):
        with pytest.raises(ValueError):
            compressor.compress(bytes(63))

    def test_rejects_foreign_payload(self, compressor):
        foreign = CompressedLine("definitely-not-real", 8, None)
        with pytest.raises(ValueError):
            compressor.decompress(foreign)

    def test_size_bytes_rounds_up(self, compressor):
        line = bytes(range(64))
        compressed = compressor.compress(line)
        assert compressed.size_bytes == (compressed.size_bits + 7) // 8
        for sample in interesting_lines():
            assert (compressor.compressed_size_bytes(sample)
                    == compressor.compress(sample).size_bytes)


@pytest.mark.parametrize("compressor", ALL_COMPRESSORS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=64, max_size=64))
def test_random_roundtrip(compressor, data):
    """Property: decompress(compress(x)) == x for arbitrary bytes."""
    assert compressor.decompress(compressor.compress(data)) == data


@settings(max_examples=40, deadline=None)
@given(words=st.lists(st.integers(min_value=-2000, max_value=2000),
                      min_size=16, max_size=16))
def test_low_entropy_compresses_well(words):
    """BPC must shrink small-integer arrays below half the line."""
    line = struct.pack("<16i", *words)
    bpc = BPCCompressor()
    assert bpc.compress(line).size_bits < 256
    assert bpc.decompress(bpc.compress(line)) == line


class TestZeroHandling:
    def test_is_zero_line(self):
        assert is_zero_line(bytes(64))
        assert not is_zero_line(bytes(63) + b"\x01")

    def test_zero_line_sizes(self):
        zero = bytes(64)
        assert ZeroCompressor().compress(zero).size_bits == 0
        assert BDICompressor().compress(zero).size_bits == 8
        assert BPCCompressor().compress(zero).size_bits <= 16


class TestBPCSpecifics:
    def test_modified_beats_or_matches_transform_only(self):
        """The with/without-transform module never loses to plain BPC."""
        modified = BPCCompressor()
        plain = BPCCompressor(transform_only=True)
        for line in interesting_lines():
            assert (modified.compress(line).size_bits
                    <= plain.compress(line).size_bits)

    def test_never_exceeds_raw_plus_header(self):
        import random
        rng = random.Random(42)
        modified = BPCCompressor()
        for _ in range(50):
            line = bytes(rng.getrandbits(8) for _ in range(64))
            assert modified.compress(line).size_bits <= 64 * 8 + 2

    def test_delta_friendly_data(self):
        line = struct.pack("<16I", *[10_000 + 3 * i for i in range(16)])
        assert BPCCompressor().compress(line).size_bits < 100

    # -- the size-only count must equal the reference encoder's size --

    BOTH_MODES = (BPCCompressor(), BPCCompressor(transform_only=True))

    def assert_count_matches(self, line):
        for bpc in self.BOTH_MODES:
            assert (bpc.compressed_size_bits(line)
                    == bpc.compress(line).size_bits), (bpc.transform_only, line)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(min_size=64, max_size=64))
    def test_count_matches_compress_on_random_lines(self, data):
        self.assert_count_matches(data)

    @settings(max_examples=200, deadline=None)
    @given(base=st.integers(min_value=0, max_value=(1 << 32) - 1),
           deltas=st.lists(st.integers(min_value=-300, max_value=300),
                           min_size=15, max_size=15))
    def test_count_matches_compress_on_delta_lines(self, base, deltas):
        words = [base]
        for delta in deltas:
            words.append((words[-1] + delta) & 0xFFFFFFFF)
        self.assert_count_matches(struct.pack("<16I", *words))

    @staticmethod
    def words_line(words):
        return struct.pack("<16I", *(w & 0xFFFFFFFF for w in words))

    def test_count_matches_compress_on_edge_cases(self):
        import random
        bpc = BPCCompressor()
        # A line of uniform random bytes hits the 514-bit raw cap.
        rng = random.Random(5)
        capped = bytes(rng.getrandbits(8) for _ in range(64))
        assert bpc.compress(capped).size_bits == 64 * 8 + 2
        edge_lines = [
            bytes(64),                                   # zero line
            self.words_line([0x12345678] * 16),          # 33-plane zero run
            self.words_line([100 - i for i in range(16)]),  # all-ones DBX
            self.words_line([0] * 15 + [1]),             # single one, top position
            self.words_line([0] * 14 + [1, 2]),          # two ones, top edge
            self.words_line([1] + [0] * 15),             # single one, bottom
            self.words_line([0] * 15 + [0x80000000]),    # a delta of -2**31
            capped,
        ]
        for base in (-9, -8, 7, 8, -129, -128, 127, 128,
                     -(1 << 15) - 1, -(1 << 15), (1 << 15) - 1, 1 << 15):
            edge_lines.append(self.words_line([base] * 16))
            edge_lines.append(self.words_line([base] + [0] * 15))
        for line in edge_lines:
            self.assert_count_matches(line)

    def test_count_matches_compress_on_benchmark_page_images(self):
        """Every line of each benchmark workload's seed-1 page images."""
        import sys
        from pathlib import Path

        from repro.workloads.profiles import PROFILES
        from repro.workloads.tracegen import Workload

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                               / "perfbench"))
        import scenarios

        lines = set()
        for workload in scenarios.WORKLOADS.values():
            for index, name in enumerate(workload.benchmarks):
                # Multicore mixes seed core i with seed + i.
                seed = scenarios.DEFAULT_SEED + (index if workload.mix else 0)
                images = Workload(PROFILES[name], scale=scenarios.SCALE,
                                  seed=seed)
                for page in range(images.pages):
                    lines.update(images.page_lines(page))
        assert len(lines) > 1000
        for line in lines:
            self.assert_count_matches(line)


class TestBDISpecifics:
    def test_repeated_qword(self):
        line = struct.pack("<8Q", *[0x1122334455667788] * 8)
        compressed = BDICompressor().compress(line)
        assert compressed.size_bits == 64  # rep encoding

    def test_base8_delta1(self):
        base = 1 << 40
        line = struct.pack("<8Q", *[base + i for i in range(8)])
        compressed = BDICompressor().compress(line)
        assert compressed.size_bits == 16 * 8  # 8B base + 8 x 1B deltas

    def test_incompressible_falls_back_to_raw(self):
        import random
        rng = random.Random(7)
        line = bytes(rng.getrandbits(8) for _ in range(64))
        assert BDICompressor().compress(line).size_bits == 512


class TestFPCSpecifics:
    def test_zero_run_encoding(self):
        line = bytes(64)
        # 16 zero words = 2 runs of 8 -> 2 x 6 bits.
        assert FPCCompressor().compress(line).size_bits == 12

    def test_sign_extended_words(self):
        line = struct.pack("<16i", *[-3] * 16)
        compressed = FPCCompressor().compress(line)
        assert compressed.size_bits == 16 * 7  # prefix+4 bits per word


class TestCPackSpecifics:
    def test_dictionary_hits(self):
        line = struct.pack("<16I", *[0xABCD1234] * 16)
        compressed = CPackCompressor().compress(line)
        # First word literal (34 bits), 15 dictionary hits (6 bits each).
        assert compressed.size_bits == 34 + 15 * 6


class TestLZSpecifics:
    def test_run_compression(self):
        line = b"\x42" * 64
        compressed = LZCompressor().compress(line)
        assert compressed.size_bits < 150


class TestBestOf:
    def test_picks_smallest(self):
        best = BestOfCompressor([BPCCompressor(), BDICompressor()])
        for line in interesting_lines():
            result = best.compress(line)
            individual = min(
                BPCCompressor().compress(line).size_bits,
                BDICompressor().compress(line).size_bits,
            )
            assert result.size_bits == individual
            assert best.decompress(result) == line

    def test_rejects_duplicate_children(self):
        with pytest.raises(ValueError):
            BestOfCompressor([BPCCompressor(), BPCCompressor()])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BestOfCompressor([])


class TestRegistry:
    def test_all_names_construct(self):
        for name in available_algorithms():
            compressor = make_compressor(name)
            line = bytes(range(64))
            assert compressor.decompress(compressor.compress(line)) == line

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_compressor("gzip")
