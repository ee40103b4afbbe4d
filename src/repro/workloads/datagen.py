"""Synthetic memory-content generation (the SPEC/graph trace substitute).

The paper's experiments need real memory *contents* — compression
ratios, overflow behaviour and zero-line rates all derive from the
bytes.  We cannot ship SPEC CPU2006 memory dumps, so each benchmark is
modeled as a mix of *data classes* whose BPC compressibility spans the
same range the paper reports (incompressible ~1x up to zeusmp's ~7x):

=============== ====================================== ================
 class           models                                 BPC behaviour
=============== ====================================== ================
 ZERO            untouched / zeroed allocations         free (0 bits)
 INT_SMALL       counters, small-domain arrays          ~10-25x
 INT_DELTA       index arrays, sequential ids           ~8-20x
 POINTER         heap pointer fields, 16 B-aligned      ~3-6x
 FLOAT           FP arrays w/ shared exponents          ~1.3-2.5x
 TEXT            ASCII buffers                          ~1.5-2.5x
 SPARSE          mostly-zero structs                    ~4-10x
 RANDOM          encrypted/compressed/hashed data       ~1x
=============== ====================================== ================

Lines are drawn from per-class *pools* of deterministic pseudo-random
lines.  Pools keep the number of distinct byte strings bounded, which
(a) matches real programs, where values repeat heavily, and (b) lets
the controller's compressed-size memoization work.

Every random draw is keyed: the bytes at a coordinate depend only on
``stable_seed(name, *key)``, never on which coordinates were drawn
before.  Each :class:`PageImageGenerator` owns one ``RandomState`` and
reseeds it per keyed draw (``rng.seed(stable_seed(...))`` seeds MT19937
exactly as a fresh construction does, so the draws are identical); its
pools draw through the same RNG.  Never construct an RNG per draw:
construction costs ~70x a reseed and would dominate a simulation's
host time.  The seeds come from a sha256 state per (generator, kind)
or (pool context, class) that has already hashed the key's head
(``stable_seed_prefix``); a draw copies it and hashes only its tail,
which gives ``stable_seed`` of the whole key.

What a draw decides is drawn once.  Page classes are memoized per page.
The per-line ``hetero`` and ``zline`` outcomes are memoized per page as
two (known, value) bit masks, so a re-read or a writeback of a line
reseeds nothing; both memos are bounded by the footprint.  Line bytes
are not memoized (they change with the version); they come from the
pools, whose lines :func:`make_line` draws with one vector ``randint``
per class rather than one scalar numpy call per value.
"""

from __future__ import annotations

import enum
import struct
from typing import Dict, List, Optional

import numpy as np

from .._util import prefixed_seed, stable_seed, stable_seed_prefix

LINE_SIZE = 64
LINES_PER_PAGE = 64


class LineClass(enum.Enum):
    """Data classes with distinct compressibility signatures."""

    ZERO = "zero"
    INT_SMALL = "int_small"
    INT_DELTA = "int_delta"
    POINTER = "pointer"
    FLOAT = "float"
    TEXT = "text"
    SPARSE = "sparse"
    RANDOM = "random"


#: Draw tables of :func:`make_line`; every one is immutable.
_DELTA_STRIDES = (1, 2, 4, 8, 16)
_FLOAT_EXPONENTS = (0.25, 1.0, 4.0)
_TEXT_ALPHABET = np.frombuffer(b"etaoin shrdlucmfwypvbgkjqxz,.ETAOIN",
                               dtype=np.uint8)
#: (word slot, value) bounds of one SPARSE field.
_SPARSE_FIELD = (14, 1 << 16)


def make_line(line_class: LineClass, rng: np.random.RandomState) -> bytes:
    """Generate one 64-byte line of the given class.

    Each class draws its values in one vector ``randint``, which takes
    the same MT19937 words, in the same order and with the same
    rejections, as one scalar draw per value: the bytes and the state
    ``rng`` is left in match a draw-by-draw generator.
    """
    if line_class is LineClass.ZERO:
        return bytes(LINE_SIZE)
    if line_class is LineClass.INT_SMALL:
        base = int(rng.randint(0, 4096))
        return (base + rng.randint(0, 64, 16)).astype("<u4").tobytes()
    if line_class is LineClass.INT_DELTA:
        base = int(rng.randint(0, 1 << 24))
        stride = _DELTA_STRIDES[rng.randint(0, len(_DELTA_STRIDES))]
        return struct.pack("<16I", *range(base, base + 16 * stride, stride))
    if line_class is LineClass.POINTER:
        # 64-bit pointers into one object arena: shared high bits,
        # 64-byte-aligned objects a small stride apart.
        arena = 0x7F00_0000_0000 + int(rng.randint(0, 256)) * (1 << 20)
        base = arena + int(rng.randint(0, 1 << 10)) * 64
        return (base + 64 * rng.randint(0, 32, 8)).astype("<u8").tobytes()
    if line_class is LineClass.FLOAT:
        # float32 arrays with a shared exponent and coarsely quantized
        # mantissas — typical of physical-simulation state, where BPC's
        # bit-plane transform exposes the idle mantissa bits.
        exponent = _FLOAT_EXPONENTS[rng.randint(0, len(_FLOAT_EXPONENTS))]
        values = exponent * (rng.randint(0, 512, 16) / 256.0)
        return values.astype("<f4").tobytes()
    if line_class is LineClass.TEXT:
        indices = rng.randint(0, len(_TEXT_ALPHABET), LINE_SIZE)
        return _TEXT_ALPHABET[indices].tobytes()
    if line_class is LineClass.SPARSE:
        # 1-3 (slot, value) fields, drawn in that order; a later field
        # overwrites an earlier one in the same slot.
        fields = int(rng.randint(1, 4))
        draws = rng.randint(0, _SPARSE_FIELD * fields).tolist()
        line = bytearray(LINE_SIZE)
        for slot, value in zip(draws[::2], draws[1::2]):
            line[4 * slot : 4 * slot + 4] = value.to_bytes(4, "little")
        return bytes(line)
    if line_class is LineClass.RANDOM:
        return rng.bytes(LINE_SIZE)
    raise ValueError(f"unknown line class {line_class}")


class LinePool:
    """A bounded pool of deterministic lines for one (context, class).

    Slot ``s`` is drawn from ``rng`` reseeded with
    ``stable_seed(context, class, s)``; ``rng`` is shared with the
    owning generator, which reseeds it before each of its own draws.
    """

    def __init__(self, context: str, line_class: LineClass,
                 rng: np.random.RandomState, size: int = 512) -> None:
        self.context = context
        self.line_class = line_class
        self.size = size
        self._rng = rng
        self._seed_prefix = stable_seed_prefix(context, line_class.value)
        self._lines: Dict[int, bytes] = {}

    def line(self, index: int) -> bytes:
        slot = index % self.size
        cached = self._lines.get(slot)
        if cached is None:
            self._rng.seed(prefixed_seed(self._seed_prefix, slot))
            cached = make_line(self.line_class, self._rng)
            self._lines[slot] = cached
        return cached


class PageImageGenerator:
    """Materializes page contents for one benchmark run.

    A page is assigned a dominant class from ``mix`` (a class→weight
    dict); individual lines follow the page's class, with a
    per-benchmark fraction of zero lines sprinkled in (modeling
    partially initialized structures — leslie3d's 43% and soplex's 25%
    zero lines come from here).

    ``line(page, line, version)`` is fully deterministic, so any
    (re)read of the same coordinates yields identical bytes.
    """

    def __init__(self, name: str, mix: Dict[LineClass, float],
                 zero_line_fraction: float = 0.0,
                 mixed_fraction: float = 0.08,
                 pool_size: int = 512) -> None:
        if not mix:
            raise ValueError("page class mix must not be empty")
        total = sum(mix.values())
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        self.name = name
        self.classes = sorted(mix, key=lambda c: c.value)
        self.weights = [mix[c] / total for c in self.classes]
        self.zero_line_fraction = zero_line_fraction
        self.mixed_fraction = mixed_fraction
        # The one RNG behind every draw, the pools' included; the seed
        # here is never drawn from, since every draw reseeds first.
        self._rng = np.random.RandomState(stable_seed(name))
        self._seed_prefixes = {
            kind: stable_seed_prefix(name, kind)
            for kind in ("pageclass", "secondary", "hetero", "zline")
        }
        self._pools: Dict[LineClass, LinePool] = {
            cls: LinePool(name, cls, self._rng, pool_size)
            for cls in LineClass
        }
        self._page_classes: Dict[int, LineClass] = {}
        self._secondary_classes: Dict[int, LineClass] = {}
        # page -> [known, value] bit masks (bit ``line``) of the
        # per-line hetero / zline outcomes.
        self._hetero_lines: Dict[int, List[int]] = {}
        self._zero_lines: Dict[int, List[int]] = {}

    def _keyed(self, kind: str, *key) -> np.random.RandomState:
        """The RNG, reseeded as
        ``RandomState(stable_seed(name, kind, *key))``."""
        self._rng.seed(prefixed_seed(self._seed_prefixes[kind], *key))
        return self._rng

    def _draw_class(self, memo: Dict[int, LineClass], kind: str,
                    page: int) -> LineClass:
        cls = memo.get(page)
        if cls is None:
            rng = self._keyed(kind, page)
            cls = self.classes[
                int(rng.choice(len(self.classes), p=self.weights))
            ]
            memo[page] = cls
        return cls

    def _line_draw(self, memo: Dict[int, List[int]], kind: str,
                   fraction: float, page: int, line: int) -> bool:
        """``rand() < fraction`` of the keyed (kind, page, line) draw,
        drawn once per line and then read from the page's masks."""
        masks = memo.get(page)
        if masks is None:
            masks = memo[page] = [0, 0]
        bit = 1 << line
        if masks[0] & bit:
            return bool(masks[1] & bit)
        hit = self._keyed(kind, page, line).rand() < fraction
        masks[0] |= bit
        if hit:
            masks[1] |= bit
        return hit

    def page_class(self, page: int) -> LineClass:
        return self._draw_class(self._page_classes, "pageclass", page)

    def secondary_class(self, page: int) -> LineClass:
        """Minority class sprinkled into a page (real pages are not
        perfectly homogeneous — e.g. headers inside data arrays)."""
        return self._draw_class(self._secondary_classes, "secondary", page)

    def line(self, page: int, line: int, version: int = 0,
             override: Optional[LineClass] = None) -> bytes:
        """Content of a line; ``version`` advances on writebacks."""
        if override is not None:
            cls = override
        else:
            cls = self.page_class(page)
            if (cls is not LineClass.ZERO and self.mixed_fraction
                    and self._line_draw(self._hetero_lines, "hetero",
                                        self.mixed_fraction, page, line)):
                cls = self.secondary_class(page)
        if cls is LineClass.ZERO:
            return bytes(LINE_SIZE)
        if self.zero_line_fraction and self._line_draw(
                self._zero_lines, "zline", self.zero_line_fraction,
                page, line):
            return bytes(LINE_SIZE)
        index = hash((page, line, version)) & 0x7FFFFFFF
        return self._pools[cls].line(index)

    def page_lines(self, page: int, version: int = 0) -> List[bytes]:
        return [
            self.line(page, line, version) for line in range(LINES_PER_PAGE)
        ]
