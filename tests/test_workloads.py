"""Tests for the synthetic workload substitution layer."""

import math
import struct

import numpy as np
import pytest

from repro._util import prefixed_seed, stable_seed, stable_seed_prefix
from repro.compression import BPCCompressor
from repro.workloads import (
    BENCHMARK_ORDER,
    CAPACITY_STALLERS,
    LINE_SIZE,
    LINES_PER_PAGE,
    MIXES,
    PROFILES,
    BenchmarkProfile,
    LineClass,
    PageImageGenerator,
    TraceGenerator,
    Workload,
    get_profile,
    make_line,
    mix_profiles,
)
from repro.workloads.tracegen import TraceEvent, _LegacyDraws


class TestDataGen:
    def test_all_classes_produce_64_bytes(self):
        rng = np.random.RandomState(0)
        for cls in LineClass:
            assert len(make_line(cls, rng)) == 64

    def test_determinism(self):
        gen_a = PageImageGenerator("x", {LineClass.POINTER: 1.0})
        gen_b = PageImageGenerator("x", {LineClass.POINTER: 1.0})
        for page in range(3):
            for line in range(5):
                assert gen_a.line(page, line) == gen_b.line(page, line)

    def test_versions_differ(self):
        gen = PageImageGenerator("x", {LineClass.RANDOM: 1.0})
        assert gen.line(0, 0, version=0) != gen.line(0, 0, version=1)

    def test_zero_line_fraction(self):
        gen = PageImageGenerator("x", {LineClass.RANDOM: 1.0},
                                 zero_line_fraction=0.5)
        lines = [gen.line(0, i) for i in range(200)]
        zero = sum(1 for l in lines if l == bytes(64))
        assert 50 < zero < 150

    def test_compressibility_ordering(self):
        """Class compressibility spans the paper's range, in order."""
        bpc = BPCCompressor()

        def avg_size(cls):
            gen = PageImageGenerator("calib", {cls: 1.0})
            sizes = [bpc.compress(gen.line(0, i)).size_bytes
                     for i in range(100)]
            return sum(sizes) / len(sizes)

        delta = avg_size(LineClass.INT_DELTA)
        pointer = avg_size(LineClass.POINTER)
        random_ = avg_size(LineClass.RANDOM)
        assert delta < pointer < random_
        assert random_ >= 60  # incompressible
        assert delta < 12     # highly compressible

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            PageImageGenerator("x", {})


def reference_make_line(line_class, rng):
    """``make_line`` with one scalar numpy draw per value: the bytes, and
    the state ``rng`` is left in, that the vector draws must reproduce."""
    if line_class is LineClass.ZERO:
        return bytes(LINE_SIZE)
    if line_class is LineClass.INT_SMALL:
        base = int(rng.randint(0, 4096))
        values = [(base + int(rng.randint(0, 64))) & 0xFFFFFFFF
                  for _ in range(16)]
        return struct.pack("<16I", *values)
    if line_class is LineClass.INT_DELTA:
        base = int(rng.randint(0, 1 << 24))
        stride = int(rng.choice([1, 2, 4, 8, 16]))
        values = [(base + i * stride) & 0xFFFFFFFF for i in range(16)]
        return struct.pack("<16I", *values)
    if line_class is LineClass.POINTER:
        arena = 0x7F00_0000_0000 + int(rng.randint(0, 256)) * (1 << 20)
        base = arena + int(rng.randint(0, 1 << 10)) * 64
        values = [base + int(rng.randint(0, 32)) * 64 for _ in range(8)]
        return struct.pack("<8Q", *values)
    if line_class is LineClass.FLOAT:
        exponent = float(rng.choice([0.25, 1.0, 4.0]))
        values = exponent * (rng.randint(0, 512, 16) / 256.0)
        return struct.pack("<16f", *values.astype(np.float32))
    if line_class is LineClass.TEXT:
        alphabet = b"etaoin shrdlucmfwypvbgkjqxz,.ETAOIN"
        indices = rng.randint(0, len(alphabet), LINE_SIZE)
        return bytes(alphabet[i] for i in indices)
    if line_class is LineClass.SPARSE:
        line = bytearray(LINE_SIZE)
        for _ in range(int(rng.randint(1, 4))):
            offset = int(rng.randint(0, 14)) * 4
            line[offset : offset + 4] = struct.pack(
                "<I", int(rng.randint(0, 1 << 16))
            )
        return bytes(line)
    if line_class is LineClass.RANDOM:
        return rng.bytes(LINE_SIZE)
    raise ValueError(f"unknown line class {line_class}")


def rng_states_equal(a, b):
    (_, keys_a, pos_a, *rest_a), (_, keys_b, pos_b, *rest_b) = (
        a.get_state(), b.get_state())
    return np.array_equal(keys_a, keys_b) and (pos_a, rest_a) == (pos_b,
                                                                  rest_b)


class TestMakeLineEquivalence:
    """The vector draws of ``make_line`` take the same MT19937 words as
    one scalar draw per value."""

    @pytest.mark.parametrize("line_class", list(LineClass),
                             ids=lambda c: c.value)
    def test_bytes_and_rng_state_match_scalar_draws(self, line_class):
        rng, ref = np.random.RandomState(), np.random.RandomState()
        for seed in range(4096):
            rng.seed(seed)
            ref.seed(seed)
            assert (make_line(line_class, rng)
                    == reference_make_line(line_class, ref)), seed
            if seed % 256 == 0:
                assert rng_states_equal(rng, ref), seed

    def test_shared_rng_stream_matches(self):
        """Callers that draw many lines from one RNG (the kernel bench
        corpus, the pressure campaign) see the same sequence."""
        rng, ref = np.random.RandomState(7), np.random.RandomState(7)
        classes = list(LineClass)
        for i in range(2000):
            cls = classes[i % len(classes)]
            assert make_line(cls, rng) == reference_make_line(cls, ref)
        assert rng_states_equal(rng, ref)

    def test_sparse_covers_overlapping_fields(self):
        """Some SPARSE lines draw two fields into one slot (the later
        one wins), and every field count 1-3 occurs."""
        rng = np.random.RandomState()
        counts, overlaps = set(), 0
        for seed in range(4096):
            rng.seed(seed)
            fields = int(rng.randint(1, 4))
            slots = []
            for _ in range(fields):
                slots.append(int(rng.randint(0, 14)))
                rng.randint(0, 1 << 16)
            counts.add(fields)
            overlaps += len(set(slots)) < len(slots)
        assert counts == {1, 2, 3} and overlaps > 0


class ReferenceGenerator:
    """Datagen with a fresh ``RandomState(stable_seed(...))`` per keyed
    draw, no memo and scalar-draw pool lines: the semantics the
    reseeded, memoized generator must reproduce byte for byte."""

    def __init__(self, name, mix, zero_line_fraction=0.0,
                 mixed_fraction=0.08, pool_size=512):
        total = sum(mix.values())
        self.name = name
        self.classes = sorted(mix, key=lambda c: c.value)
        self.weights = [mix[c] / total for c in self.classes]
        self.zero_line_fraction = zero_line_fraction
        self.mixed_fraction = mixed_fraction
        self.pool_size = pool_size

    def _rng(self, *key):
        return np.random.RandomState(stable_seed(self.name, *key))

    def page_class(self, page):
        rng = self._rng("pageclass", page)
        return self.classes[int(rng.choice(len(self.classes),
                                           p=self.weights))]

    def secondary_class(self, page):
        rng = self._rng("secondary", page)
        return self.classes[int(rng.choice(len(self.classes),
                                           p=self.weights))]

    def line(self, page, line, version=0, override=None):
        cls = override or self.page_class(page)
        if override is None and cls is not LineClass.ZERO \
                and self.mixed_fraction:
            if self._rng("hetero", page, line).rand() < self.mixed_fraction:
                cls = self.secondary_class(page)
        if cls is LineClass.ZERO:
            return bytes(LINE_SIZE)
        if self.zero_line_fraction:
            if self._rng("zline", page, line).rand() \
                    < self.zero_line_fraction:
                return bytes(LINE_SIZE)
        slot = (hash((page, line, version)) & 0x7FFFFFFF) % self.pool_size
        return reference_make_line(cls, self._rng(cls.value, slot))

    def page_lines(self, page, version=0):
        return [self.line(page, line, version)
                for line in range(LINES_PER_PAGE)]


#: A mix with a ZERO page class, every non-zero class, zero lines and the
#: default mixed_fraction (heterogeneous lines).
EQUIV_MIX = {LineClass.ZERO: 0.15, LineClass.INT_SMALL: 0.1,
             LineClass.INT_DELTA: 0.1, LineClass.POINTER: 0.15,
             LineClass.FLOAT: 0.15, LineClass.TEXT: 0.1,
             LineClass.SPARSE: 0.1, LineClass.RANDOM: 0.15}
EQUIV_ARGS = dict(zero_line_fraction=0.2, pool_size=24)
EQUIV_PAGES = 24


def equiv_pair(name="equiv"):
    return (PageImageGenerator(name, EQUIV_MIX, **EQUIV_ARGS),
            ReferenceGenerator(name, EQUIV_MIX, **EQUIV_ARGS))


class TestDataGenEquivalence:
    """The reused, reseeded RNG and the per-page class memo leave every
    byte as a fresh RNG per draw makes it, whatever the access order."""

    def test_fixture_covers_the_interesting_cases(self):
        _, ref = equiv_pair()
        classes = {ref.page_class(p) for p in range(EQUIV_PAGES)}
        assert LineClass.ZERO in classes and len(classes) >= 5
        hetero = zero = 0
        for page in range(EQUIV_PAGES):
            if ref.page_class(page) is LineClass.ZERO:
                continue
            for line in range(LINES_PER_PAGE):
                hetero += (ref.line(page, line)
                           != ref.line(page, line,
                                       override=ref.page_class(page)))
                zero += ref.line(page, line) == bytes(LINE_SIZE)
        assert hetero > 0 and zero > 0

    def test_pages_in_order_and_reversed(self):
        for order in (range(EQUIV_PAGES), reversed(range(EQUIV_PAGES))):
            gen, ref = equiv_pair()
            for page in order:
                assert gen.page_lines(page) == ref.page_lines(page)
                assert gen.page_class(page) is ref.page_class(page)
                assert gen.secondary_class(page) is ref.secondary_class(page)

    def test_secondary_class_before_page_class(self):
        gen, ref = equiv_pair()
        for page in reversed(range(EQUIV_PAGES)):
            assert gen.secondary_class(page) is ref.secondary_class(page)
            assert gen.page_class(page) is ref.page_class(page)
        for page in range(EQUIV_PAGES):
            for line in range(0, LINES_PER_PAGE, 3):
                assert gen.line(page, line) == ref.line(page, line)

    def test_versions_and_overrides(self):
        gen, ref = equiv_pair()
        for page in range(EQUIV_PAGES):
            for line in range(0, LINES_PER_PAGE, 5):
                for version in (0, 1, 7):
                    assert (gen.line(page, line, version)
                            == ref.line(page, line, version))
                for override in LineClass:
                    assert (gen.line(page, line, 3, override)
                            == ref.line(page, line, 3, override))
            assert gen.page_lines(page, 2) == ref.page_lines(page, 2)

    def test_two_generators_interleaved_line_by_line(self):
        gen_a, ref_a = equiv_pair("equiv-a")
        gen_b, ref_b = equiv_pair("equiv-b")
        for page in range(EQUIV_PAGES):
            for line in range(LINES_PER_PAGE):
                b_page = EQUIV_PAGES - 1 - page
                assert gen_a.line(page, line) == ref_a.line(page, line)
                assert gen_b.line(b_page, line, 1) \
                    == ref_b.line(b_page, line, 1)
        for page in range(EQUIV_PAGES):
            assert gen_a.page_class(page) is ref_a.page_class(page)
            assert gen_b.secondary_class(page) is ref_b.secondary_class(page)


class TestLineDrawMemo:
    """The per-page (known, value) masks of the hetero / zline draws and
    the prefix-hashed seeds."""

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["forward", "reverse"])
    def test_reread_after_writebacks(self, reverse):
        """Install-read every line, write some back 1-3 times (a few to
        another class), then re-read them."""
        gen, ref = equiv_pair()
        pages = list(range(EQUIV_PAGES))
        if reverse:
            pages.reverse()
        for page in pages:
            assert gen.page_lines(page) == ref.page_lines(page)
        for page in pages:
            for line in range(0, LINES_PER_PAGE, 3):
                writebacks = 1 + (page + line) % 3
                for version in range(1, writebacks + 1):
                    override = (LineClass.RANDOM
                                if (page + line + version) % 7 == 0
                                else None)
                    assert (gen.line(page, line, version, override)
                            == ref.line(page, line, version, override))
                assert (gen.line(page, line, writebacks)
                        == ref.line(page, line, writebacks))

    def test_writeback_makes_no_keyed_draw(self):
        gen, _ = equiv_pair()
        keyed = []
        draw = gen._keyed
        gen._keyed = lambda *key: keyed.append(key) or draw(*key)
        for page in range(EQUIV_PAGES):
            gen.page_lines(page)
        assert {key[0] for key in keyed} >= {"hetero", "zline"}
        keyed.clear()
        for page in range(EQUIV_PAGES):
            gen.page_lines(page, version=1)
            gen.page_lines(page, version=0)
        assert keyed == []

    def test_memo_is_bounded_by_pages(self):
        gen, _ = equiv_pair()
        for version in range(3):
            for page in range(EQUIV_PAGES):
                gen.page_lines(page, version)
        assert len(gen._hetero_lines) <= EQUIV_PAGES
        assert len(gen._zero_lines) <= EQUIV_PAGES
        for masks in (*gen._hetero_lines.values(),
                      *gen._zero_lines.values()):
            known, value = masks
            assert known < 1 << LINES_PER_PAGE and value & ~known == 0

    def test_prefixed_seed_equals_stable_seed(self):
        heads = [("lbm#1", "hetero"), ("gcc#0", "zline"), ("x",),
                 ("mcf#3", "int_small"), ("a/b", "c"), ("ünï", 7),
                 ("", ""), (LineClass.TEXT.value, 0, 1.5)]
        tails = [(0,), (5, 63), (123456, 0), ("s",), ("", ""), (-1, "/"),
                 (2 ** 40, 3, 7)]
        for head in heads:
            prefix = stable_seed_prefix(*head)
            for tail in tails:
                assert prefixed_seed(prefix, *tail) == stable_seed(*head,
                                                                   *tail)
            for page in range(0, 4096, 37):
                for line in (0, 1, 31, 63):
                    assert (prefixed_seed(prefix, page, line)
                            == stable_seed(*head, page, line))

    def test_prefix_is_not_consumed(self):
        prefix = stable_seed_prefix("p", "hetero")
        first = prefixed_seed(prefix, 1, 2)
        prefixed_seed(prefix, 3, 4)
        assert prefixed_seed(prefix, 1, 2) == first


def reference_events(generator, n_events):
    """``TraceGenerator.events`` with one numpy scalar call per draw: the
    stream the word replay must reproduce."""
    profile = generator.profile
    pages = generator.workload.pages
    hot_pages = max(1, int(pages * profile.hot_fraction))
    rng = np.random.RandomState(
        stable_seed(profile.name, "trace", generator.seed))
    gap_p = min(1.0, profile.mpki / 1000.0)
    page = int(rng.randint(0, pages))
    line = int(rng.randint(0, LINES_PER_PAGE))
    for _ in range(n_events):
        if rng.rand() < profile.sequential:
            line += 1
            if line >= LINES_PER_PAGE:
                line = 0
                page = (page + 1) % pages
        else:
            if rng.rand() < profile.hot_weight:
                page = int(hot_pages * (rng.rand() ** profile.skew))
            else:
                page = int(rng.randint(0, pages))
            line = int(rng.randint(0, LINES_PER_PAGE))
        is_writeback = bool(rng.rand() < profile.write_fraction)
        gap = int(rng.geometric(gap_p))
        yield TraceEvent(gap=gap, is_writeback=is_writeback,
                         page=page, line=line)


def synthetic_profile(name, **fields):
    return BenchmarkProfile(name=name, mix={LineClass.INT_SMALL: 1.0},
                            **fields)


#: Profiles that reach the branches the 30 benchmarks leave cold: the
#: geometric search (gap p >= 1/3, and p = 1), a hot set with a steep
#: or flat skew, and footprints that are not powers of two, where
#: ``randint(0, pages)`` rejects words.
SYNTHETIC_PROFILES = [
    synthetic_profile("search-334", mpki=334, sequential=0.3),
    synthetic_profile("search-1000", mpki=1000, sequential=0.3),
    synthetic_profile("search-5000", mpki=5000, footprint_pages=777),
    synthetic_profile("hot-skew", mpki=40, sequential=0.05,
                      hot_weight=0.95, hot_fraction=0.3, skew=3.7,
                      footprint_pages=1500),
    synthetic_profile("hot-flat", mpki=0.3, sequential=0.0,
                      hot_weight=0.5, hot_fraction=0.01, skew=1.0,
                      footprint_pages=1000),
    synthetic_profile("reject", mpki=12, sequential=0.0, hot_weight=0.0,
                      footprint_pages=1025),
]


def assert_same_events(profile, seed, n_events=3000, scale=1.0):
    workload = Workload(profile, scale=scale, seed=seed)
    generator = TraceGenerator(workload, seed=seed)
    events = list(generator.events(n_events))
    reference = list(reference_events(generator, n_events))
    assert len(events) == len(reference) == n_events
    for index, (event, ref) in enumerate(zip(events, reference)):
        assert (event.gap, event.is_writeback, event.page, event.line) == (
            ref.gap, ref.is_writeback, ref.page, ref.line), (profile.name,
                                                             seed, index)
        assert type(event.gap) is int and type(event.page) is int
        assert type(event.line) is int
        assert type(event.is_writeback) is bool


class TestTraceEquivalence:
    """``events()`` replays the legacy ``RandomState`` draws from raw
    MT19937 words; every event equals today's numpy-scalar stream."""

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_every_profile(self, name):
        for seed in range(3):
            assert_same_events(PROFILES[name], seed, scale=0.05)

    @pytest.mark.parametrize("profile", SYNTHETIC_PROFILES,
                             ids=lambda profile: profile.name)
    def test_synthetic_profiles(self, profile):
        for seed in range(3):
            assert_same_events(profile, seed)

    def test_synthetic_profiles_reach_the_cold_branches(self):
        gap_ps = [min(1.0, p.mpki / 1000.0) for p in SYNTHETIC_PROFILES]
        assert min(p for p in gap_ps if p >= 1 / 3) < 0.35
        assert 1.0 in gap_ps
        pages = [Workload(p).pages for p in SYNTHETIC_PROFILES]
        assert any(count & (count - 1) for count in pages)
        reject = Workload(SYNTHETIC_PROFILES[-1])
        # 1025 pages mask to 2047: about half the words are rejected.
        assert reject.pages == 1025

    def test_short_and_empty_streams(self):
        profile = PROFILES["mcf"]
        for n_events in (0, 1, 2, 255, 256, 257):
            assert_same_events(profile, 1, n_events, scale=0.05)

    def test_non_positive_mpki_rejected(self):
        workload = Workload(synthetic_profile("idle", mpki=0.0))
        with pytest.raises(ValueError):
            next(TraceGenerator(workload).events(10))


def geometric_search(u, p):
    trials, total, prob = 1, p, p
    while u > total:
        prob *= 1.0 - p
        total += prob
        trials += 1
    return trials


def geometric_inversion(u, p):
    return math.ceil(math.log1p(-u) / math.log(1.0 - p))


def boundary_doubles(p, counts=30):
    """Doubles of the 53-bit ``rand()`` grid within a few steps of the
    search's cumulative sums, where rounding decides the count.  The
    sums stop well short of 1, past which the search never ends."""
    total = prob = p
    for _ in range(counts):
        if prob < 1e-9:
            return
        k = round(total * 2 ** 53)
        yield from ((k + d) / 2 ** 53 for d in range(-3, 4)
                    if 0 <= k + d < 2 ** 53)
        prob *= 1.0 - p
        total += prob


def _untemper(y):
    """Invert MT19937's output tempering."""
    result = y
    for _ in range(2):
        result = y ^ (result >> 18)
    y, result = result, result
    for _ in range(3):
        result = y ^ ((result << 15) & 0xEFC60000)
    y, result = result, result
    for _ in range(5):
        result = y ^ ((result << 7) & 0x9D2C5680)
    y, result = result, result
    for _ in range(3):
        result = y ^ (result >> 11)
    return result & 0xFFFFFFFF


def mt_emitting(words):
    """A ``RandomState`` whose next raw words are ``words``: MT19937
    emits its untwisted key, tempered, until it first regenerates."""
    key = [_untemper(word) for word in words]
    key += [0x9E3779B9] * (624 - len(key))
    rng = np.random.RandomState()
    rng.set_state(("MT19937", np.array(key, dtype=np.uint32), 0))
    return rng


class TestLegacyDraws:
    """Each replayed draw equals the ``RandomState`` call it replaces."""

    def test_rand(self):
        for seed in range(20):
            rng = np.random.RandomState(seed)
            draws = _LegacyDraws(np.random.RandomState(seed))
            for _ in range(700):
                assert draws.rand() == rng.rand()

    @pytest.mark.parametrize("high", [1, 2, 3, 5, 7, 63, 64, 65, 100, 1000,
                                      1025, 4096, 12345, 1 << 20])
    def test_randint(self, high):
        rng = np.random.RandomState(high)
        draws = _LegacyDraws(np.random.RandomState(high))
        for _ in range(600):
            assert draws.randint(high) == int(rng.randint(0, high))
        assert draws.rand() == rng.rand()

    @pytest.mark.parametrize("p", [1e-4, 0.0015, 0.06, 0.3, 1 / 3 - 1e-12,
                                   1 / 3, 0.334, 0.5, 0.9, 0.999999, 1.0])
    def test_geometric(self, p):
        rng = np.random.RandomState(3)
        draws = _LegacyDraws(np.random.RandomState(3))
        for _ in range(600):
            assert draws.geometric(p) == int(rng.geometric(p))
        assert draws.rand() == rng.rand()

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.3, 1 / 3, 0.34, 0.45, 0.7])
    def test_geometric_where_search_and_inversion_disagree(self, p):
        """At a few doubles next to a quantile boundary the search and the
        inversion round to different counts, so only these draws pin
        which algorithm serves which p (elsewhere they agree)."""
        us = [u for u in boundary_doubles(p)
              if geometric_search(u, p) != geometric_inversion(u, p)]
        assert len(us) >= 3
        words = []
        for u in us:
            k = int(u * 2 ** 53)
            words += [(k >> 26) << 5, (k & (1 << 26) - 1) << 6]
        rng, replayed = mt_emitting(words), mt_emitting(words)
        draws = _LegacyDraws(replayed)
        for u in us:
            assert draws.geometric(p) == int(rng.geometric(p)), u

    def test_interleaved_draws_cross_block_boundaries(self):
        rng = np.random.RandomState(11)
        draws = _LegacyDraws(np.random.RandomState(11))
        for i in range(3000):
            kind = i % 5
            if kind == 0:
                assert draws.randint(777) == int(rng.randint(0, 777))
            elif kind == 1:
                assert draws.geometric(0.02) == int(rng.geometric(0.02))
            elif kind == 2:
                assert draws.geometric(0.6) == int(rng.geometric(0.6))
            else:
                assert draws.rand() == rng.rand()


class TestProfiles:
    def test_all_30_benchmarks_present(self):
        assert len(PROFILES) == 30
        for name in ("mcf", "zeusmp", "Forestfire", "Graph500"):
            assert name in PROFILES

    def test_stallers_are_subset(self):
        assert set(CAPACITY_STALLERS) <= set(PROFILES)

    def test_get_profile_unknown(self):
        with pytest.raises(ValueError):
            get_profile("nonexistent")

    def test_phase_lookup(self):
        profile = get_profile("GemsFDTD")
        assert profile.phase_at(0.0) != profile.phase_at(0.3)
        # Past the end: last phase.
        assert profile.phase_at(1.5) == profile.phases[-1]

    def test_mix_weights_positive(self):
        for profile in PROFILES.values():
            assert all(w > 0 for w in profile.mix.values())


class TestMixes:
    def test_tab_iv_shape(self):
        assert len(MIXES) == 10
        for names in MIXES.values():
            assert len(names) == 4
            for name in names:
                assert name in PROFILES

    def test_mix1_contents(self):
        assert MIXES["mix1"] == ("mcf", "GemsFDTD", "libquantum", "soplex")

    def test_mix_profiles_resolution(self):
        profiles = mix_profiles("mix10")
        assert [p.name for p in profiles] == list(MIXES["mix10"])

    def test_unknown_mix(self):
        with pytest.raises(ValueError):
            mix_profiles("mix99")


class TestWorkload:
    def test_scaling(self):
        profile = get_profile("gcc")
        full = Workload(profile, scale=1.0)
        small = Workload(profile, scale=0.1)
        assert small.pages == int(profile.footprint_pages * 0.1)
        assert full.pages == profile.footprint_pages

    def test_writeback_advances_version(self):
        workload = Workload(get_profile("gcc"), scale=0.05)
        before = workload.line_data(0, 0)
        after = workload.apply_writeback(0, 0, None)
        assert workload.line_data(0, 0) == after
        # Zero-class pages stay zero; others usually change.
        if before != bytes(64):
            assert after != before or True  # version may collide in pool

    def test_override_changes_class(self):
        workload = Workload(get_profile("gcc"), scale=0.05)
        data = workload.apply_writeback(0, 0, LineClass.RANDOM)
        bpc = BPCCompressor()
        if data != bytes(64):
            assert bpc.compress(data).size_bytes > 32


class TestTraceGenerator:
    def test_determinism(self):
        workload = Workload(get_profile("astar"), scale=0.05)
        gen = TraceGenerator(workload, seed=3)
        a = list(gen.events(500))
        b = list(TraceGenerator(Workload(get_profile("astar"), scale=0.05),
                                seed=3).events(500))
        assert a == b

    def test_events_in_bounds(self):
        workload = Workload(get_profile("omnetpp"), scale=0.05)
        for event in TraceGenerator(workload).events(1000):
            assert 0 <= event.page < workload.pages
            assert 0 <= event.line < LINES_PER_PAGE
            assert event.gap >= 1

    def test_write_fraction_respected(self):
        profile = get_profile("lbm")  # write_fraction 0.45
        workload = Workload(profile, scale=0.05)
        events = list(TraceGenerator(workload).events(4000))
        writes = sum(e.is_writeback for e in events)
        assert 0.35 < writes / len(events) < 0.55

    def test_sequential_profile_produces_runs(self):
        profile = get_profile("libquantum")  # sequential 0.95
        workload = Workload(profile, scale=0.05)
        events = list(TraceGenerator(workload).events(2000))
        sequential = sum(
            1 for a, b in zip(events, events[1:])
            if b.page == a.page and b.line == a.line + 1
        )
        assert sequential / len(events) > 0.7

    def test_mean_gap_matches_mpki(self):
        profile = get_profile("mcf")  # mpki 60 -> mean gap ~16.7
        workload = Workload(profile, scale=0.05)
        gaps = [e.gap for e in TraceGenerator(workload).events(5000)]
        mean = sum(gaps) / len(gaps)
        assert 13 < mean < 21
