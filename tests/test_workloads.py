"""Tests for the synthetic workload substitution layer."""

import numpy as np
import pytest

from repro._util import stable_seed
from repro.compression import BPCCompressor
from repro.workloads import (
    BENCHMARK_ORDER,
    CAPACITY_STALLERS,
    LINE_SIZE,
    LINES_PER_PAGE,
    MIXES,
    PROFILES,
    LineClass,
    PageImageGenerator,
    TraceGenerator,
    Workload,
    get_profile,
    make_line,
    mix_profiles,
)


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


class ReferenceGenerator:
    """Datagen with a fresh ``RandomState(stable_seed(...))`` per keyed
    draw and no memo: the semantics the reseeded, memoized generator
    must reproduce byte for byte."""

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
        return make_line(cls, self._rng(cls.value, slot))

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
