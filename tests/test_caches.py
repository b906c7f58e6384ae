"""Unit tests for the direct-mapped cache tag model and the D-cache port."""

import pytest

from repro.core.caches import DirectMappedCache, PipelinedCachePort
from repro.workloads.registry import FP_SUITE, INTEGER_SUITE


class TestDirectMappedCache:
    def test_sizes_validated(self):
        with pytest.raises(ValueError):
            DirectMappedCache(1000, 32)  # not a multiple
        with pytest.raises(ValueError):
            DirectMappedCache(96, 32)  # 3 lines: not a power of two

    def test_cold_miss_then_hit(self):
        cache = DirectMappedCache(1024, 32)
        assert not cache.lookup(0x1000)
        cache.fill(0x1000, ready_at=5)
        assert cache.lookup(0x1000)
        assert cache.ready_time(0x1000) == 5

    def test_conflict_eviction(self):
        cache = DirectMappedCache(1024, 32)  # 32 lines
        cache.fill(0x0, 0)
        evicted = cache.fill(1024, 0)  # same index, different tag
        assert evicted == 0  # line number 0 evicted
        assert not cache.lookup(0x0)
        assert cache.lookup(1024)

    def test_distinct_indices_coexist(self):
        cache = DirectMappedCache(1024, 32)
        cache.fill(0, 0)
        cache.fill(32, 0)
        assert cache.probe(0)
        assert cache.probe(32)

    def test_probe_does_not_count(self):
        cache = DirectMappedCache(1024, 32)
        cache.fill(0, 0)
        before = cache.accesses
        cache.probe(0)
        assert cache.accesses == before

    def test_hit_rate_accounting(self):
        cache = DirectMappedCache(1024, 32)
        cache.lookup(0)  # miss
        cache.fill(0, 0)
        cache.lookup(0)  # hit
        cache.lookup(0)  # hit
        assert cache.accesses == 3
        assert cache.hits == 2
        assert cache.hit_rate == pytest.approx(2 / 3)
        assert cache.miss_rate == pytest.approx(1 / 3)

    def test_invalidate(self):
        cache = DirectMappedCache(1024, 32)
        cache.fill(64, 0)
        cache.invalidate(64)
        assert not cache.probe(64)
        # invalidating an absent line is a no-op
        cache.invalidate(64)

    def test_line_of(self):
        cache = DirectMappedCache(1024, 32)
        assert cache.line_of(0) == 0
        assert cache.line_of(31) == 0
        assert cache.line_of(32) == 1

    def test_full_sweep_capacity(self):
        cache = DirectMappedCache(256, 32)  # 8 lines
        for i in range(8):
            cache.fill(i * 32, 0)
        assert all(cache.probe(i * 32) for i in range(8))
        cache.fill(256, 0)  # evicts index 0
        assert not cache.probe(0)


class TestPipelinedCachePort:
    def test_one_access_per_cycle(self):
        port = PipelinedCachePort()
        assert port.start_access(10) == 10
        assert port.start_access(10) == 11
        assert port.start_access(10) == 12

    def test_idle_port_takes_request_time(self):
        port = PipelinedCachePort()
        assert port.start_access(100) == 100

    def test_fill_blocks_port(self):
        port = PipelinedCachePort(fill_cycles=2)
        done = port.occupy_for_fill(20)
        assert done == 22
        assert port.start_access(20) == 22

    def test_future_fill_does_not_block_earlier_access(self):
        port = PipelinedCachePort(fill_cycles=2)
        port.occupy_for_fill(20)  # data arrives much later
        assert port.start_access(5) == 5  # earlier access unaffected

    def test_fills_stack_up(self):
        port = PipelinedCachePort(fill_cycles=2)
        assert port.occupy_for_fill(10) == 12
        assert port.occupy_for_fill(10) == 14  # second fill queues
        assert port.start_access(11) == 14  # access inside the windows waits


class TestICacheOracle:
    """Timing-loop I-cache counters against a standalone tag replay.

    Every I-side miss fills, so the hit/access counts do not depend on
    timing: replaying the prepared trace's I-line column through a fresh
    :class:`DirectMappedCache` must give the simulator's numbers exactly.
    The timing loop checks tags inline and never calls ``lookup``, so the
    two share no tag-check code.
    """

    @pytest.mark.parametrize("workload", INTEGER_SUITE + FP_SUITE)
    def test_counters_match_tag_replay(self, workload):
        from repro.core.config import BASELINE, small_model
        from repro.core.processor import simulate_trace
        from repro.experiments.common import scaled_trace
        from repro.func.prepared import prepare_trace

        trace = prepare_trace(scaled_trace(workload, 0.05))
        for config in (BASELINE, small_model()):
            shift = config.line_bytes.bit_length() - 1
            cache = DirectMappedCache(config.icache_bytes, config.line_bytes)
            for line in trace.lines(shift)[0]:
                if not cache.lookup(line << shift):
                    cache.fill(line << shift, 0)
            stats = simulate_trace(trace, config).stats
            assert (stats.icache_accesses, stats.icache_hits) == (
                cache.accesses,
                cache.hits,
            ), f"{workload} on {config.label}"
