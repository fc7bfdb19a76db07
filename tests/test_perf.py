"""Tests for the repro.perf instrumentation module."""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf import PERF, PerfRegistry, TimerStat, timed

CAP = TimerStat.RESERVOIR_CAP


class TestPercentiles:
    def test_exact_percentiles_small_sample(self):
        stat = TimerStat()
        for v in range(1, 101):  # 0.01 .. 1.00
            stat.add(v / 100.0)
        assert stat.p50_s == pytest.approx(0.50)
        assert stat.p95_s == pytest.approx(0.95)
        assert stat.p99_s == pytest.approx(0.99)
        assert stat.percentile(100.0) == pytest.approx(1.00)
        assert stat.percentile(0.0) == pytest.approx(0.01)

    def test_percentiles_of_empty_stat_are_zero(self):
        stat = TimerStat()
        assert stat.p50_s == 0.0 and stat.p95_s == 0.0 and stat.p99_s == 0.0

    def test_percentile_rejects_out_of_range(self):
        stat = TimerStat()
        stat.add(1.0)
        with pytest.raises(ValueError):
            stat.percentile(101.0)

    def test_reservoir_caps_memory_and_stays_deterministic(self):
        a, b = TimerStat(), TimerStat()
        for i in range(3 * TimerStat.RESERVOIR_CAP):
            a.add(i * 1e-6)
            b.add(i * 1e-6)
        assert len(a.samples) == TimerStat.RESERVOIR_CAP
        # same observation sequence -> same reservoir -> same percentiles
        assert a.samples == b.samples
        assert a.p95_s == b.p95_s
        # the estimate still lands in the observed range
        assert 0.0 <= a.p50_s <= 3 * TimerStat.RESERVOIR_CAP * 1e-6

    def test_as_dict_reports_percentiles(self):
        stat = TimerStat()
        for v in (0.1, 0.2, 0.3, 0.4):
            stat.add(v)
        d = stat.as_dict()
        assert d["p50_s"] == pytest.approx(stat.p50_s)
        assert d["p99_s"] == pytest.approx(stat.p99_s)

    def test_as_dict_matches_percentile(self):
        # regression: as_dict() once carried its own duplicate
        # interpolation; it must be exactly the percentile() values
        stat = TimerStat()
        for i in range(1, 38):  # awkward count so interpolation matters
            stat.add(i * 0.013)
        d = stat.as_dict()
        assert d["p50_s"] == stat.percentile(50.0)
        assert d["p95_s"] == stat.percentile(95.0)
        assert d["p99_s"] == stat.percentile(99.0)


def _values(seed: int, n: int) -> list[float]:
    """``n`` floats of mixed sign and magnitude: any reordering of their
    sum changes its low bits."""
    rng = random.Random(seed)
    return [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-9, 3) for _ in range(n)]


def _state(stat: TimerStat) -> tuple:
    return (
        stat.count,
        stat.total_s.hex(),  # bit-equal, not approximately equal
        stat.max_s.hex(),
        [v.hex() for v in stat.samples],
        stat._rng.getstate(),
        stat._next,
        stat._w.hex(),
    )


class TestFoldedAdds:
    """``add_many`` folds a batch into the exact state of one ``add`` per
    value; the service's per-batch accounting rests on it."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        prefix=st.integers(min_value=0, max_value=CAP + 64),
        n=st.integers(min_value=1, max_value=2 * CAP),
        chunks=st.lists(st.integers(min_value=1, max_value=CAP // 2), min_size=1, max_size=12),
    )
    def test_chunked_add_many_equals_one_add_per_value(self, seed, prefix, n, chunks):
        values = _values(seed, prefix + n)
        one_by_one, folded = TimerStat(), TimerStat()
        for v in values:
            one_by_one.add(v)
        for v in values[:prefix]:  # both paths may start from a filled stat
            folded.add(v)
        i, k = prefix, 0
        while i < len(values):
            step = chunks[k % len(chunks)]
            folded.add_many(values[i : i + step])
            i, k = i + step, k + 1
        assert _state(folded) == _state(one_by_one)

    def test_runs_cross_the_reservoir_cap(self):
        # the case the property exists for: the reservoir path, chunks
        # straddling the cap, an empty chunk
        values = _values(7, 3 * CAP)
        one_by_one, folded = TimerStat(), TimerStat()
        for v in values:
            one_by_one.add(v)
        folded.add_many(values[: CAP - 5])
        folded.add_many([])
        folded.add_many(values[CAP - 5 : CAP + 300])
        folded.add_many(iter(values[CAP + 300 :]))
        assert len(folded.samples) == CAP
        assert _state(folded) == _state(one_by_one)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_add_samples_by_skips(self, seed):
        """Past the cap, ``add`` is Li's algorithm L over
        ``Random(0x7E5CA1E)``: a weight ``W`` and a skip drawn after
        the cap-th value and after each replacement, whose slot is
        ``randrange(cap)``."""
        values = _values(seed, 5 * CAP + 123)
        rng = random.Random(0x7E5CA1E)
        w, due = 1.0, 0

        def schedule(at: int) -> int:
            nonlocal w
            w *= math.exp(math.log(1.0 - rng.random()) / CAP)
            return at + 1 + math.floor(math.log(1.0 - rng.random()) / math.log1p(-w))

        reference: list[float] = []
        replaced = 0
        for count, v in enumerate(values, start=1):
            if len(reference) < CAP:
                reference.append(v)
                if len(reference) == CAP:
                    due = schedule(count)
            elif count == due:
                reference[rng.randrange(CAP)] = v
                replaced += 1
                due = schedule(count)
        stat = TimerStat()
        for v in values:
            stat.add(v)
        assert stat.samples == reference
        assert stat._rng.getstate() == rng.getstate()
        # about cap · ln(5) replacements over the 4 · cap values past the cap
        assert 0.6 * CAP * math.log(5) < replaced < 1.4 * CAP * math.log(5)

    def test_reservoir_is_uniform(self):
        """Every position of a long run is equally likely to be kept:
        the sample's mean and its share of early values match the run's."""
        n = 40 * CAP
        stat = TimerStat()
        stat.add_many([float(i) for i in range(n)])
        assert len(stat.samples) == CAP
        assert abs(sum(stat.samples) / CAP / n - 0.5) < 0.02
        early = sum(1 for v in stat.samples if v < n / 4)
        assert abs(early / CAP - 0.25) < 0.03


class TestCounters:
    def test_incr_accumulates(self):
        reg = PerfRegistry()
        reg.incr("a")
        reg.incr("a", 4)
        assert reg.counter("a") == 5

    def test_unknown_counter_is_zero(self):
        assert PerfRegistry().counter("never") == 0

    def test_disabled_registry_records_nothing(self):
        reg = PerfRegistry(enabled=False)
        reg.incr("a")
        with reg.timer("t"):
            pass
        assert reg.counter("a") == 0
        assert reg.timer_stat("t").count == 0


class TestTimers:
    def test_timer_counts_and_accumulates(self):
        reg = PerfRegistry()
        for _ in range(3):
            with reg.timer("t"):
                pass
        stat = reg.timer_stat("t")
        assert stat.count == 3
        assert stat.total_s >= 0.0
        assert stat.max_s >= stat.mean_s

    def test_timer_records_on_exception(self):
        reg = PerfRegistry()
        try:
            with reg.timer("t"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert reg.timer_stat("t").count == 1

    def test_mean_of_empty_stat_is_zero(self):
        assert TimerStat().mean_s == 0.0

    def test_observe_folds_external_durations(self):
        reg = PerfRegistry()
        for dt in (0.1, 0.3, 0.2):
            reg.observe("ext", dt)
        stat = reg.timer_stat("ext")
        assert stat.count == 3
        assert stat.max_s == pytest.approx(0.3)
        assert stat.p50_s == pytest.approx(0.2)

    def test_observe_disabled_is_noop(self):
        reg = PerfRegistry(enabled=False)
        reg.observe("ext", 1.0)
        assert reg.timer_stat("ext").count == 0

    def test_timed_decorator(self):
        reg = PerfRegistry()

        @timed("fn", registry=reg)
        def fn(x):
            return x + 1

        assert fn(1) == 2
        assert fn(2) == 3
        assert reg.timer_stat("fn").count == 2


class TestReport:
    def test_report_is_json_ready(self):
        reg = PerfRegistry()
        reg.incr("c", 2)
        with reg.timer("t"):
            pass
        report = json.loads(reg.to_json())
        assert report["counters"]["c"] == 2
        assert report["timers"]["t"]["count"] == 1
        assert set(report["timers"]["t"]) == {
            "count", "total_s", "mean_s", "max_s", "p50_s", "p95_s", "p99_s",
        }

    def test_reset_clears_everything(self):
        reg = PerfRegistry()
        reg.incr("c")
        with reg.timer("t"):
            pass
        reg.reset()
        assert reg.report() == {"counters": {}, "timers": {}}

    def test_render_prometheus_from_registry(self):
        reg = PerfRegistry()
        reg.incr("oracle.row_miss", 3)
        reg.observe("mot.move", 0.5)
        text = reg.render_prometheus()
        assert "# TYPE repro_oracle_row_miss_total counter" in text
        assert "repro_oracle_row_miss_total 3" in text
        assert 'repro_mot_move_seconds{quantile="0.95"} 0.5' in text
        assert "repro_mot_move_seconds_count 1" in text

    def test_global_singleton_exists(self):
        assert isinstance(PERF, PerfRegistry)
        with PERF.timer("test.smoke"):
            PERF.incr("test.smoke")
        assert PERF.counter("test.smoke") >= 1
