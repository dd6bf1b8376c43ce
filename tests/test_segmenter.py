import csv
import dataclasses
import datetime as dt
import math

import numpy as np
import pytest

from conftest import scaled_window, weekday_calendar
from volseg import segmenter
from volseg.divergence import DegenerateSplitError, PrefixSums, delta_error, js_divergence, segment_stats
from volseg.segmenter import (
    FLAG_AUTOMATIC,
    FLAG_REFINED,
    Boundary,
    Segment,
    SegmentationConfig,
    SegmentationResult,
    emit_segment_table,
    optimize_boundaries,
    read_segment_table,
    recursive_segment,
    refine_long_segments,
    write_segment_csv,
    write_segment_json,
    TABLE_COLUMNS,
    _build_result,
    _Scanner,
)
from volseg.synthetic import regime_returns


def two_regime(seed: int, n1=500, s1=1e-3, n2=500, s2=2e-3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(0, s1, n1), rng.normal(0, s2, n2)])


def three_regime(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [rng.normal(0, 1e-3, 400), rng.normal(0, 4e-3, 200), rng.normal(0, 1e-3, 400)]
    )


def masking_series(seed: int) -> np.ndarray:
    # strong flanks around a long quiet stretch hiding a brief burst
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(0, 2e-2, 300),
            rng.normal(0, 1e-3, 1100),
            rng.normal(0, 3e-3, 24),
            rng.normal(0, 1e-3, 1076),
            rng.normal(0, 2e-2, 300),
        ]
    )


def assert_tiling(result: SegmentationResult, n: int, min_len: int) -> None:
    assert result.segments[0].start == 0
    assert result.segments[-1].end == n
    for a, b in zip(result.segments, result.segments[1:]):
        assert a.end == b.start
    for seg in result.segments:
        assert seg.length >= min_len
    assert [b.position for b in result.boundaries] == [s.start for s in result.segments[1:]]


class TestRecursiveSegment:
    def test_two_regime_recovers_boundary(self):
        x = two_regime(1001)
        result = recursive_segment(x)
        assert len(result.segments) == 2
        assert abs(result.boundaries[0].position - 500) <= 10
        assert result.boundaries[0].divergence > 10

    def test_two_regime_rate_over_seeds(self):
        hits = 0
        for seed in range(100):
            result = recursive_segment(two_regime(1000 + seed))
            if len(result.segments) == 2 and abs(result.boundaries[0].position - 500) <= 10:
                hits += 1
        assert hits >= 90

    def test_stationary_series_stays_whole(self):
        ones = 0
        for seed in range(100):
            x = np.random.default_rng(7000 + seed).normal(0, 1e-3, 821)
            ones += len(recursive_segment(x).segments) == 1
        assert ones >= 95

    def test_three_regime_finds_three_segments(self):
        count = 0
        for seed in range(100):
            result = recursive_segment(three_regime(5000 + seed))
            count += len(result.segments) == 3
        assert count >= 95

    def test_tiling_invariant(self):
        for seed in (0, 1, 2, 3):
            x = three_regime(seed)
            result = recursive_segment(x)
            assert_tiling(result, len(x), 14)

    def test_automatic_boundaries_reach_cutoff(self):
        cfg = SegmentationConfig(cutoff=10.0)
        for seed in (0, 5, 9):
            x = masking_series(seed)
            result = recursive_segment(x, cfg)
            for b, flag in zip(result.boundaries, result.flags):
                assert flag == FLAG_AUTOMATIC
                assert b.divergence >= cfg.cutoff

    def test_monotone_cutoff(self):
        x = masking_series(4)
        counts = [
            len(recursive_segment(x, SegmentationConfig(cutoff=c)).boundaries)
            for c in (5.0, 10.0, 20.0)
        ]
        assert counts[0] >= counts[1] >= counts[2]

    def test_stored_divergence_recomputable_from_raw_data(self):
        x = three_regime(77)
        result = recursive_segment(x)
        edges = [0] + [b.position for b in result.boundaries] + [len(x)]
        for k, b in enumerate(result.boundaries):
            window = x[edges[k] : edges[k + 2]]
            again = js_divergence(window, b.position - edges[k])
            assert again == pytest.approx(b.divergence, abs=1e-9)
            assert b.divergence_err == pytest.approx(
                delta_error(b.position - edges[k], edges[k + 2] - b.position), abs=1e-12
            )

    def test_min_segment_len_respected(self):
        x = two_regime(3, n1=30, s1=1e-3, n2=30, s2=8e-3)
        result = recursive_segment(x, SegmentationConfig(min_segment_len=25))
        for seg in result.segments:
            assert seg.length >= 25

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            recursive_segment(np.zeros(20), SegmentationConfig(min_segment_len=14))

    def test_constant_series_stays_whole(self):
        result = recursive_segment(np.zeros(200))
        assert len(result.segments) == 1

    def test_determinism(self):
        a = recursive_segment(three_regime(8))
        b = recursive_segment(three_regime(8))
        assert a == b


class TestOptimizeBoundaries:
    def test_single_boundary_is_fixed_point(self):
        x = two_regime(42)
        b = recursive_segment(x).boundaries[0]
        positions, converged = optimize_boundaries(x, [b.position], min_segment_len=14)
        assert converged
        assert positions == [b.position]

    def test_moved_boundary_is_window_argmax(self):
        # plant a deliberately misplaced middle boundary; optimization must
        # move it to the exhaustive argmax of its neighbor-bounded window
        x = three_regime(11)
        positions, converged = optimize_boundaries(x, [400 + 37, 600], min_segment_len=4)
        assert converged
        ps = PrefixSums(x)
        for k, pos in enumerate(positions):
            a = positions[k - 1] if k > 0 else 0
            b = positions[k + 1] if k + 1 < len(positions) else len(x)
            exhaustive = max(
                range(a + 4, b - 3), key=lambda t: ps.delta_at(a, t, b)
            )
            assert pos == exhaustive

    def test_sweep_order_permutation_same_fixed_point(self):
        x = three_regime(23)
        forward, _ = optimize_boundaries(x, [380, 610], min_segment_len=14)
        # reverse-order sweep implemented independently of the library loop
        bounds = [380, 610]
        ps = PrefixSums(x)
        for _ in range(100):
            moved = False
            for k in reversed(range(len(bounds))):
                a = bounds[k - 1] if k > 0 else 0
                b = bounds[k + 1] if k + 1 < len(bounds) else len(x)
                found = ps.scan(a, b, 14)
                if found and found[0] != bounds[k]:
                    bounds[k] = found[0]
                    moved = True
            if not moved:
                break
        assert bounds == forward

    def test_exterior_boundary_rejected(self):
        with pytest.raises(ValueError):
            optimize_boundaries(np.zeros(50), [0])


class TestRefineLongSegments:
    def test_context_masked_burst_recovered(self):
        x = masking_series(12)
        auto = recursive_segment(x)
        assert len(auto.segments) == 3  # the burst is invisible at the cutoff
        refined = refine_long_segments(x, auto)
        refined_flags = [f for f in refined.flags if f == FLAG_REFINED]
        assert len(refined_flags) == 2
        for b, flag in zip(refined.boundaries, refined.flags):
            if flag == FLAG_REFINED:
                assert b.divergence > 10.0
        starts = [s.start for s in refined.segments]
        assert any(abs(s - 1400) <= 6 for s in starts)
        assert any(abs(s - 1424) <= 6 for s in starts)
        assert_tiling(refined, len(x), 14)

    def test_no_long_segment_is_noop(self):
        x = two_regime(3, n1=450, n2=450, s2=5e-3)
        auto = recursive_segment(x)
        assert max(s.length for s in auto.segments) <= 1000
        refined = refine_long_segments(x, auto)
        assert refined.segments == auto.segments
        assert refined.flags == auto.flags

    def test_no_long_segment_keeps_an_unconverged_result(self):
        x = two_regime(3, n1=450, n2=450, s2=5e-3)
        stale = dataclasses.replace(recursive_segment(x), converged=False)
        full_pass = _build_result(PrefixSums(x), stale.positions, list(stale.flags), stale.config, False)
        refined = refine_long_segments(x, stale)
        assert refined == full_pass == stale
        assert not refined.converged

    def test_no_long_segment_skips_the_pass(self, monkeypatch):
        x = two_regime(3, n1=450, n2=450, s2=5e-3)
        auto = recursive_segment(x)

        def no_prefix_sums(*args):
            raise AssertionError("refinement rebuilt the prefix sums of a series without long segments")

        monkeypatch.setattr(segmenter, "PrefixSums", no_prefix_sums)
        assert refine_long_segments(x, auto, None) == auto
        wider = SegmentationConfig(long_segment_len=5000)
        refined = refine_long_segments(x, auto, wider)
        assert refined.config == wider
        assert dataclasses.replace(refined, config=auto.config) == auto

    def test_stationary_long_segment_remains_whole(self):
        x = np.random.default_rng(200).normal(0, 1e-3, 1600)
        auto = recursive_segment(x)
        assert len(auto.segments) == 1
        refined = refine_long_segments(x, auto)
        assert len(refined.segments) == 1

    def test_refined_result_deterministic(self):
        x = masking_series(13)
        a = refine_long_segments(x, recursive_segment(x))
        b = refine_long_segments(x, recursive_segment(x))
        assert a == b


class TestDivergenceEvaluations:
    """Each final boundary's divergence is evaluated once: the last pruning
    round and the result share the values."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen: list[tuple[int, int, int]] = []
        delta_at = PrefixSums.delta_at

        def counting(ps, a, t, b):
            seen.append((a, t, b))
            return delta_at(ps, a, t, b)

        monkeypatch.setattr(PrefixSums, "delta_at", counting)
        return seen

    @staticmethod
    def assert_divergences_recomputed(x, result):
        fresh = PrefixSums(x)
        edges = [0] + result.positions + [len(x)]
        for k, b in enumerate(result.boundaries):
            again = fresh.delta_at(edges[k], b.position, edges[k + 2])
            assert np.float64(b.divergence).tobytes() == np.float64(again).tobytes()

    def test_once_per_final_boundary(self, calls):
        # many short planted regimes on a sigma ladder, none pruned
        rng = np.random.default_rng(3)
        ladder = (4.5e-4, 1.1e-3, 2.8e-3, 7.2e-3)
        x = regime_returns(
            [(int(n), 0.0, ladder[k % 4]) for k, n in enumerate(rng.integers(60, 160, 30))], 3
        )
        result = recursive_segment(x)
        assert len(result.boundaries) >= 20
        assert len(calls) == len(result.boundaries)
        calls.clear()
        self.assert_divergences_recomputed(x, result)

    def test_no_split_evaluated_twice_with_refinement(self, calls):
        x = masking_series(12)
        result = refine_long_segments(x, recursive_segment(x))
        assert FLAG_REFINED in result.flags
        assert len(calls) == len(set(calls))
        calls.clear()
        self.assert_divergences_recomputed(x, result)

    def test_degenerate_split_raises_on_every_call(self):
        x = np.concatenate([np.zeros(20), np.tile([1.0, -1.0], 20)])  # mean exactly 0
        sc = _Scanner(PrefixSums(x), 4)
        for _ in range(2):
            with pytest.raises(DegenerateSplitError):
                sc.delta_at(0, 10, 20)
        assert sc.delta_at(20, 40, 60) == PrefixSums(x).delta_at(20, 40, 60)


class TestSegmentTable:
    def build_result(self, rng) -> tuple[SegmentationResult, np.ndarray]:
        left = scaled_window(rng, 446, -0.000034, 0.001186)
        right = scaled_window(rng, 16, 0.002377, 0.006626)
        x = np.concatenate([left, right])
        segments = (
            Segment(0, 446, segment_stats(left)),
            Segment(446, 462, segment_stats(right)),
        )
        boundary = Boundary(446, js_divergence(x, 446), delta_error(446, 16))
        result = SegmentationResult(
            segments, (boundary,), (FLAG_AUTOMATIC,), SegmentationConfig()
        )
        return result, x

    def test_published_row_rendering(self, rng):
        result, _ = self.build_result(rng)
        cal = weekday_calendar(dt.date(2000, 7, 17), 40)
        rows = emit_segment_table(result, cal.grid)
        row = rows[1]
        assert row["m"] == 2
        assert row["duration"] == 16
        assert row["start"] == 447 and row["end"] == 462
        assert row["stdev"] == pytest.approx(0.006626, abs=1e-9)
        assert row["stdev_err"] == pytest.approx(0.001210, abs=1e-6)
        assert row["mean_err"] == pytest.approx(0.001657, abs=2e-6)
        assert row["delta_err"] == pytest.approx(2.656, abs=1e-3)
        assert row["flag"] == FLAG_AUTOMATIC
        # 446 returns = 31 trading days + 12 half-hours into day 32
        assert row["start_date"] == cal.days[446 // 14].strftime("%d/%m/%Y")

    def test_first_row_has_empty_divergence(self, rng):
        result, _ = self.build_result(rng)
        rows = emit_segment_table(result, weekday_calendar(dt.date(2000, 7, 17), 80).grid)
        assert rows[0]["delta"] == "" and rows[0]["delta_err"] == "" and rows[0]["flag"] == ""

    def test_one_segment_result_single_row(self, rng):
        x = rng.normal(0, 1e-3, 100)
        result = SegmentationResult(
            (Segment(0, 100, segment_stats(x)),), (), (), SegmentationConfig()
        )
        rows = emit_segment_table(result, weekday_calendar(dt.date(2000, 7, 17), 80).grid)
        assert len(rows) == 1
        assert rows[0]["delta"] == ""

    def test_two_segment_delta_equals_best_split(self):
        from volseg.divergence import best_split

        x = two_regime(55)
        result = recursive_segment(x)
        assert len(result.segments) == 2
        rows = emit_segment_table(result, weekday_calendar(dt.date(2000, 7, 17), 80).grid)
        split = best_split(x, min_margin=14)
        assert rows[1]["delta"] == pytest.approx(split.divergence, abs=1e-9)

    def test_csv_roundtrip_and_layout(self, tmp_path, rng):
        result, _ = self.build_result(rng)
        cal = weekday_calendar(dt.date(2000, 7, 17), 40)
        rows = emit_segment_table(result, cal.grid)
        path = tmp_path / "seg.csv"
        write_segment_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(TABLE_COLUMNS)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert [{c: str(row[c]) for c in TABLE_COLUMNS} for row in rows] == [
            {c: rec[c] for c in TABLE_COLUMNS} for rec in back
        ]
        assert back[1]["duration"] == "16"
        assert float(back[1]["stdev"]) == rows[1]["stdev"]
        assert back[0]["delta"] == ""

    def test_byte_identical_rerun(self, tmp_path):
        x = three_regime(2)
        for name in ("a.csv", "b.csv"):
            result = recursive_segment(x)
            write_segment_csv(emit_segment_table(result, weekday_calendar(dt.date(2000, 7, 17), 80).grid), tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_json_written_with_config(self, tmp_path, rng):
        result, _ = self.build_result(rng)
        rows = emit_segment_table(result, weekday_calendar(dt.date(2000, 7, 17), 80).grid)
        write_segment_json(rows, tmp_path / "seg.json", "BM", result.config, result.converged)
        import json

        payload = json.loads((tmp_path / "seg.json").read_text())
        assert payload["sector"] == "BM"
        assert payload["config"]["cutoff"] == 10.0
        assert len(payload["rows"]) == 2


    @pytest.mark.parametrize("refined", [True, False], ids=["refined", "one-segment"])
    def test_table_reads_back_the_segments_and_boundaries_written(self, tmp_path, rng, refined):
        if refined:
            x = masking_series(12)
            result = refine_long_segments(x, recursive_segment(x))
            assert FLAG_REFINED in result.flags
        else:
            result = recursive_segment(rng.normal(0, 1e-3, 100))
            assert len(result.segments) == 1
        path = tmp_path / "RT.json"
        rows = emit_segment_table(result, weekday_calendar(dt.date(2000, 7, 17), 201).grid)
        write_segment_json(rows, path, "RT", result.config, result.converged)
        sector, segments, boundaries, start_dates = read_segment_table(path)
        assert sector == "RT"
        assert start_dates == [row["start_date"] for row in rows]

        def fields(seg: Segment) -> tuple:
            s = seg.stats
            return seg.start, seg.end, s.n, s.mean, s.stdev, s.mean_err, s.stdev_err

        assert [fields(seg) for seg in segments] == [fields(seg) for seg in result.segments]
        assert [dataclasses.astuple(b) for b in boundaries] == [dataclasses.astuple(b) for b in result.boundaries]


class TestResultValidation:
    def test_gap_rejected(self, rng):
        x = rng.normal(0, 1e-3, 60)
        seg_a = Segment(0, 30, segment_stats(x[:30]))
        seg_b = Segment(31, 60, segment_stats(x[31:]))
        with pytest.raises(ValueError, match="tile"):
            SegmentationResult(
                (seg_a, seg_b),
                (Boundary(31, 1.0, 1.0),),
                (FLAG_AUTOMATIC,),
                SegmentationConfig(),
            )

    def test_flag_count_must_match(self, rng):
        x = rng.normal(0, 1e-3, 60)
        seg = Segment(0, 60, segment_stats(x))
        with pytest.raises(ValueError):
            SegmentationResult((seg,), (), (FLAG_REFINED,), SegmentationConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SegmentationConfig(cutoff=-1.0)
        with pytest.raises(ValueError):
            SegmentationConfig(min_segment_len=2)
        with pytest.raises(ValueError, match="must be positive"):
            SegmentationConfig(cutoff=math.inf)
