"""bench compare: regression detection between two bench records."""

import copy

import pytest

from repro.bench import (
    BenchSchemaError,
    compare_reports,
    format_comparison,
    load_report,
)
from repro.bench.harness import write_report


def degrade(report, stage, factor, scale_index=0):
    """A deep copy with one stage's mean multiplied by *factor*."""
    worse = copy.deepcopy(report)
    block = worse["scales"][scale_index]["stages"][stage]
    block["mean"] *= factor
    return worse


class TestCompare:
    def test_identical_reports_ok(self, micro_report):
        result = compare_reports(micro_report, micro_report)
        assert result.ok
        assert result.regressions == []
        assert result.deltas  # something above the noise floor was compared

    def test_degraded_stage_fails(self, micro_report):
        worse = degrade(micro_report, "total", 2.0)
        result = compare_reports(micro_report, worse, threshold=0.25)
        assert not result.ok
        assert any(d.name == "total" for d in result.regressions)

    def test_threshold_is_respected(self, micro_report):
        worse = degrade(micro_report, "total", 1.4)
        assert not compare_reports(micro_report, worse, threshold=0.25).ok
        assert compare_reports(micro_report, worse, threshold=0.75).ok

    def test_improvement_never_fails(self, micro_report):
        better = degrade(micro_report, "total", 0.25)
        result = compare_reports(micro_report, better)
        assert result.ok
        assert any(d.name == "total" for d in result.improvements)

    def test_noise_floor_skips_fast_stages(self, micro_report):
        # A stage at 1 microsecond in both records is jitter, not signal,
        # even when the ratio is huge.
        tiny = copy.deepcopy(micro_report)
        tiny["scales"][0]["stages"]["total"]["mean"] = 1e-6
        worse = degrade(tiny, "total", 50.0)
        result = compare_reports(tiny, worse, min_seconds=0.001)
        assert all(d.name != "total" for d in result.deltas)
        assert any("total" in s for s in result.skipped)

    def test_service_throughput_compared(self, micro_report):
        worse = copy.deepcopy(micro_report)
        worse["service"]["documents_per_second"] /= 3.0
        result = compare_reports(micro_report, worse)
        assert any(
            d.name == "service.seconds_per_document" for d in result.regressions
        )

    def test_disjoint_scales_skipped(self, micro_report):
        other = copy.deepcopy(micro_report)
        other["scales"][0]["scale"] = 99.0
        result = compare_reports(micro_report, other)
        assert result.ok
        assert result.skipped

    def test_bad_threshold_rejected(self, micro_report):
        with pytest.raises(ValueError):
            compare_reports(micro_report, micro_report, threshold=0.0)


class TestRoutingParity:
    """Records from before the routed mode was removed carry a
    ``routing`` block; ``bench compare`` no longer gates on it."""

    def _with_failed_routing(self, report):
        legacy = copy.deepcopy(report)
        legacy["routing"] = {
            "documents": 1,
            "parity": {"ok": False, "max_abs_delta": 0.02, "tolerance": 0.005},
        }
        return legacy

    def test_baseline_parity_never_checked(self, micro_report):
        drifted = self._with_failed_routing(micro_report)
        assert compare_reports(drifted, micro_report).ok
        assert compare_reports(micro_report, drifted).ok

    def test_record_without_routing_block_is_fine(self, micro_report):
        old = copy.deepcopy(micro_report)
        old.pop("routing", None)
        assert compare_reports(micro_report, old).ok


class TestFormatting:
    def test_ok_verdict(self, micro_report):
        text = format_comparison(compare_reports(micro_report, micro_report))
        assert "OK" in text

    def test_fail_verdict_names_stage(self, micro_report):
        worse = degrade(micro_report, "coherence", 10.0)
        text = format_comparison(compare_reports(micro_report, worse))
        assert "FAIL" in text
        assert "coherence" in text


class TestLoadReport:
    def test_roundtrip(self, micro_report, tmp_path):
        path = write_report(micro_report, tmp_path / "BENCH_x.json")
        assert load_report(path)["rev"] == micro_report["rev"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(BenchSchemaError):
            load_report(tmp_path / "nope.json")

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BenchSchemaError):
            load_report(path)

    def test_wrong_kind_raises(self, micro_report, tmp_path):
        tampered = dict(micro_report)
        tampered["kind"] = "something-else"
        path = write_report(tampered, tmp_path / "BENCH_y.json")
        with pytest.raises(BenchSchemaError):
            load_report(path)
