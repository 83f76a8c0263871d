"""Bench JSON schema: summarize() statistics and record validation."""

import pytest

from repro.bench import SCHEMA_VERSION, summarize, validate_report


class TestSummarize:
    def test_single_sample(self):
        stats = summarize([0.5])
        assert stats["count"] == 1
        assert stats["mean"] == 0.5
        assert stats["min"] == stats["max"] == stats["p50"] == 0.5
        assert stats["stdev"] == 0.0

    def test_known_values(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats["count"] == 4
        assert stats["total"] == pytest.approx(10.0)
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["p50"] == pytest.approx(2.5)
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0

    def test_odd_median(self):
        assert summarize([3.0, 1.0, 2.0])["p50"] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestValidateReport:
    def test_real_run_is_valid(self, micro_report):
        assert validate_report(micro_report) == []

    def test_schema_version_is_current(self, micro_report):
        assert micro_report["schema_version"] == SCHEMA_VERSION

    def test_non_object_rejected(self):
        assert validate_report([1, 2, 3]) != []

    def test_newer_schema_rejected(self, micro_report):
        tampered = dict(micro_report)
        tampered["schema_version"] = SCHEMA_VERSION + 1
        assert any("newer" in p for p in validate_report(tampered))

    def test_missing_scales_rejected(self, micro_report):
        tampered = dict(micro_report)
        tampered["scales"] = []
        assert any("scales" in p for p in validate_report(tampered))

    def test_missing_stage_rejected(self, micro_report):
        import copy

        tampered = copy.deepcopy(micro_report)
        del tampered["scales"][0]["stages"]["coherence"]
        assert any("coherence" in p for p in validate_report(tampered))

    def test_non_numeric_stat_rejected(self, micro_report):
        import copy

        tampered = copy.deepcopy(micro_report)
        tampered["scales"][0]["stages"]["total"]["mean"] = "fast"
        assert any("total" in p for p in validate_report(tampered))

    def test_missing_env_rejected(self, micro_report):
        tampered = dict(micro_report)
        del tampered["env"]
        assert any("env" in p for p in validate_report(tampered))

    def test_valid_deadline_block_accepted(self, micro_report):
        report = dict(micro_report)
        report["deadline"] = {
            "scale": 0.05,
            "documents": 4,
            "workers": 2,
            "deadline_seconds": 0.05,
            "wall_seconds": 0.4,
            "completed": 1,
            "degraded": 3,
            "errors": 0,
            "cancelled": 3,
            "timeouts": 0,
            "abandoned": 0,
            "aborted_stages": {"coherence": 2, "disambiguation": 1},
            "degraded_latency": summarize([0.06, 0.07, 0.08]),
            "completed_latency": None,
        }
        assert validate_report(report) == []

    def test_malformed_deadline_block_rejected(self, micro_report):
        report = dict(micro_report)
        report["deadline"] = {"documents": 4}
        problems = validate_report(report)
        assert any("deadline_seconds" in p for p in problems)
        assert any("aborted_stages" in p for p in problems)


class TestSnapshotFields:
    def test_bad_context_source_rejected(self, micro_report):
        import copy

        bad = copy.deepcopy(micro_report)
        bad["context_source"] = "lukewarm"
        assert any("context_source" in p for p in validate_report(bad))

    def test_snapshot_source_requires_block(self, micro_report):
        import copy

        bad = copy.deepcopy(micro_report)
        bad["context_source"] = "snapshot"
        bad["snapshot"] = None
        assert any("snapshot block" in p for p in validate_report(bad))

    def test_older_record_without_fields_still_valid(self, micro_report):
        import copy

        old = copy.deepcopy(micro_report)
        old.pop("context_source", None)
        old.pop("snapshot", None)
        assert validate_report(old) == []


class TestRoutingBlock:
    def test_version_1_record_without_routing_still_valid(
        self, micro_report
    ):
        import copy

        old = copy.deepcopy(micro_report)
        old.pop("routing", None)
        assert validate_report(old) == []

    def test_legacy_routing_and_comparison_blocks_not_checked(
        self, micro_report
    ):
        import copy

        legacy = copy.deepcopy(micro_report)
        legacy["schema_version"] = 2
        legacy["routing"] = {"config": {"cover_mode": "auto"}}
        legacy["coherence_comparison"] = {"parity": True}
        assert validate_report(legacy) == []
