"""The benchmark harness end to end (one shared micro run)."""

import json

import pytest

from repro.bench import BenchConfig, default_report_name, git_rev, run_benchmark
from repro.bench.schema import CORE_STAGES


class TestBenchConfig:
    def test_quick_profile_is_small(self):
        quick = BenchConfig.quick()
        assert max(quick.scales) < 1.0
        assert quick.repeats == 1
        assert quick.warmup == 0

    def test_rejects_empty_scales(self):
        with pytest.raises(ValueError):
            BenchConfig(scales=())

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            BenchConfig(scales=(0.5, -1.0))

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            BenchConfig(repeats=0)

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            BenchConfig(deadline_seconds=0.0)


class TestReportShape:
    def test_json_serializable(self, micro_report):
        parsed = json.loads(json.dumps(micro_report))
        assert parsed["kind"] == "tenet-bench"

    def test_all_core_stages_timed(self, micro_report):
        stages = micro_report["scales"][0]["stages"]
        for stage in CORE_STAGES:
            assert stage in stages
            assert stages[stage]["count"] > 0
            assert stages[stage]["mean"] >= 0.0

    def test_stage_counts_match_documents(self, micro_report):
        entry = micro_report["scales"][0]
        assert entry["stages"]["total"]["count"] == (
            entry["documents"] * entry["runs"]
        )

    def test_graph_sizes_recorded(self, micro_report):
        graph = micro_report["scales"][0]["graph"]
        assert graph["mentions"] > 0
        assert graph["nodes"] > graph["mentions"]  # mentions + candidates
        assert graph["edges"] > 0
        assert graph["total_weight"] > 0.0
        assert graph["max_degree"] >= 1

    def test_env_fingerprint(self, micro_report):
        env = micro_report["env"]
        assert env["numpy"]
        assert env["python"].count(".") >= 1

    def test_peak_rss_recorded(self, micro_report):
        assert micro_report["peak_rss_kb"] is None or micro_report["peak_rss_kb"] > 0

    def test_service_throughput_and_caches(self, micro_report):
        service = micro_report["service"]
        assert service["documents_per_second"] > 0
        assert service["errors"] == 0
        caches = service["caches"]
        # The repro.caching LRU counters are part of the trajectory.
        assert caches["candidates"]["hits"] + caches["candidates"]["misses"] > 0
        assert "alias_fuzzy" in caches
        assert "similarity_batch" in caches
        assert caches["similarity_batch"]["batch_calls"] > 0


class TestDeadlineMode:
    def test_absent_without_flag(self, micro_report):
        # The micro fixture runs without --deadline: the block is null
        # and the config records the absence.
        assert micro_report["deadline"] is None
        assert micro_report["config"]["deadline_seconds"] is None

    def test_generous_deadline_completes_everything(self, suite, suite_context):
        from repro.bench.harness import _deadline_mode
        from repro.core.config import TenetConfig

        texts = [doc.text for doc in suite.kore50.documents[:3]]
        block = _deadline_mode(
            suite_context, TenetConfig(), 0.15, texts, 2, 30.0
        )
        assert block["completed"] == 3
        assert block["degraded"] == 0
        assert block["errors"] == 0
        assert block["cancelled"] == 0
        assert block["completed_latency"]["count"] == 3
        assert block["degraded_latency"] is None

    def test_tight_deadline_degrades_and_counts_aborts(
        self, suite, suite_context
    ):
        from repro.bench.harness import _deadline_mode
        from repro.core.config import TenetConfig

        texts = [doc.text for doc in suite.kore50.documents[:3]]
        # An already-expired budget: every request aborts cooperatively
        # (usually at the first checkpoint) and degrades.
        block = _deadline_mode(
            suite_context, TenetConfig(), 0.15, texts, 2, 1e-4
        )
        assert block["completed"] == 0
        assert block["degraded"] == 3
        assert block["errors"] == 0
        assert block["degraded_latency"]["count"] == 3
        # Each degraded request was either answered by its cancelled
        # worker or degraded caller-side after the grace.
        assert block["cancelled"] + block["timeouts"] >= 3
        assert sum(block["aborted_stages"].values()) == block["cancelled"]


class TestTraceMode:
    def test_block_present_and_valid(self, micro_report):
        from repro.bench.schema import validate_report

        trace = micro_report["trace"]
        assert trace is not None
        assert micro_report["config"]["trace"] is True
        assert validate_report(micro_report) == []

    def test_every_document_traced(self, micro_report):
        trace = micro_report["trace"]
        assert trace["recorded"] == trace["documents"] > 0
        assert trace["stages"]["total"]["count"] == trace["documents"]

    def test_spans_agree_with_stage_timings(self, micro_report):
        # Spans reuse the stage stopwatch, so the parity delta is zero.
        assert micro_report["trace"]["span_stage_max_delta_seconds"] == 0.0

    def test_absent_without_flag(self, suite, suite_context):
        from repro.bench.harness import _trace_mode
        from repro.core.linker import TenetLinker

        # The harness emits null without --trace; the helper itself is
        # exercised directly on a tiny corpus here.
        linker = TenetLinker(suite_context)
        texts = [doc.text for doc in suite.kore50.documents[:2]]
        block = _trace_mode(linker, 0.15, texts)
        assert block["documents"] == 2
        assert block["span_stage_max_delta_seconds"] == 0.0
        for stage in ("extract", "candidates", "coherence", "total"):
            assert block["stages"][stage]["count"] == 2


class TestNaming:
    def test_default_report_name_embeds_rev(self):
        assert default_report_name("abc123") == "BENCH_abc123.json"

    def test_git_rev_env_override(self, monkeypatch):
        monkeypatch.setenv("BENCH_REV", "pinned")
        assert git_rev() == "pinned"
        assert default_report_name() == "BENCH_pinned.json"


class TestWarmStart:
    def test_cold_run_is_labelled_cold(self, micro_report):
        assert micro_report["context_source"] == "cold"
        assert micro_report["snapshot"] is None
        assert micro_report["context_build_seconds"] > 0.0

    def test_snapshot_run_records_identity(self, tmp_path):
        from repro.bench import validate_report

        config = BenchConfig(
            scales=(0.05,),
            repeats=1,
            warmup=0,
            service_workers=2,
            label="micro-warm",
        )
        report = run_benchmark(config, snapshot_path=tmp_path / "store")
        assert validate_report(report) == []
        assert report["context_source"] == "snapshot"
        snapshot = report["snapshot"]
        assert snapshot["id"].startswith("snap-")
        # First run pays the build (load-or-build), and says so.
        assert snapshot["source"] == "built"
        assert snapshot["load_seconds"] > 0.0
        # Second run warm-starts from the persisted snapshot.
        rerun = run_benchmark(config, snapshot_path=tmp_path / "store")
        assert rerun["snapshot"]["source"] == "warm"
        assert rerun["snapshot"]["content_digest"] == snapshot["content_digest"]

    def test_warm_and_cold_stage_structure_agree(self, micro_report, tmp_path):
        config = BenchConfig(
            scales=(0.05,),
            repeats=1,
            warmup=0,
            service_workers=2,
        )
        warm = run_benchmark(config, snapshot_path=tmp_path / "store")
        cold_entry = micro_report["scales"][0]
        warm_entry = warm["scales"][0]
        # Same corpus, same graph: the warm context links identically.
        assert warm_entry["documents"] == cold_entry["documents"]
        assert warm_entry["graph"] == cold_entry["graph"]
