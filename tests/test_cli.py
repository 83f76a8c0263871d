"""CLI tests (in-process, via main())."""

import gc
import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.service.server import LinkingHTTPServer


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_system_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["link", "text", "--system", "nope"])


class TestWorld:
    def test_writes_dump(self, tmp_path, capsys):
        path = tmp_path / "kb.json"
        assert main(["world", str(path)]) == 0
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["entities"]
        out = capsys.readouterr().out
        assert "entities" in out


class TestDatasets:
    def test_writes_all_datasets(self, tmp_path):
        out = tmp_path / "data"
        assert main(["datasets", str(out), "--scale", "0.05"]) == 0
        for name in ("kb", "news", "t-rex42", "kore50", "msnbc19"):
            assert (out / f"{name}.json").exists()


class TestLink:
    def test_link_text_argument(self, capsys):
        code = main(
            ["link", "Glowberry Cleanse is located in Brooklyn."]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "TENET"
        assert any(e["surface"] == "Brooklyn" for e in payload["entities"])
        assert any(
            e["surface"] == "Glowberry Cleanse" for e in payload["non_linkable"]
        )

    def test_link_from_file(self, tmp_path, capsys):
        path = tmp_path / "doc.txt"
        path.write_text("Brooklyn is twinned with Brooklyn.")
        assert main(["link", "--file", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entities"]

    def test_link_baseline_system(self, capsys):
        assert main(["link", "Brooklyn grew.", "--system", "falcon"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "Falcon"

    def test_empty_document_fails(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["link"]) == 2


class TestLinkJsonl:
    def test_streams_one_json_per_line(self, tmp_path, capsys):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            "Brooklyn grew.\n"
            "\n"
            "Brooklyn is twinned with Brooklyn.\n"
        )
        assert main(["link", "--jsonl", "--file", str(path)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2  # the blank input line is skipped
        for line in lines:
            payload = json.loads(line)
            assert payload["system"] == "TENET"
            assert any(e["surface"] == "Brooklyn" for e in payload["entities"])

    def test_jsonl_matches_single_link(self, capsys):
        text = "Brooklyn grew."
        assert main(["link", text]) == 0
        single = json.loads(capsys.readouterr().out)
        assert main(["link", "--jsonl", text]) == 0
        batched = json.loads(capsys.readouterr().out.strip())
        single.pop("timings", None)
        batched.pop("timings", None)
        assert batched == single


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8080
        assert args.workers == 4
        assert args.timeout is None
        assert not args.no_cache

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2",
             "--timeout", "1.5", "--no-cache"]
        )
        assert args.port == 0
        assert args.workers == 2
        assert args.timeout == 1.5
        assert args.no_cache


class TestServeStartup:
    def test_startup_state_is_frozen_out_of_collections(
        self, monkeypatch, context, capsys
    ):
        # Full collections inside requests would otherwise re-scan every
        # object built at startup.
        monkeypatch.setattr(cli, "_resolve_context", lambda args: (context, None))
        monkeypatch.setattr(LinkingHTTPServer, "serve_forever", lambda self: None)
        gc.unfreeze()
        try:
            assert main(["serve", "--port", "0", "--workers", "1"]) == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()


class TestEvaluate:
    def test_small_evaluation(self, capsys):
        code = main(
            [
                "evaluate",
                "--scale", "0.05",
                "--systems", "falcon,tenet",
                "--datasets", "kore50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "KORE50" in out
        assert "TENET" in out and "Falcon" in out

    def test_unknown_system_errors(self, capsys):
        assert main(["evaluate", "--systems", "nope"]) == 2


class TestStats:
    def test_prints_all_rows(self, capsys):
        assert main(["stats", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        for name in ("News", "T-REx42", "KORE50", "MSNBC19"):
            assert name in out


class TestReport:
    def test_writes_markdown_report(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(
            [
                "report", str(out),
                "--scale", "0.05",
                "--systems", "falcon,tenet",
            ]
        )
        assert code == 0
        document = out.read_text()
        assert document.startswith("# TENET reproduction report")
        assert "Entity linking" in document
        assert "Error analysis" in document

    def test_unknown_system_rejected(self, tmp_path):
        assert main(["report", str(tmp_path / "r.md"), "--systems", "zzz"]) == 2


class TestValidate:
    def test_valid_dataset_passes(self, tmp_path):
        out = tmp_path / "data"
        main(["datasets", str(out), "--scale", "0.05"])
        code = main(
            ["validate", str(out / "kore50.json"), "--kb", str(out / "kb.json")]
        )
        assert code == 0

    def test_broken_dataset_fails(self, tmp_path, capsys):
        import json

        out = tmp_path / "data"
        main(["datasets", str(out, ), "--scale", "0.05"])
        payload = json.loads((out / "kore50.json").read_text())
        payload["documents"][0]["gold"][0]["surface"] = "CORRUPTED"
        (out / "broken.json").write_text(json.dumps(payload))
        code = main(["validate", str(out / "broken.json")])
        assert code == 1
        assert "error" in capsys.readouterr().out


class TestSnapshotCli:
    @pytest.fixture
    def store(self, tmp_path, capsys):
        """A store with one small snapshot built through the CLI."""
        root = tmp_path / "snapshots"
        assert main(
            ["snapshot", "build", str(root), "--scales", "0.05"]
        ) == 0
        capsys.readouterr()
        return root

    def test_build_prints_snapshot_path(self, tmp_path, capsys):
        root = tmp_path / "snapshots"
        assert main(["snapshot", "build", str(root), "--scales", "0.05"]) == 0
        out = capsys.readouterr().out
        path = out.strip().splitlines()[-1]
        assert path.startswith(str(root))
        assert "snap-" in path

    def test_build_bad_scales(self, tmp_path):
        assert main(["snapshot", "build", str(tmp_path), "--scales", "x"]) == 2

    def test_verify_store_ok(self, store, capsys):
        assert main(["snapshot", "verify", str(store)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_single_snapshot_directory(self, store, capsys):
        snapshot = next(store.glob("snap-*"))
        assert main(["snapshot", "verify", str(snapshot)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_corrupt_store_fails(self, store, capsys):
        target = next(store.glob("snap-*/kb.json"))
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        assert main(["snapshot", "verify", str(store)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "kb.json" in out

    def test_verify_empty_store_errors(self, tmp_path, capsys):
        assert main(["snapshot", "verify", str(tmp_path)]) == 2

    def test_list_json(self, store, capsys):
        assert main(["snapshot", "list", str(store), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1
        assert entries[0]["seed"] == 7
        assert entries[0]["scales"] == [0.05]

    def test_list_human(self, store, capsys):
        assert main(["snapshot", "list", str(store)]) == 0
        out = capsys.readouterr().out
        assert "snap-" in out and "seed=7" in out

    def test_gc_dry_run(self, store, capsys):
        litter = store / ".tmp-snap-x-deadbeef"
        litter.mkdir()
        assert main(["snapshot", "gc", str(store), "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out
        assert litter.is_dir()
        assert main(["snapshot", "gc", str(store)]) == 0
        assert not litter.exists()

    def test_link_warm_matches_cold(self, store, capsys):
        text = "Brooklyn is twinned with Brooklyn."
        assert main(["link", text]) == 0
        cold = json.loads(capsys.readouterr().out)
        # Default link spec differs from the store only in scales, so
        # the stored snapshot is reused rather than rebuilt.
        assert main(["link", text, "--snapshot", str(store)]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert len(list(store.glob("snap-*"))) == 1
        cold.pop("timings", None)
        warm.pop("timings", None)
        assert warm == cold
