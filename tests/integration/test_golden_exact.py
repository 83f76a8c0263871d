"""Pinned exact-mode output: the fast-path work must never move it.

``golden/exact_linking_scale010.json`` stores the full
``to_json(include_timings=False)`` payload of every document in the
seed-7, scale-0.1 benchmark suite, linked with the default config.
Any behavioural drift in the exact pipeline — tokenisation, candidate
generation, coherence weights, tree cover, greedy scan — shows up here
as a diff, not as a silent quality change.

Regenerate deliberately (after an intended output change) with::

    PYTHONPATH=src python tests/integration/regen_golden_exact.py
"""

import json
from pathlib import Path

import pytest

from repro.core.config import TenetConfig
from repro.core.linker import LinkingContext, TenetLinker
from repro.datasets.benchmarks import build_benchmark_suite

GOLDEN_PATH = (
    Path(__file__).parent / "golden" / "exact_linking_scale010.json"
)


def current_payload():
    suite = build_benchmark_suite(seed=7, scale=0.1)
    context = LinkingContext.build(suite.world.kb, suite.world.taxonomy)
    linker = TenetLinker(context, TenetConfig())
    return {
        document.doc_id: linker.link(document.text).to_json(
            include_timings=False
        )
        for dataset in suite.datasets()
        for document in dataset.documents
    }


class TestGoldenExact:
    def test_exact_output_matches_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        current = current_payload()
        assert set(current) == set(golden)
        for doc_id in sorted(golden):
            assert json.dumps(
                current[doc_id], sort_keys=True
            ) == json.dumps(golden[doc_id], sort_keys=True), doc_id

    def test_golden_is_nontrivial(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert len(golden) >= 10
        linked = sum(
            1 for payload in golden.values() if payload.get("entities")
        )
        assert linked >= len(golden) // 2
