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

import hashlib
import json
import os
import subprocess
import sys
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


def payload_digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


_LINK_SUITE = (
    "from tests.integration.test_golden_exact import current_payload, "
    "payload_digest; print(payload_digest(current_payload()))"
)


def _dispatchable_features():
    """The SIMD features numpy dispatches at run time on this CPU, and
    the subset above AVX2.  Names differ between numpy versions."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    available = [
        name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)
    ]
    wide = [
        name for name in available if name.startswith("AVX512") or name == "X86_V4"
    ]
    return wide, available


_WIDE, _DISPATCHABLE = _dispatchable_features()


class TestAnswersIndependentOfHost:
    """The golden answers depend on the document only: not on which SIMD
    kernels numpy dispatches, nor on the string hash seed."""

    @pytest.mark.parametrize(
        "env",
        [
            {"PYTHONHASHSEED": "1"},
            {"PYTHONHASHSEED": "2"},
            {"NPY_DISABLE_CPU_FEATURES": " ".join(_WIDE)},
            {"NPY_DISABLE_CPU_FEATURES": " ".join(_DISPATCHABLE)},
        ],
        ids=["hashseed-1", "hashseed-2", "avx2", "baseline"],
    )
    def test_subprocess_digest_matches_golden(self, env):
        root = Path(__file__).resolve().parents[2]
        golden = json.loads(GOLDEN_PATH.read_text())
        environment = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
            **env,
        }
        if not environment.get("NPY_DISABLE_CPU_FEATURES"):
            environment.pop("NPY_DISABLE_CPU_FEATURES", None)
        run = subprocess.run(
            [sys.executable, "-c", _LINK_SUITE],
            cwd=root,
            env=environment,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split()[-1] == payload_digest(golden)
