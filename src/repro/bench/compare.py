"""Diffing two ``BENCH_*.json`` records (``bench compare``).

The comparison is stage-wise: for every dataset scale present in both
records and every pipeline stage whose baseline mean is above the noise
floor, the regression fraction is ``current_mean / baseline_mean - 1``.
Service throughput joins the same frame as seconds-per-document so one
threshold covers everything.  A regression larger than the threshold on
any compared metric makes the comparison fail (exit 1 in the CLI),
which is the CI gate; improvements are reported but never fail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.bench.schema import BenchSchemaError, validate_report


@dataclass(frozen=True)
class StageDelta:
    """One compared metric: a stage mean (seconds) at one scale."""

    name: str
    scale: Optional[float]
    baseline_seconds: float
    current_seconds: float

    @property
    def regression(self) -> float:
        """Fractional slowdown (> 0 regressed, < 0 improved)."""
        if self.baseline_seconds <= 0:
            return 0.0
        return self.current_seconds / self.baseline_seconds - 1.0

    def describe(self) -> str:
        scale = f"@{self.scale:g}" if self.scale is not None else ""
        return (
            f"{self.name}{scale}: {1000 * self.baseline_seconds:.3f}ms -> "
            f"{1000 * self.current_seconds:.3f}ms ({100 * self.regression:+.1f}%)"
        )


@dataclass
class ComparisonResult:
    """Everything ``bench compare`` derived from two records."""

    threshold: float
    min_seconds: float
    deltas: List[StageDelta] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[StageDelta]:
        return [d for d in self.deltas if d.regression > self.threshold]

    @property
    def improvements(self) -> List[StageDelta]:
        return [d for d in self.deltas if d.regression < -self.threshold]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def worst(self) -> Optional[StageDelta]:
        if not self.deltas:
            return None
        return max(self.deltas, key=lambda d: d.regression)


def load_report(path: Union[str, Path]) -> Dict[str, object]:
    """Parse and schema-validate one bench JSON file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchSchemaError(f"{path}: cannot read bench JSON: {exc}") from exc
    problems = validate_report(payload)
    if problems:
        listing = "; ".join(problems[:5])
        raise BenchSchemaError(f"{path}: invalid bench record: {listing}")
    return payload


def _scales_by_value(report: Dict[str, object]) -> Dict[float, Dict]:
    return {
        float(entry["scale"]): entry
        for entry in report.get("scales", [])
        if isinstance(entry, dict)
    }


def _service_seconds_per_doc(report: Dict[str, object]) -> Optional[float]:
    service = report.get("service")
    if not isinstance(service, dict):
        return None
    dps = service.get("documents_per_second")
    if not isinstance(dps, (int, float)) or dps <= 0:
        return None
    return 1.0 / float(dps)


def _load_metrics(report: Dict[str, object]) -> Dict[str, float]:
    """Comparable numbers from the optional ``load`` block.

    Seconds-per-goodput-request and the completed-request p95 join the
    same more-is-worse frame as the stage means, so the one threshold
    also gates serving capacity and tail latency under load.  Records
    are only comparable when both ran the same loop mode — the caller
    checks that.
    """
    load = report.get("load")
    if not isinstance(load, dict):
        return {}
    metrics: Dict[str, float] = {}
    goodput = load.get("goodput_rps")
    if isinstance(goodput, (int, float)) and goodput > 0:
        metrics["load.seconds_per_goodput_request"] = 1.0 / float(goodput)
    latency = load.get("latency")
    if isinstance(latency, dict):
        p95 = latency.get("p95_seconds")
        if isinstance(p95, (int, float)) and p95 > 0:
            metrics["load.p95_seconds"] = float(p95)
    return metrics


def _load_mode_of(report: Dict[str, object]) -> Optional[str]:
    load = report.get("load")
    if not isinstance(load, dict):
        return None
    config = load.get("config")
    return config.get("mode") if isinstance(config, dict) else None


def compare_reports(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float = 0.25,
    min_seconds: float = 0.001,
) -> ComparisonResult:
    """Stage-wise comparison of two parsed bench records.

    ``min_seconds`` is the noise floor: a stage whose mean is below it in
    *both* records is skipped — micro-stage jitter on fast hardware must
    not fail CI.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    result = ComparisonResult(threshold=threshold, min_seconds=min_seconds)

    base_scales = _scales_by_value(baseline)
    curr_scales = _scales_by_value(current)
    shared = sorted(set(base_scales) & set(curr_scales))
    for scale in sorted(set(base_scales) ^ set(curr_scales)):
        result.skipped.append(f"scale {scale:g} present in only one record")

    for scale in shared:
        base_stages = base_scales[scale].get("stages", {})
        curr_stages = curr_scales[scale].get("stages", {})
        for stage in sorted(set(base_stages) & set(curr_stages)):
            base_mean = float(base_stages[stage].get("mean", 0.0))
            curr_mean = float(curr_stages[stage].get("mean", 0.0))
            if base_mean < min_seconds and curr_mean < min_seconds:
                result.skipped.append(
                    f"{stage}@{scale:g} below {min_seconds}s noise floor"
                )
                continue
            result.deltas.append(
                StageDelta(stage, scale, base_mean, curr_mean)
            )

    base_spd = _service_seconds_per_doc(baseline)
    curr_spd = _service_seconds_per_doc(current)
    if base_spd is not None and curr_spd is not None:
        result.deltas.append(
            StageDelta("service.seconds_per_document", None, base_spd, curr_spd)
        )

    base_mode, curr_mode = _load_mode_of(baseline), _load_mode_of(current)
    if base_mode is not None and curr_mode is not None:
        if base_mode != curr_mode:
            result.skipped.append(
                f"load blocks ran different loop modes "
                f"({base_mode} vs {curr_mode})"
            )
        else:
            base_load = _load_metrics(baseline)
            curr_load = _load_metrics(current)
            for name in sorted(set(base_load) & set(curr_load)):
                result.deltas.append(
                    StageDelta(name, None, base_load[name], curr_load[name])
                )
    return result


def format_comparison(
    result: ComparisonResult,
    baseline_name: str = "baseline",
    current_name: str = "current",
) -> str:
    """Human-readable comparison table plus the verdict line."""
    lines = [
        f"bench compare: {baseline_name} -> {current_name} "
        f"(threshold {100 * result.threshold:.0f}%, "
        f"noise floor {1000 * result.min_seconds:g}ms)"
    ]
    for delta in result.deltas:
        marker = " "
        if delta.regression > result.threshold:
            marker = "!"
        elif delta.regression < -result.threshold:
            marker = "+"
        lines.append(f"  {marker} {delta.describe()}")
    if result.skipped:
        lines.append(f"  (skipped: {len(result.skipped)} metrics)")
    if result.ok:
        lines.append("OK: no stage regressed past the threshold")
    else:
        lines.append(
            f"FAIL: {len(result.regressions)} metric(s) regressed past "
            f"{100 * result.threshold:.0f}% (worst: {result.worst.describe()})"
        )
    return "\n".join(lines)
