"""Configuration of the TENET linker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TenetConfig:
    """Knobs of the end-to-end TENET pipeline.

    Attributes
    ----------
    max_candidates:
        Candidate concepts retained per mention (the paper's k; Fig. 6(d)
        finds 3-4 optimal on News).
    tree_weight_bound:
        The bound B on each tree's weight.  ``None`` reproduces the
        paper's setting B = \\|M\\| per document (Sec. 6.1).
    min_prior:
        Candidates with prior below this are dropped during generation
        (cheap noise filter; 0 disables).
    prior_link_threshold:
        A mention whose *selected* link was chosen with local distance
        above this and with no coherence support is reported as
        non-linkable instead — this is how isolated phrases with only
        far-fetched candidates surface as "new concepts".
    max_span_tokens:
        Longest candidate mention considered by the chunker.
    use_fuzzy_candidates:
        Whether to fall back to token-overlap alias lookup when the exact
        lookup yields nothing.
    predicate_similarity_scale:
        Calibration of predicate-involving coherence edges (see
        :func:`repro.core.coherence.build_coherence_graph`).
    prior_distance_floor / prior_distance_curve / coherence_prior_blend:
        The scale calibration between anchor-statistics priors and
        embedding cosines (DESIGN.md §5a): local distances map to
        ``floor + (1-floor)·(1-P)^curve`` and a ``blend`` fraction of
        both endpoints' local distances is added to concept edges.
    coherence_max_neighbours:
        kNN sparsification of the coherence graph: each candidate keeps
        only this many lightest admissible concept edges (``None`` for
        the dense graph; quality-neutral per the ablation).
    use_canopies:
        Ablation switch for the Sec. 5.1 mention-group/canopy machinery;
        off, every extracted span competes as its own singleton group.
    use_type_filter:
        Enables KB-driven mention typing (Sec. 3 Step 1's type filter)
        via :class:`repro.nlp.ner.MentionTyper`.
    """

    max_candidates: int = 4
    tree_weight_bound: Optional[float] = None
    min_prior: float = 0.0
    prior_link_threshold: float = 0.95
    max_span_tokens: int = 8
    use_fuzzy_candidates: bool = False
    predicate_similarity_scale: float = 0.75
    prior_distance_floor: float = 0.62
    coherence_prior_blend: float = 0.06
    prior_distance_curve: float = 0.5
    coherence_max_neighbours: Optional[int] = 12
    use_canopies: bool = True
    use_type_filter: bool = False

    def __post_init__(self) -> None:
        if self.max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if self.tree_weight_bound is not None and self.tree_weight_bound <= 0:
            raise ValueError(
                f"tree_weight_bound must be positive, got {self.tree_weight_bound}"
            )
        if not 0.0 <= self.min_prior <= 1.0:
            raise ValueError(f"min_prior must be in [0, 1], got {self.min_prior}")
