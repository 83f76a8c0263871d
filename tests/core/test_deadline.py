"""Deadline semantics and the pipeline's cooperative checkpoints."""

import time

import pytest

from repro.core.deadline import Deadline, DeadlineExceeded
from repro.core.tree_cover import derive_tree_cover
from repro.embeddings.similarity import SimilarityIndex


@pytest.fixture(scope="module")
def document(suite):
    return suite.kore50.documents[0].text


class TripAtStage(Deadline):
    """An unbounded deadline that trips at one named checkpoint.

    Lets the tests abort the pipeline deterministically at any stage
    without racing a wall clock.
    """

    def __init__(self, stage: str) -> None:
        super().__init__(None)
        self.trip_stage = stage
        self.stages_seen = []

    def check(self, stage: str) -> None:
        self.stages_seen.append(stage)
        if stage == self.trip_stage:
            self.cancel()
        super().check(stage)


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline.after(None)
        assert deadline.remaining() is None
        assert not deadline.expired
        deadline.check("anything")  # does not raise

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-0.1)

    def test_bounded_remaining_counts_down(self):
        deadline = Deadline.after(60.0)
        remaining = deadline.remaining()
        assert remaining is not None and 0 < remaining <= 60.0
        assert deadline.elapsed() >= 0.0

    def test_zero_budget_is_immediately_expired(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_cancel_trips_the_token(self):
        deadline = Deadline.after(None)
        deadline.cancel()
        assert deadline.cancelled
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_check_raises_with_stage_and_deadline(self):
        deadline = Deadline.after(0.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("coherence")
        assert excinfo.value.stage == "coherence"
        assert excinfo.value.deadline is deadline
        assert "coherence" in str(excinfo.value)


class TestLinkerCheckpoints:
    def test_expired_deadline_aborts_before_extraction(self, tenet):
        with pytest.raises(DeadlineExceeded) as excinfo:
            tenet.link("any document at all", deadline=Deadline.after(0.0))
        exc = excinfo.value
        assert exc.stage == "extract"
        assert exc.partial is not None
        assert exc.partial.extraction is None
        assert exc.partial.candidates is None

    def test_abort_before_candidates_salvages_extraction(
        self, suite_context, document
    ):
        from repro.core.linker import TenetLinker

        linker = TenetLinker(suite_context)
        with pytest.raises(DeadlineExceeded) as excinfo:
            linker.link(document, deadline=TripAtStage("candidates"))
        exc = excinfo.value
        assert exc.stage == "candidates"
        assert exc.partial.extraction is not None
        assert exc.partial.candidates is None
        assert "extract" in exc.partial.stage_seconds

    @pytest.mark.parametrize(
        "stage", ["coherence", "tree_cover", "grouping", "disambiguation"]
    )
    def test_late_aborts_salvage_candidates(
        self, suite_context, document, stage
    ):
        from repro.core.linker import TenetLinker

        linker = TenetLinker(suite_context)
        deadline = TripAtStage(stage)
        with pytest.raises(DeadlineExceeded) as excinfo:
            linker.link(document, deadline=deadline)
        exc = excinfo.value
        assert exc.stage == stage
        assert exc.partial.candidates is not None
        assert "candidates" in exc.partial.stage_seconds
        # Every earlier checkpoint fired before the tripping one.
        assert deadline.stages_seen.index(stage) == len(deadline.stages_seen) - 1

    def test_salvaged_candidates_reproduce_prior_only(
        self, suite_context, document
    ):
        from repro.core.linker import TenetLinker

        linker = TenetLinker(suite_context)
        with pytest.raises(DeadlineExceeded) as excinfo:
            linker.link(document, deadline=TripAtStage("coherence"))
        salvaged = linker.prior_only_from_candidates(
            excinfo.value.partial.candidates
        )
        expected = linker.link_prior_only(document)
        assert salvaged.to_json(include_timings=False) == expected.to_json(
            include_timings=False
        )


class _OutlastingSimilarity(SimilarityIndex):
    """A similarity index whose block outlasts the request's deadline."""

    def __init__(self, store, deadline):
        super().__init__(store)
        self.deadline = deadline

    def batch_similarity(self, concept_ids):
        while not self.deadline.expired:
            time.sleep(0.005)
        return super().batch_similarity(concept_ids)


class TestStageLoopCheckpoints:
    def test_coherence_checks_deadline_after_similarity_block(
        self, suite_context, document
    ):
        from repro.core.linker import TenetLinker

        linker = TenetLinker(suite_context)
        deadline = Deadline.after(0.5)
        linker.similarity = _OutlastingSimilarity(
            suite_context.embeddings, deadline
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            linker.link_detailed(document, deadline=deadline)
        assert excinfo.value.stage == "coherence"
        assert excinfo.value.partial.candidates is not None

    def test_tree_cover_honours_cancelled_deadline(
        self, suite_context, document
    ):
        from repro.core.linker import TenetLinker

        linker = TenetLinker(suite_context)
        coherence = linker.link_detailed(document).coherence
        cancelled = Deadline.after(None)
        cancelled.cancel()
        with pytest.raises(DeadlineExceeded) as excinfo:
            derive_tree_cover(coherence, deadline=cancelled)
        assert excinfo.value.stage == "tree_cover"

    def test_tree_cover_without_deadline_unchanged(
        self, suite_context, document
    ):
        from repro.core.linker import TenetLinker

        linker = TenetLinker(suite_context)
        coherence = linker.link_detailed(document).coherence
        plain = derive_tree_cover(coherence)
        threaded = derive_tree_cover(coherence, deadline=Deadline.after(None))
        assert plain.total_edges == threaded.total_edges
        assert plain.cost() == threaded.cost()

    def test_linked_result_identical_with_unbounded_deadline(
        self, suite_context, document
    ):
        from repro.core.linker import TenetLinker

        linker = TenetLinker(suite_context)
        plain = linker.link(document)
        threaded = linker.link(document, deadline=Deadline.after(None))
        assert plain.to_json(include_timings=False) == threaded.to_json(
            include_timings=False
        )
