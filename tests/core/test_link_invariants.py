"""Invariants of disambiguation (Sec. 5.2) over generated documents.

Whatever a generated document holds, :meth:`TenetLinker.link_detailed`
must keep the paper's pruning strategies: every link names one of its
mention's candidates, no two linked spans overlap, no span is reported
both linked and non-linkable, and a linked span lies in the canopy its
group committed.
"""

from hypothesis import given, settings, strategies as st

from repro.datasets.generator import DocumentGenerator, DocumentSpec
from repro.kb.namepools import DOMAINS
from repro.nlp.spans import spans_overlap

documents = st.builds(
    lambda domain, facts, isolated, pronoun, seed: (
        seed,
        DocumentSpec(
            domain=domain,
            facts=facts,
            isolated_facts=isolated,
            filler_sentences=facts,
            pronoun_prob=pronoun,
            surname_prob=0.3,
        ),
    ),
    domain=st.sampled_from(DOMAINS),
    facts=st.integers(1, 24),
    isolated=st.integers(0, 3),
    pronoun=st.sampled_from([0.0, 0.25, 0.5]),
    seed=st.integers(0, 10_000),
)


class TestLinkInvariants:
    @settings(max_examples=40, deadline=None)
    @given(documents)
    def test_disambiguation_invariants(self, world, tenet, document):
        seed, spec = document
        text = DocumentGenerator(world, seed=seed).generate("doc", spec).text
        diagnostics = tenet.link_detailed(text)
        gamma = diagnostics.disambiguation.gamma
        by_mention = diagnostics.candidates.by_mention

        for mention, node in gamma.items():
            assert node.mention == mention
            assert node.concept_id in {hit.concept_id for hit in by_mention[mention]}

        linked = list(gamma)
        for i, a in enumerate(linked):
            for b in linked[i + 1:]:
                assert not spans_overlap(a, b), (a, b)

        assert not set(linked) & set(diagnostics.disambiguation.non_linkable)
        result = diagnostics.result
        reported = {link.span for link in result.entity_links + result.relation_links}
        assert not reported & set(result.non_linkable)

        committed = diagnostics.disambiguation.committed_canopies
        group_of = {}
        for group in diagnostics.groups:
            for span in group.spans():
                group_of.setdefault(span, group)
        for mention in linked:
            group = group_of[mention]
            assert group.group_id in committed
            assert mention in group.canopies[committed[group.group_id]]
