"""Figure 7: efficiency study.

(a) runtime vs. document length (words) for TENET / QKBfly / KBPearl;
(b) runtime vs. number of mentions;
(c)-(e) TENET runtime vs. mentions / mention groups / tree-cover edges
for candidate budgets k in {2, 4, 6}.

Shape claims from the paper: KBPearl is the most sensitive to document
length and mention count (it rebuilds its document graph from raw
vectors); TENET's runtime grows roughly linearly with the amount of data
processed and saturates for k >= 4 (most mentions have 3-4 candidates).
"""

from conftest import emit

from repro.core.config import TenetConfig
from repro.core.linker import TenetLinker
from repro.datasets.generator import DocumentGenerator, DocumentSpec
from repro.eval.timing import time_linker, time_tenet_detailed

# Facts per document: ~50 to ~3600 words, the long end at the paper's sizes.
SIZES = (2, 4, 8, 16, 32, 64, 128, 256)


def _documents(bench_suite):
    """Documents of geometrically increasing size."""
    generator = DocumentGenerator(bench_suite.world, seed=99)
    documents = []
    for size in SIZES:
        spec = DocumentSpec(
            domain="computer_science",
            facts=size,
            isolated_facts=max(1, size // 8),
            non_linkable_noun_sentences=1,
            non_linkable_relation_sentences=1,
            filler_sentences=size,
            pronoun_prob=0.2,
            title_facts=1,
        )
        documents.append(generator.generate(f"scale-{size}", spec))
    return documents


def test_fig7ab_runtime_vs_size(bench_suite, bench_linkers, benchmark):
    documents = _documents(bench_suite)
    systems = ["QKBfly", "KBPearl", "TENET"]

    def run():
        samples = {name: [] for name in systems}
        for document in documents:
            for name in systems:
                samples[name].append(
                    time_linker(bench_linkers[name], document.text, repeats=3)
                )
        return samples

    samples = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["(a) runtime (ms) vs. #words / (b) vs. #mentions"]
    lines.append(
        f"{'System':10s} " + " ".join(
            f"w={s.words:4d}/m={s.mentions:3d}" for s in samples["TENET"]
        )
    )
    for name in systems:
        lines.append(
            f"{name:10s} " + " ".join(
                f"{1000 * s.seconds:13.1f}" for s in samples[name]
            )
        )
    # Growth ratios anchored at the second size: the smallest document
    # runs in ~1 ms where timer noise dominates.
    ratios = {}
    for name in systems:
        base, last = samples[name][1].seconds, samples[name][-1].seconds
        ratios[name] = last / max(base, 1e-9)
        lines.append(
            f"growth {name} (size 2 -> {len(SIZES)}): x{ratios[name]:.1f}"
        )
    emit("fig7ab_runtime_vs_size", lines)

    # runtime grows with input for every system
    for name in systems:
        assert samples[name][-1].seconds > samples[name][0].seconds
    # The paper's Fig. 7(a)-(b) claims: KBPearl (per-document graph,
    # no pairwise cache) is markedly more length-sensitive than TENET,
    # whose relatedness is pre-computed and whose runtime grows roughly
    # linearly with the input.
    assert ratios["KBPearl"] > ratios["TENET"]
    words_ratio = samples["TENET"][-1].words / samples["TENET"][1].words
    assert ratios["TENET"] < words_ratio ** 1.5


def test_fig7cde_tenet_scaling(bench_suite, bench_context, benchmark):
    documents = _documents(bench_suite)
    budgets = (2, 4, 6)

    def run():
        samples = {}
        for k in budgets:
            linker = TenetLinker(bench_context, TenetConfig(max_candidates=k))
            samples[k] = [
                time_tenet_detailed(linker, document.text)
                for document in documents
            ]
        return samples

    samples = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = []
    for label, attribute in (
        ("(c) runtime (ms) vs. #mentions", "mentions"),
        ("(d) runtime (ms) vs. #mention groups", "groups"),
        ("(e) runtime (ms) vs. #tree-cover edges", "cover_edges"),
    ):
        lines.append(label)
        for k in budgets:
            row = f"  k={k}: "
            row += "  ".join(
                f"({getattr(s, attribute)}, {1000 * s.seconds:.1f})"
                for s in samples[k]
            )
            lines.append(row)
    emit("fig7cde_tenet_scaling", lines)

    # larger candidate budgets cost more, but runtime saturates by k=4:
    # most mentions have at most 3-4 candidates in the KB (paper Sec. 6.2)
    total = {k: sum(s.seconds for s in samples[k]) for k in budgets}
    assert total[4] >= total[2] * 0.8
    assert total[6] <= total[4] * 1.6
    # roughly linear scaling: doubling the input does not quadruple time
    for k in budgets:
        mentions_ratio = samples[k][-1].mentions / samples[k][0].mentions
        time_ratio = samples[k][-1].seconds / max(samples[k][0].seconds, 1e-9)
        assert time_ratio < mentions_ratio ** 2.2
