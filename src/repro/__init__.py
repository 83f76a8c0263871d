"""TENET: joint entity and relation linking with coherence relaxation.

Reproduction of Lin, Chen & Zhang, SIGMOD 2021.  The public entry points:

>>> from repro import build_synthetic_world, LinkingContext, TenetLinker
>>> world = build_synthetic_world()
>>> context = LinkingContext.build(world.kb, world.taxonomy)
>>> linker = TenetLinker(context)
>>> result = linker.link("Some document text.")

Sub-packages:

* ``repro.kb`` — triple store, alias index, synthetic world (the
  Wikidata-dump substrate);
* ``repro.embeddings`` — deterministic graph embeddings (the
  PyTorch-BigGraph substrate);
* ``repro.nlp`` — the rule-based extraction pipeline (the
  NLTK/spaCy/MinIE substrate);
* ``repro.graph`` — union-find, Kruskal MST, Hopcroft-Karp, Dijkstra,
  rooted trees;
* ``repro.core`` — the paper's contribution: coherence graph, tree
  cover, canopies, greedy disambiguation, the ``TenetLinker`` facade;
* ``repro.baselines`` — Falcon, EARL, KBPearl, MINTREE, QKBfly;
* ``repro.datasets`` — synthetic analogs of News / T-REx42 / KORE50 /
  MSNBC19;
* ``repro.eval`` — metrics, runners, sparsity analysis, timing;
* ``repro.service`` — the concurrent serving layer: request schema,
  cross-request caches, thread-pooled engine with deadlines and
  admission control, metrics, and the ``tenet-repro serve`` HTTP server;
* ``repro.population`` / ``repro.qa`` — the downstream applications the
  paper motivates (KB population, question answering).
"""

from repro.core.config import TenetConfig
from repro.core.linker import LinkingContext, TenetLinker
from repro.core.result import Link, LinkingResult
from repro.kb.synthetic import SyntheticKBConfig, build_synthetic_world

__version__ = "1.0.0"

__all__ = [
    "TenetConfig",
    "LinkingContext",
    "TenetLinker",
    "Link",
    "LinkingResult",
    "SyntheticKBConfig",
    "build_synthetic_world",
    "__version__",
]
