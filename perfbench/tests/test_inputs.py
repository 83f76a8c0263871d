"""Inputs are a pure function of the workload seed."""

import unittest
from itertools import islice

import inputs
from repro.kb.synthetic import SyntheticKBConfig, build_synthetic_world
from workloads import WORKLOADS


class InputsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.world = build_synthetic_world(SyntheticKBConfig(seed=inputs.WORLD_SEED))

    def test_same_seed_same_plan(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                first = workload.prepare(self.world, 5, 4.0)
                second = workload.prepare(self.world, 5, 4.0)
                self.assertEqual(first.digest(), second.digest())
                self.assertEqual(
                    [op.request for op in first.ops()], [op.request for op in second.ops()]
                )
                other = workload.prepare(self.world, 6, 4.0)
                self.assertNotEqual(first.digest(), other.digest())

    def test_sessions_are_fresh_and_their_gold_matches_the_text(self):
        scripts = list(islice(inputs.session_scripts(self.world, 9), 9))
        self.assertEqual(scripts, list(islice(inputs.session_scripts(self.world, 9), 9)))
        kinds = [s.kind for s in scripts]
        self.assertIn("conversation", kinds)
        self.assertIn("stream", kinds)
        for script in scripts:
            joiner = "\n" if script.kind == "conversation" else ""
            text = joiner.join(script.chunks)
            for gold in script.gold:
                self.assertEqual(text[gold.char_start:gold.char_end], gold.surface)
            if script.kind == "stream":
                self.assertGreaterEqual(len(script.chunks), 2)

    def test_batches_are_fresh_dataset_analogs(self):
        first = list(islice(inputs.dataset_batches(self.world, 3), 8))
        self.assertEqual(first, list(islice(inputs.dataset_batches(self.world, 3), 8)))
        self.assertEqual([name for name, _docs in first], list(inputs.DATASETS) * 2)
        texts = [d.text for _name, docs in first for d in docs]
        self.assertEqual(len(set(texts)), len(texts))

    def test_canaries_are_stable(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(workload.canary(self.world), workload.canary(self.world))


if __name__ == "__main__":
    unittest.main()
