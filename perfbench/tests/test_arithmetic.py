"""The benchmark's own arithmetic: tails, self time, fits, spreads."""

import math
import unittest

import stats
from checks import Answer, Expect
from layers import Trace, stage_metrics


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100 ms
        value, percentile, beyond = stats.tail(samples)
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)
        self.assertAlmostEqual(percentile, 90.0)

    def test_failed_operations_are_infinitely_slow(self):
        samples = list(range(1, 96))
        value, _percentile, beyond = stats.tail(samples, failed=5)
        # 100 samples, 5 of them infinite: the 90th is still finite.
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)
        value, _percentile, _beyond = stats.tail(samples[:80], failed=11)
        self.assertTrue(math.isinf(value))

    def test_small_sample_falls_back_to_the_minimum(self):
        value, percentile, beyond = stats.tail([5.0, 3.0, 4.0])
        self.assertEqual((value, beyond), (3.0, 2))
        self.assertAlmostEqual(percentile, 100.0 / 3)
        self.assertTrue(math.isnan(stats.tail([])[0]))

    def test_exactly_eleven_samples(self):
        value, _percentile, beyond = stats.tail(list(range(11)))
        self.assertEqual((value, beyond), (0, 10))


class SelfTimeTest(unittest.TestCase):
    def test_span_minus_union_of_children(self):
        # Overlapping children (two threads) count once; a child running
        # past the parent's end is clipped.
        children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)]
        self.assertAlmostEqual(stats.self_time((0.0, 10.0), children), 10.0 - 3.0 - 1.0 - 1.0)
        self.assertEqual(stats.self_time((0.0, 10.0), []), 10.0)
        self.assertEqual(stats.self_time((0.0, 10.0), [(-5.0, 15.0)]), 0.0)

    def test_trace_self_time_uses_parent_links(self):
        spans = [
            _span("1.1", None, "service.engine:handle", 0.0, 10.0),
            _span("1.2", "1.1", "core.linker:link_detailed", 1.0, 9.0),
            _span("1.3", "1.2", "nlp:extract", 1.0, 3.0),
        ]
        trace = Trace(spans, ["op"])
        self.assertAlmostEqual(trace.self_s(spans[0]), 2.0)
        self.assertAlmostEqual(trace.self_s(spans[1]), 6.0)
        self.assertEqual(trace.descendants(spans[0], "nlp:extract"), [spans[2]])


class GrowthTest(unittest.TestCase):
    def test_power_law_slope(self):
        words = [250, 500, 1000, 2000, 4000]
        self.assertAlmostEqual(stats.growth_exponent(words, [0.01 * w ** 1.5 for w in words]), 1.5)
        self.assertAlmostEqual(stats.growth_exponent(words, [3.0 * w for w in words]), 1.0)

    def test_noise_averages_out_and_degenerate_input_is_nan(self):
        words = [100, 100, 200, 200]
        self.assertAlmostEqual(stats.growth_exponent(words, [9.0, 11.0, 18.0, 22.0]), 1.0, places=2)
        self.assertTrue(math.isnan(stats.growth_exponent([100, 100], [1.0, 2.0])))
        self.assertTrue(math.isnan(stats.growth_exponent([100, 0], [1.0, 2.0])))

    def test_stage_metrics_fit_the_answers_own_timings(self):
        # Grouping grows with words squared, coherence linearly; degraded
        # answers and conversation turns stay out of the fit.
        answers = [_answer(("link", "w " * n), {"grouping": 1e-6 * n * n, "coherence": 1e-4 * n})
                   for n in (250, 500, 1000, 2000)]
        answers.append(_answer(("link", "w " * 4000), {"grouping": 9.0}, degraded=True))
        answers.append(_answer(("conversation", ("w " * 8000,)), {"grouping": 9.0}))
        metrics = stage_metrics(answers)
        self.assertAlmostEqual(metrics["core.canopies.growth_exp"], 2.0)
        self.assertAlmostEqual(metrics["core.coherence.growth_exp"], 1.0)
        self.assertEqual(metrics["core.tree_cover.growth_exp"], 0.0)  # no timings: no fit
        self.assertAlmostEqual(metrics["core.coherence.ms"], 0.1 * 750)


class SpreadTest(unittest.TestCase):
    def test_interquartile_range_over_median(self):
        summary = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        self.assertAlmostEqual(summary["median"], 5.5)
        self.assertAlmostEqual(summary["spread"], (8.25 - 2.75) / 5.5)

    def test_f1(self):
        self.assertAlmostEqual(stats.f1(5, 10, 10), 0.5)
        self.assertEqual(stats.f1(0, 10, 10), 0.0)
        self.assertEqual(stats.f1(0, 0, 0), 0.0)


def _answer(ref, timings, degraded=False):
    return Answer(Expect("a", ref, 0), "a", 200, {}, degraded, timings)


def _span(span_id, parent, name, start, end):
    return {
        "id": span_id, "parent": parent, "name": name, "rid": "op",
        "start": start, "end": end, "pid": 1, "tid": 1, "attrs": {},
    }


if __name__ == "__main__":
    unittest.main()
