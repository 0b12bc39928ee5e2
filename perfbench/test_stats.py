"""Tests of the benchmark's metric helpers.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


def span(name, ts, dur, tid=1):
    return {"name": name, "ph": "X", "pid": 1, "tid": tid, "ts": ts,
            "dur": dur}


class TailPercentile(unittest.TestCase):
    def test_ten_samples_lie_beyond(self):
        samples = list(range(100, 0, -1))  # 1..100, unsorted
        value, pct, count = stats.tail_percentile(samples)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(count, 100)

    def test_deepest_tail_grows_with_samples(self):
        value, pct, _ = stats.tail_percentile(range(1, 1001))
        self.assertEqual(value, 990)
        self.assertAlmostEqual(pct, 99.0)

    def test_eleven_samples_keep_the_rule(self):
        value, pct, _ = stats.tail_percentile(range(11))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail_percentile([3, 1, 2]), (3, 100.0, 3))
        with self.assertRaises(ValueError):
            stats.tail_percentile([])


class WindowedTail(unittest.TestCase):
    def test_short_runs_take_the_median_window_maximum(self):
        # Windows of 10 samples: maxima 9, 500 and 9.
        samples = list(range(10)) + [500] * 10 + list(range(10)) + [7]
        self.assertEqual(stats.windowed_tail(samples, window=1000),
                         (9, 100.0, 10, 3))

    def test_fewer_than_two_windows_take_the_maximum(self):
        self.assertEqual(stats.windowed_tail(list(range(15)), window=1000),
                         (14, 100.0, 15, 1))

    def test_median_of_window_tails(self):
        # Three windows of 100; the middle one holds a burst.
        samples = (list(range(100)) + [1000 + i for i in range(100)]
                   + list(range(100)))
        value, pct, size, windows = stats.windowed_tail(samples, window=100)
        self.assertEqual((value, pct, size, windows), (89, 90.0, 100, 3))

    def test_windows_share_out_the_samples(self):
        _, _, size, windows = stats.windowed_tail(list(range(250)),
                                                  window=100)
        self.assertEqual((size, windows), (125, 2))


class OpenLoop(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        acc = stats.open_loop(due_ms=[0, 10, 20, 30],
                              sent_ms=[0, 12, 20, 35],
                              replied_ms=[5, 25, None, 36],
                              ok=[True, True, True, True], interval_ms=10)
        # Frame 1 was sent 2 ms late and answered 15 ms after it was due.
        self.assertEqual(acc["latencies_ms"], [5, 15, 6])
        self.assertEqual(acc["lateness_ms"], [0, 2, 0, 5])
        self.assertAlmostEqual(acc["mean_lateness_ms"], 1.75)
        # Late (frame 1) and unanswered (frame 2) frames miss.
        self.assertEqual(acc["on_time"], 2)
        self.assertEqual(acc["missed"], 2)

    def test_a_failed_frame_misses_however_fast(self):
        acc = stats.open_loop([0, 10], [0, 10], [1, 11], [True, False], 10)
        self.assertEqual(acc["on_time"], 1)
        self.assertEqual(acc["missed"], 1)

    def test_early_send_is_not_negative_lateness(self):
        acc = stats.open_loop([10], [9.5], [12], [True], 10)
        self.assertEqual(acc["lateness_ms"], [0.0])


class SelfTimes(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        events = [
            span("pb.solve", 0, 100),
            span("pb.nufft.adjoint", 10, 20),
            span("pb.nufft.forward", 12, 8),   # nested in the adjoint
            span("pb.nufft.adjoint", 40, 20),
            span("grid.adjoint/serial", 45, 10),  # program span: ignored
            span("pb.solve", 0, 50, tid=2),    # another thread
        ]
        t = stats.self_times(events)
        self.assertAlmostEqual(t["pb.solve"]["self_ms"], (60 + 50) / 1e3)
        self.assertAlmostEqual(t["pb.solve"]["total_ms"], 150 / 1e3)
        self.assertEqual(t["pb.solve"]["count"], 2)
        self.assertAlmostEqual(t["pb.nufft.adjoint"]["self_ms"], 32 / 1e3)
        self.assertAlmostEqual(t["pb.nufft.forward"]["self_ms"], 8 / 1e3)
        self.assertNotIn("grid.adjoint/serial", t)

    def test_siblings_do_not_nest(self):
        t = stats.self_times([span("pb.a", 0, 10), span("pb.b", 10, 10)])
        self.assertAlmostEqual(t["pb.a"]["self_ms"], 0.01)
        self.assertAlmostEqual(t["pb.b"]["self_ms"], 0.01)


class UnattributedShare(unittest.TestCase):
    def test_share_of_wall_no_layer_claims(self):
        self.assertAlmostEqual(
            stats.unattributed_share({"grid": 40.0, "fft": 50.0}, 100.0), 0.1)

    def test_over_attribution_is_negative(self):
        self.assertAlmostEqual(
            stats.unattributed_share({"grid": 60.0, "fft": 50.0}, 100.0), -0.1)

    def test_needs_a_wall_time(self):
        with self.assertRaises(ValueError):
            stats.unattributed_share({"grid": 1.0}, 0.0)


if __name__ == "__main__":
    unittest.main()
