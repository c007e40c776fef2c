"""The benchmark's own tests: python3 perfbench/test_perfbench.py"""

import hashlib
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import stats  # noqa: E402


class TailRank(unittest.TestCase):
    def beyond(self, n, k):
        return n - 1 - k

    def test_highest_percentile_with_ten_beyond(self):
        for n in (11, 12, 50, 100, 999, 1010, 1011, 5000):
            k = stats.tail_rank(n, 0.99)
            self.assertGreaterEqual(self.beyond(n, k), 10, n)
            # one rank higher is either past p99 or leaves fewer than ten beyond
            self.assertTrue(k + 1 > -(-99 * n // 100) - 1 or self.beyond(n, k + 1) < 10, n)

    def test_p99_itself_once_the_run_is_large_enough(self):
        self.assertEqual(stats.tail_rank(1010, 0.99), 999)
        self.assertEqual(stats.tail_rank(5000, 0.99), 4949)
        self.assertEqual(stats.tail_rank(100, 0.99), 89)

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail_rank(10))
        self.assertEqual(stats.tail([5.0, 1.0, 3.0]), 3.0)

    def test_tail_value(self):
        xs = [float(i) for i in range(1, 101)]  # 1..100
        self.assertEqual(stats.tail(xs), 90.0)  # index 89: ten samples beyond
        self.assertEqual(sum(1 for x in xs if x > stats.tail(xs)), 10)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(stats.self_time((0, 100), []), 100)

    def test_overlapping_children(self):
        # [10,40] and [30,60] overlap (50 covered), [90,120] sticks out (10 inside)
        self.assertEqual(stats.self_time((0, 100), [(10, 40), (30, 60), (90, 120)]), 40)

    def test_nested_and_duplicate_children(self):
        self.assertEqual(stats.self_time((0, 100), [(20, 80), (30, 40), (20, 80)]), 40)

    def test_children_outside(self):
        self.assertEqual(stats.self_time((50, 60), [(0, 10), (70, 80)]), 10)

    def test_union_length(self):
        self.assertEqual(stats.union_length([(0, 5), (5, 10), (20, 25)]), 15)


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class Inputs(unittest.TestCase):
    def digests(self, seed):
        warm, hot = gen.serve_hot(seed, 2000)
        return [digest(x) for x in (warm, hot)]

    def test_same_seed_same_bytes(self):
        self.assertEqual(self.digests(7), self.digests(7))

    def test_different_seed_different_inputs(self):
        a, b = self.digests(7), self.digests(8)
        for x, y in zip(a, b):
            self.assertNotEqual(x, y)


if __name__ == "__main__":
    unittest.main()
