"""Tests of the benchmark's own pieces: span self-time arithmetic, the
host-speed normalization, the reference oracle against closed forms and brute force on tiny cases, the
verifier, and seeded input generation.

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import itertools
import json
import math
import signal
import time
import unittest

import oracle as O
import spans
import speed
import verify
import workloads as W


def brute_gaps(gens, limit=200):
    members = {0}
    for x in range(1, limit):
        if any(x - g in members for g in gens if g <= x):
            members.add(x)
    return sorted(set(range(1, limit)) - members)


def brute_sumset(gaps, n):
    return {sum(c) for c in itertools.combinations_with_replacement(gaps, n)}


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] with children a [1, 4] and b [3, 6] overlapping,
        # a grandchild c [2, 3] under a, and d [8, 12] sticking out of root
        names = ["root", "a", "b", "c", "d"]
        spans_ = [("root", 0, 10, -1), ("a", 1, 4, 0), ("c", 2, 3, 1),
                  ("b", 3, 6, 0), ("d", 8, 12, 0)]
        got = spans.self_times(names, [names.index(s[0]) for s in spans_],
                               [s[1] for s in spans_], [s[2] for s in spans_],
                               [s[3] for s in spans_])
        # root: 10 minus union([1, 6], [8, 10]) = 10 - 7
        self.assertEqual(got, {"root": (1, 3.0), "a": (1, 2.0), "c": (1, 1.0),
                               "b": (1, 3.0), "d": (1, 4.0)})

    def test_same_name_sums_and_order_does_not_matter(self):
        names = ["f"]
        start, end, parent = [5, 0, 1], [6, 10, 2], [1, -1, 1]
        got = spans.self_times(names, [0, 0, 0], start, end, parent)
        self.assertEqual(got, {"f": (3, 10.0)})

    def test_tracer_wraps_and_restores(self):
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import sgp.cli
        import sgp.core
        before = sgp.core.NumericalSemigroup.__init__
        tracer = spans.Tracer()
        tracer.install()
        try:
            H = sgp.core.parse_semigroup("gens:4,7")
            self.assertEqual(H.min_generators, (4, 7))
            self.assertEqual(H.min_generators, (4, 7))
        finally:
            tracer.uninstall()
        self.assertIs(sgp.core.NumericalSemigroup.__init__, before)
        summary = tracer.summary()
        self.assertEqual(summary["core.parse_semigroup"][0], 1)
        self.assertEqual(summary["core.from_generators"][0], 1)
        self.assertEqual(summary["core.min_generators"][0], 1)  # first access only
        self.assertGreaterEqual(summary["core.NumericalSemigroup"][0], 1)


class SpeedNormalization(unittest.TestCase):
    def test_factor_is_reference_over_mean_nearby_sample(self):
        ref = speed.REF_SAMPLE_S
        s = speed.Sampler()
        for at, took in ((0.0, 1e-3), (0.02, 1e-3), (1.0, 2.5e-4), (1.02, 7.5e-4)):
            s.at.append(at)
            s.took.append(took)
            s.steal.append(7.0)
        self.assertAlmostEqual(s.factor(0.0, 0.02), ref / 1e-3)
        self.assertAlmostEqual(s.normalize(2.0, 1.0, 1.01), 2.0 * ref / 5e-4)
        # no sample within the window: the nearest one on either side
        self.assertAlmostEqual(s.factor(0.5, 0.5), ref * 2 / 1.25e-3)
        with self.assertRaises(ValueError):
            speed.Sampler().factor(0.0, 1.0)

    def test_stolen_time_is_taken_out_per_cpu(self):
        ref, cpus = speed.REF_SAMPLE_S, speed._CPUS
        s = speed.Sampler()
        # 0.01 * cpus seconds stolen over the 0.1 s between the two samples
        for at, stolen in ((0.0, 3.0), (0.1, 3.0 + 0.01 * cpus)):
            s.at.append(at)
            s.took.append(ref)
            s.steal.append(stolen)
        self.assertAlmostEqual(s.factor(0.0, 0.0), 0.9)
        self.assertAlmostEqual(s.factor(0.1, 0.1), 0.9)

    def test_sampler_samples_and_counts_its_own_time(self):
        s = speed.Sampler()
        with s:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                pass
        self.assertGreaterEqual(len(s.took), 5)
        self.assertGreaterEqual(s.spent, sum(s.took))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class OracleClosedForms(unittest.TestCase):
    def test_node_counts_match_a007323(self):
        self.assertEqual(O.walk_counts(10)["nodes"], list(O.A007323[:11]))

    def test_two_generators(self):
        for a in range(2, 12):
            for b in range(a + 1, 25):
                if math.gcd(a, b) != 1:
                    continue
                S = O.Sg.from_generators([a, b])
                self.assertEqual(S.genus, (a - 1) * (b - 1) // 2)
                self.assertEqual(S.frobenius, a * b - a - b)
                self.assertEqual(S.gaps, brute_gaps([a, b], a * b + 1))
                self.assertEqual(S.min_generators(), [a, b])

    def test_hyperelliptic_sumset(self):
        for g in range(1, 9):
            S = O.Sg.from_generators([2, 2 * g + 1])
            for n in range(2, 6):
                self.assertEqual(O.sumset_count(S, n), n * (g - 1) + 1)
                self.assertEqual(O.sumset_count(S, n), len(brute_sumset(S.gaps, n)))

    def test_interval_sumset_against_brute_force(self):
        for gens in ([3, 5], [4, 6, 17], [5, 7, 9, 11], [6, 9, 20], [7, 8, 19]):
            S = O.Sg.from_generators(gens)
            for n in (2, 3):
                want = brute_sumset(S.gaps, n)
                got = {x for lo, hi in O.gap_sumset(S, n) for x in range(lo, hi + 1)}
                self.assertEqual(got, want, (gens, n))

    def test_buchweitz_example(self):
        S = O.Sg(list(range(1, 13)) + [19, 21, 24, 25])
        self.assertTrue(S.is_closed())
        self.assertEqual(O.sumset_count(S, 2), 46)
        self.assertTrue(O.not_weierstrass_sound(S))
        self.assertEqual(O.pair_sum_extras(S), [38, 40, 42, 43, 45, 48])

    def test_closure(self):
        self.assertFalse(O.Sg([1, 4]).is_closed())  # 2 + 2 = 4
        self.assertFalse(O.Sg([1, 2, 3, 5, 8]).is_closed())  # 4 + 4 = 8
        self.assertTrue(O.Sg([1, 2, 3, 5, 6, 9, 10, 13, 17]).is_closed())


class Verifier(unittest.TestCase):
    def test_wrong_answer_is_counted(self):
        good = '{"genus": 9, "frobenius": 17, "conductor": 18, ' \
               '"gaps": [1, 2, 3, 5, 6, 9, 10, 13, 17], "min_gens": [4, 7]}\n'
        ok = verify.check("info", ["info", "gens:4,7"], 0, good, {})
        self.assertEqual((ok.outputs, ok.failed), (1, 0))
        bad = verify.check("info", ["info", "gens:4,7"], 0, good.replace("17]", "16]"), {})
        self.assertEqual((bad.outputs, bad.wrong), (1, 1))
        crashed = verify.check("info", ["info", "gens:4,7"], "raised X", "", {})
        self.assertEqual((crashed.outputs, crashed.wrong), (1, 1))

    def test_unsound_verdict_fails_its_row_only(self):
        # genus 12, #G_2 = 33 = 3(g-1): the verdict is not certified
        gaps = [1, 2, 3, 4, 5, 6, 7, 8, 13, 14, 16, 17]
        S = O.Sg(gaps)
        row = {"genus": 12, "gaps": gaps, "min_gens": S.min_generators()}
        summary = {"summary": True, "predicate": "obstruction", "genus": [12, 12],
                   "scanned": O.A007323[12], "matched": 1}
        out = json.dumps(row) + "\n" + json.dumps(summary) + "\n"
        argv = ["scan", "--genus", "12..12", "--predicate", "obstruction"]
        tally = verify.check("scan", argv, 0, out, {})
        self.assertEqual((tally.outputs, tally.failed, tally.wrong, tally.unsound,
                          tally.verdicts), (2, 1, 0, 1, 1))


class Workloads(unittest.TestCase):
    def test_seeded(self):
        for w in W.WORKLOADS:
            self.assertEqual(W.make_requests(w, 3), W.make_requests(w, 3))
        self.assertNotEqual(W.make_requests("query_mix", 3),
                            W.make_requests("query_mix", 4))

    def test_query_mix_has_a_p90_with_ten_beyond(self):
        self.assertGreaterEqual(len(W.make_requests("query_mix", 1)), 110)


if __name__ == "__main__":
    unittest.main()
