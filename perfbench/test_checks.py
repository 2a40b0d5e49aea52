#!/usr/bin/env python3
"""Feeds every output check in checks.py a wrong answer and expects it to
fail, and a right answer and expects it to pass.

    python3 perfbench/test_checks.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402

PLANTED = [[0.06, 0.55, 0.05, 0.02, 0.32],
           [0.55, 0.30, 0.03, 0.02, 0.10],
           [0.05, 0.03, 0.52, 0.37, 0.03],
           [0.02, 0.02, 0.37, 0.26, 0.33],
           [0.32, 0.10, 0.03, 0.33, 0.22]]
K = 5


def permuted(h, perm):
    return [[h[perm[i]][perm[j]] for j in range(K)] for i in range(K)]


class HCheckTest(unittest.TestCase):
    # A DCEr estimate of the planted matrix as fgr_cli prints it.
    ESTIMATE = [[0.0622, 0.5373, 0.0507, 0.0281, 0.3217],
                [0.5373, 0.3069, 0.0303, 0.0212, 0.1043],
                [0.0507, 0.0303, 0.5290, 0.3627, 0.0273],
                [0.0281, 0.0212, 0.3627, 0.2612, 0.3268],
                [0.3217, 0.1043, 0.0273, 0.3268, 0.2199]]

    def test_right_answer_passes(self):
        checks.check_h(self.ESTIMATE, PLANTED, K)
        checks.check_h(PLANTED, PLANTED, K)

    def test_uniform_fails(self):
        with self.assertRaises(CheckError):
            checks.check_h([[0.2] * K for _ in range(K)], PLANTED, K)

    def test_every_class_permutation_fails(self):
        import itertools
        for perm in list(itertools.permutations(range(K)))[1:]:
            moved = permuted(PLANTED, perm)
            with self.assertRaises(CheckError, msg=str(perm)):
                checks.check_h(moved, PLANTED, K)

    def test_asymmetric_fails(self):
        bad = [row[:] for row in self.ESTIMATE]
        bad[0][1] += 0.01
        bad[0][2] -= 0.01
        with self.assertRaises(CheckError):
            checks.check_h(bad, PLANTED, K)

    def test_rows_not_summing_to_one_fail(self):
        with self.assertRaises(CheckError):
            checks.check_h([[x * 1.1 for x in row] for row in self.ESTIMATE], PLANTED, K)

    def test_wrong_shape_fails(self):
        with self.assertRaises(CheckError):
            checks.check_h([row[:4] for row in self.ESTIMATE[:4]], PLANTED, K)

    def test_printed_cells_compare_exactly(self):
        rows = ["[" + ", ".join("%.4f" % x for x in row) + "]" for row in self.ESTIMATE]
        text = ("graph: n=5\nestimated compatibility matrix (0.1s + 0.1s):\n["
                + "\n ".join(rows) + "]\n")
        cells = checks.estimate_cells(text, K)
        self.assertEqual([[float(c) for c in row] for row in cells], self.ESTIMATE)
        reference = [row[:] for row in self.ESTIMATE]
        reference[0][0] += 0.00004
        checks.check_equal(cells, checks.format_h(reference), "H")
        reference[0][0] += 0.0001
        with self.assertRaises(CheckError):
            checks.check_equal(cells, checks.format_h(reference), "H")

    def test_served_h_must_match_bit_for_bit(self):
        served = [row[:] for row in self.ESTIMATE]
        checks.check_equal(served, self.ESTIMATE, "served H")
        served[2][2] = served[2][2] + 2 ** -52 * served[2][2]
        with self.assertRaises(CheckError):
            checks.check_equal(served, self.ESTIMATE, "served H")


class LabelCheckTest(unittest.TestCase):
    N = 10
    SEEDS = {0: 1, 4: 3, 9: 0}

    def good(self):
        return [1, 2, 2, 0, 3, 4, 4, 1, 0, 0]

    def test_right_answer_passes(self):
        checks.check_labels(self.good(), self.N, K, self.SEEDS)

    def test_dropped_label_fails(self):
        with self.assertRaises(CheckError):
            checks.check_labels(self.good()[:-1], self.N, K, self.SEEDS)

    def test_unlabeled_node_fails(self):
        labels = self.good()
        labels[3] = -1
        with self.assertRaises(CheckError):
            checks.check_labels(labels, self.N, K, self.SEEDS)

    def test_out_of_range_label_fails(self):
        labels = self.good()
        labels[5] = K
        with self.assertRaises(CheckError):
            checks.check_labels(labels, self.N, K, self.SEEDS)

    def test_flipped_seed_fails(self):
        labels = self.good()
        labels[4] = 2
        with self.assertRaises(CheckError):
            checks.check_labels(labels, self.N, K, self.SEEDS)

    def test_label_file_parse(self):
        data = b"# fgr labels: 4 nodes, 5 classes\n0 1\n1 4\n2 0\n3 2\n"
        self.assertEqual(checks.read_labels(data, 4), [1, 4, 0, 2])
        self.assertEqual(checks.read_labels(data.replace(b"3 2\n", b""), 4), [1, 4, 0, -1])
        with self.assertRaises(CheckError):
            checks.read_labels(data + b"7 1\n", 4)

    def test_served_labels_must_equal_the_offline_file(self):
        labels = self.good()
        line = (b'{"v":2,"ok":true,"op":"label","h":[[1]],"labels":'
                + checks.labels_array_bytes(labels) + b"}")
        head, raw = checks.split_label_response(line)
        self.assertEqual(head["op"], "label")
        checks.check_equal(raw, checks.labels_array_bytes(labels), "served labels")
        wrong = labels[:]
        wrong[7] = 3
        with self.assertRaises(CheckError):
            checks.check_equal(raw, checks.labels_array_bytes(wrong), "served labels")
        with self.assertRaises(CheckError):
            checks.check_equal(raw, checks.labels_array_bytes(labels[:-1]), "served labels")


class AccuracyCheckTest(unittest.TestCase):
    def test_accuracy_and_chance(self):
        truth = [0, 0, 0, 1, 1, 2]
        seeds = {0: 0}
        self.assertAlmostEqual(checks.chance(truth, seeds), 2 / 5)
        self.assertAlmostEqual(checks.accuracy([0, 0, 1, 1, 1, 2], truth, seeds), 4 / 5)

    def test_right_answer_passes(self):
        checks.check_accuracy(0.62, 0.20, 0.63)

    def test_chance_level_fails(self):
        with self.assertRaises(CheckError):
            checks.check_accuracy(0.27, 0.20, 0.63)

    def test_far_below_planted_fails(self):
        with self.assertRaises(CheckError):
            checks.check_accuracy(0.50, 0.20, 0.63)


class CountCheckTest(unittest.TestCase):
    def test_matching_counts_pass(self):
        checks.check_request_counts({"estimate": 120, "label": 7, "metrics": 1},
                                    {"estimate": 120, "label": 7})
        checks.check_summary_computed(1)

    def test_miscounted_request_fails(self):
        with self.assertRaises(CheckError):
            checks.check_request_counts({"estimate": 121, "label": 7},
                                        {"estimate": 120, "label": 7})
        with self.assertRaises(CheckError):
            checks.check_request_counts({"estimate": 120}, {"estimate": 120, "label": 7})

    def test_recomputed_summary_fails(self):
        for computed in (0, 2):
            with self.assertRaises(CheckError):
                checks.check_summary_computed(computed)

    def test_nnz(self):
        checks.check_nnz(2500000, 1250000)
        with self.assertRaises(CheckError):
            checks.check_nnz(2499998, 1250000)

    def test_rss(self):
        checks.check_rss_lower(48.7, 70.5)
        with self.assertRaises(CheckError):
            checks.check_rss_lower(70.5, 70.5)


if __name__ == "__main__":
    unittest.main()
