"""Output checks for the fgr benchmark, made apart from the program.

Every check raises CheckError with a reason when the answer is wrong and
returns None when it is right. test_checks.py feeds each one a wrong answer.
"""

import json
import math
import re


class CheckError(Exception):
    pass


# Tolerances. The estimated H is printed by `fgr_cli estimate` with four
# decimals, so symmetry and row sums are checked to the rounding of that
# print. The Frobenius bound sits between what DCEr recovers from the
# benchmark's graphs and the distance of a class-permuted (0.55 or more)
# or uniform (0.90) H.
H_PRINT_TOL = 6e-4
H_FROBENIUS_BOUND = 0.35
# Accuracy on non-seed nodes must beat always guessing the largest class by
# this much, and may trail LinBP run with the planted H by at most this much.
ACCURACY_OVER_CHANCE = 0.15
ACCURACY_UNDER_PLANTED = 0.05


def frobenius(a, b):
    return math.sqrt(sum((x - y) ** 2 for ra, rb in zip(a, b) for x, y in zip(ra, rb)))


def check_h(h, planted, k, tol=H_PRINT_TOL, bound=H_FROBENIUS_BOUND):
    """Estimated H: k×k, symmetric, rows summing to 1, near the planted H."""
    if len(h) != k or any(len(row) != k for row in h):
        raise CheckError("H is not %dx%d" % (k, k))
    for i in range(k):
        for j in range(k):
            if not math.isfinite(h[i][j]):
                raise CheckError("H[%d][%d] = %r is not finite" % (i, j, h[i][j]))
            if abs(h[i][j] - h[j][i]) > tol:
                raise CheckError("H is not symmetric at (%d, %d)" % (i, j))
        if abs(sum(h[i]) - 1.0) > k * tol:
            raise CheckError("row %d of H sums to %r" % (i, sum(h[i])))
    distance = frobenius(h, planted)
    if distance > bound:
        raise CheckError("H is %.4f from the planted H (bound %.2f)" % (distance, bound))


def check_labels(labels, n, k, seeds):
    """Exactly n labels in [0, k), and every seed keeps its label."""
    if len(labels) != n:
        raise CheckError("%d labels for %d nodes" % (len(labels), n))
    for node, label in enumerate(labels):
        if not 0 <= label < k:
            raise CheckError("node %d has label %r outside [0, %d)" % (node, label, k))
    for node, label in seeds.items():
        if labels[node] != label:
            raise CheckError("seed %d lost its label %d (got %d)" % (node, label, labels[node]))


def accuracy(labels, truth, seeds):
    """Share of non-seed nodes whose label equals the ground truth."""
    right = total = 0
    for node, label in enumerate(labels):
        if node in seeds:
            continue
        total += 1
        right += label == truth[node]
    return right / total if total else 0.0


def chance(truth, seeds):
    """Accuracy of always guessing the most frequent non-seed class."""
    counts = {}
    for node, label in enumerate(truth):
        if node not in seeds:
            counts[label] = counts.get(label, 0) + 1
    total = sum(counts.values())
    return max(counts.values()) / total if total else 0.0


def check_accuracy(acc, chance_level, planted_acc,
                   over_chance=ACCURACY_OVER_CHANCE,
                   under_planted=ACCURACY_UNDER_PLANTED):
    if acc < chance_level + over_chance:
        raise CheckError("accuracy %.4f is not %.2f above chance %.4f"
                         % (acc, over_chance, chance_level))
    if acc < planted_acc - under_planted:
        raise CheckError("accuracy %.4f trails LinBP with the planted H (%.4f) by more than %.2f"
                         % (acc, planted_acc, under_planted))


def check_equal(got, want, what):
    if got != want:
        raise CheckError("%s differs from the reference" % what)


def check_nnz(nnz, distinct_edges):
    if nnz != 2 * distinct_edges:
        raise CheckError("loaded nnz %d is not twice the %d edges written" % (nnz, distinct_edges))


def check_rss_lower(streamed_mb, in_core_mb):
    if not streamed_mb < in_core_mb:
        raise CheckError("streamed peak RSS %.1f MB is not below in-core %.1f MB"
                         % (streamed_mb, in_core_mb))


def check_request_counts(daemon, client):
    """The daemon's per-op request counts equal the client's own."""
    for op, count in client.items():
        if daemon.get(op) != count:
            raise CheckError("daemon counted %r %s requests, client sent %d"
                             % (daemon.get(op), op, count))


def check_summary_computed(computed):
    if computed != 1:
        raise CheckError("daemon computed %r summaries, expected 1" % computed)


# --- parsers for the program's outputs -------------------------------------

_ROW = re.compile(r"\[+([-0-9., ]+)\]+")


def estimate_cells(text, k):
    """The H of a `fgr_cli estimate` report (k rows of "[a, b, ...]") as the
    printed strings, for exact comparison with format_h."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("estimated compatibility matrix"):
            rows = []
            for row_line in lines[i + 1:i + 1 + k]:
                match = _ROW.search(row_line)
                if not match:
                    raise CheckError("cannot parse H row %r" % row_line)
                rows.append([c.strip() for c in match.group(1).split(",")])
            return rows
    raise CheckError("no H in estimate output")


def format_h(h):
    """The reference H as `fgr_cli estimate` prints it (four decimals)."""
    return [["%.4f" % x for x in row] for row in h]


def read_labels(path_or_bytes, n):
    """A label file ("# fgr labels" header, "node label" lines) as a list;
    unlabeled nodes read as -1."""
    data = path_or_bytes
    if isinstance(data, str):
        with open(data, "rb") as f:
            data = f.read()
    labels = [-1] * n
    for line in data.split(b"\n"):
        if not line or line.startswith(b"#"):
            continue
        node, label = line.split()
        node = int(node)
        if not 0 <= node < n:
            raise CheckError("label file names node %d outside [0, %d)" % (node, n))
        labels[node] = int(label)
    return labels


def read_seeds(path, n):
    labels = read_labels(path, n)
    return {node: label for node, label in enumerate(labels) if label >= 0}


def read_matrix(path):
    with open(path) as f:
        return [[float(x) for x in line.split()] for line in f if line.strip()]


def split_label_response(line):
    """A served label response line -> (head dict without labels, raw bytes
    of the labels array)."""
    marker = b',"labels":'
    at = line.rfind(marker)
    if at < 0 or not line.endswith(b"}"):
        raise CheckError("label response has no labels array")
    head = json.loads(line[:at] + b"}")
    return head, line[at + len(marker):-1]


def labels_array_bytes(labels):
    return b"[" + b",".join(str(x).encode() for x in labels) + b"]"
