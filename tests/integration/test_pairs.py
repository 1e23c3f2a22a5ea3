"""``scripts/pairs.py`` reads only what ``run.py`` prints and reduces the
runs to medians, quartiles, paired differences, a sign count and a
bimodality flag per side; these pin that reduction without running the
benchmark."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def pairs():
    path = REPO / "scripts" / "pairs.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(host_ms, slices, outside=0.5, correct=True):
    """The last two lines of one ``run.py --workload`` run, with the
    metrics and reps the script reads (the rest of each line elided)."""
    raw = {"workload": "w", "seed": 7,
           "reps": [{"outside": [outside, outside],
                     "slices": [[s, s, 1] for s in rep]} for rep in slices]}
    result = {"correct": correct, "attempted": 360, "failed": 0,
              "metrics": {"host_ms_per_op": {"value": host_ms, "unit": "ms"}}}
    return ("machine: nproc=2\n  host_ms_per_op  ...\nraw "
            + json.dumps(raw) + "\n" + json.dumps(result) + "\n")


def test_a_run_is_read_off_its_last_two_lines(pairs):
    # Two reps: the least per slice is 1.0, 0.5 and 1.0, the least
    # outside the slices 0.5, so the first slice is 1.0 of 3.0.
    run = pairs.parse_run(run_output(8.5, [[1.0, 0.5, 1.5], [3.0, 0.6, 1.0]]))
    assert run["values"]["host_ms_per_op"] == 8.5
    assert run["values"][pairs.FIRST_SLICE] == pytest.approx(1.0 / 3.0)
    assert run["correct"] and run["failed"] == 0
    with pytest.raises(ValueError):
        pairs.parse_run("Traceback (most recent call last):\n  ...\n")


# nocdn_dense_100's setup_s in ms, one set-up per process (--reps 1),
# at the two sides of a change that did not touch set-up: about 15 or
# 25 ms per process on both.
DENSE_SETUP_MS = {
    "parent": [26.2, 24.5, 14.1, 23.0, 24.4, 14.3, 15.2, 15.3, 14.3, 23.9,
               23.2, 15.4, 15.7, 24.0, 15.1, 25.4, 25.3, 15.2, 16.6, 14.6],
    "change": [23.5, 19.6, 25.4, 15.4, 25.4, 14.9, 26.1, 19.3, 24.2, 24.8,
               24.5, 15.2, 15.1, 26.0, 26.1, 15.3, 25.2, 24.9, 23.4, 15.6],
}


def test_two_clusters_are_flagged_and_noise_is_not(pairs):
    low, high = pairs.bimodal(DENSE_SETUP_MS["parent"])
    assert low == pytest.approx(15.2) and high == pytest.approx(24.4)
    # Two processes between the modes do not hide them.
    low, high = pairs.bimodal(DENSE_SETUP_MS["change"])
    assert low == pytest.approx(15.35) and high == pytest.approx(25.05)
    assert pairs.bimodal([15.0 + 0.3 * (i % 5) for i in range(10)]) is None
    # One slow outlier is not a second mode.
    assert pairs.bimodal([15.1, 15.3, 14.9, 15.0, 15.2,
                          15.4, 15.1, 15.0, 15.2, 31.0]) is None
    assert pairs.bimodal([15.0, 25.0]) is None  # too few to tell


def test_pairs_are_signed_by_the_metric_direction(pairs):
    rev = [10.0, 11.0, 10.5, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3]
    tree = [value * 0.7 for value in rev]
    tree[3] = 10.9                  # one pair the revision wins
    row = pairs.compare(rev, tree, "lower")
    assert (row["tree_wins"], row["rev_wins"]) == (9, 1)
    assert row["clear_gain"]
    assert row["diffs"][0] == pytest.approx(-3.0)
    assert row["change"] == pytest.approx(
        (sorted(tree)[4] + sorted(tree)[5] - sorted(rev)[4]
         - sorted(rev)[5]) / (sorted(rev)[4] + sorted(rev)[5]))
    flipped = pairs.compare(rev, tree, "higher")
    assert (flipped["tree_wins"], flipped["rev_wins"]) == (1, 9)
    assert not flipped["clear_gain"]
    # Eight wins in ten is not a claimable gain.
    tree[5] = 10.2
    assert not pairs.compare(rev, tree, "lower")["clear_gain"]


def test_the_report_lists_every_run_and_metric(pairs):
    runs = {side: [pairs.parse_run(run_output(ms, [[1.0, 1.0]]))
                   for ms in values]
            for side, values in (("rev", [9.0, 10.0]), ("tree", [7.0, 6.0]))}
    text = pairs.report("HEAD", "nocdn_fleet_10k", 7, runs)
    assert "| host_ms_per_op | 9.5 (" in text
    assert "| 2/2 | 0/2 |" in text
    assert text.count("| HEAD | True |") == 2
    assert text.count("| tree | True |") == 2
