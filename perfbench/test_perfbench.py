"""Tests of the benchmark's own arithmetic: span self time, the computed
counters and the output-check helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import checks  # noqa: E402
import counters  # noqa: E402
import spans  # noqa: E402


def test_self_time_of_a_hand_built_span_tree():
    # command [0, 10]
    #   train [1, 9]
    #     forward [2, 5]
    #       conv [2.5, 4]
    #     backward [5, 8]
    #   write [9, 9.5]
    tree = [
        ["command", 0.0, 10.0, -1],
        ["train", 1.0, 9.0, 0],
        ["forward", 2.0, 5.0, 1],
        ["conv", 2.5, 4.0, 2],
        ["backward", 5.0, 8.0, 1],
        ["write", 9.0, 9.5, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([1.5, 2.0, 1.5, 1.5, 3.0, 0.5])
    duration, self_time, calls = spans.totals(tree + [["conv", 6.0, 7.0, 4]])
    assert duration["conv"] == pytest.approx(2.5)
    assert self_time["backward"] == pytest.approx(2.0)
    assert calls["conv"] == 2


def test_self_time_counts_overlapping_children_once():
    tree = [["parent", 0.0, 4.0, -1], ["a", 1.0, 3.0, 0], ["b", 2.0, 3.5, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


def test_tracer_records_nesting():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    tracer.wrap(lambda: inner(), "outer")()
    assert tracer.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]


def test_useful_ratio_by_hand():
    one = counters.useful_ratios([(np.array([[0, 0]]), 11)])
    assert all(r == 1.0 for r in one.values())
    # Two horizontally adjacent patch centres, patch 11: block1 outputs are
    # 9x9 per patch and the union is 9x10; block2 7x7 -> 7x8; block3 5x5 ->
    # 5x6. HSI block4 shares only its 3x3 interior (union 3x4 = 12) and
    # recomputes its 16 border outputs per patch: (12 + 32) / 50.
    two = counters.useful_ratios([(np.array([[4, 4], [4, 5]]), 11)])
    for branch in ("hsi", "lidar"):
        assert two[f"{branch}.block1"] == pytest.approx(90 / 162)
        assert two[f"{branch}.block2"] == pytest.approx(56 / 98)
        assert two[f"{branch}.block3"] == pytest.approx(30 / 50)
    assert two["hsi.block4"] == pytest.approx(44 / 50)
    assert counters.useful_ratios([])["hsi.block1"] == 0.0


def test_useful_ratio_of_a_dense_scene_tends_to_one_over_window():
    rows, cols = np.mgrid[0:40, 0:40]
    dense = counters.useful_ratios([(np.stack([rows.ravel(), cols.ravel()], 1), 11)])
    assert dense["hsi.block1"] == pytest.approx(48 * 48 / (1600 * 81))


def test_conv_work_from_shapes():
    # 2 samples, 3 -> 4 channels, 3x3 kernel, 5x5 input, 3x3 output.
    flop, nbytes = counters.conv_work((2, 3, 5, 5), (4, 3, 3, 3), (2, 4, 3, 3), 4)
    taps, positions = 27, 9
    assert flop == 2 * 4 * taps * 2 * positions
    assert nbytes == 4 * (2 * 3 * 25 + 4 * 27 + 2 * 4 * 9 + taps * 2 * positions)


def test_expected_test_size_follows_the_library_split():
    from lsaf.data import split_indices

    rng = np.random.default_rng(3)
    labels = rng.integers(0, 6, size=(30, 30))
    labels[labels == 5] = 0
    for fraction in (0.1, 0.5, 0.9):
        _, test = split_indices(labels[labels != 0], fraction, seed=1)
        assert checks.expected_test_size(labels, fraction) == test.size


def test_stored_map_round_trips():
    pred = np.array([[0, 1, 15], [35, 2, 10]])
    assert checks.encode_map(pred) == ["01f", "z2a"]
    assert np.array_equal(checks.decode_stored_map(checks.encode_map(pred)), pred)


def test_metrics_csv_gives_correct_pixels_per_class(tmp_path):
    from lsaf.train import MetricsReport, write_metrics_csv

    confusion = np.array([[2, 1, 0], [0, 3, 0], [1, 1, 5]])
    path = str(tmp_path / "metrics.csv")
    write_metrics_csv(path, MetricsReport(confusion))
    metrics = checks.read_metrics(path)
    assert metrics["correct"] == [2, 3, 5]
    assert metrics["support"] == 13
    assert metrics["oa"] == pytest.approx(100 * 10 / 13, abs=1e-4)


def test_oa_may_differ_by_one_test_pixel():
    assert checks.check_oa(50.0, 50.5, test=200) == []
    assert checks.check_oa(50.0, 51.0, test=200)


def test_grow_mask_hits_the_split_size_exactly():
    import workloads

    rng = np.random.default_rng(0)
    labels = rng.integers(1, 8, size=(20, 20))
    eligible = np.ones_like(labels, dtype=bool)
    mask = workloads.grow_mask(labels, eligible, 0.9, np.random.default_rng(1), n_train=64)
    assert mask.sum() and np.all((mask == 0) | (mask == labels))
    total = int(np.sum(mask != 0))
    assert total - checks.expected_test_size(mask, 0.9) == 64
    mask = workloads.grow_mask(labels, eligible, 0.1, np.random.default_rng(1), n_test=50)
    assert checks.expected_test_size(mask, 0.1) == 50
