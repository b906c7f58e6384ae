"""Golden explorer calibration: anchor inputs and search outcome.

The explorer's family anchors record only MSHR and write-cache events;
their occupancy utilizations (and every search decision built on them)
must stay bit-identical to the values pinned in
``tests/golden/explore_anchors_f0.05.json``.
"""

from __future__ import annotations

import pytest

from tests.golden.explore_anchors import ANCHOR_FIELDS, WORKLOADS, capture, load

GOLDEN = load()


def test_golden_covers_every_workload_and_family():
    assert GOLDEN["factor"] == 0.05
    assert sorted(GOLDEN["workloads"]) == sorted(WORKLOADS)
    for entry in GOLDEN["workloads"].values():
        assert sorted(entry["anchors"]) == ["1024", "2048", "4096"]
        for anchor in entry["anchors"].values():
            assert sorted(anchor) == sorted(ANCHOR_FIELDS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_anchors_and_search_match_golden(workload):
    assert capture(workload, GOLDEN["factor"]) == GOLDEN["workloads"][workload]
