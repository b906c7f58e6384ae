"""Golden SimStats ledger: committed digests pin the timing loop.

The full ledger (every simulation of the 12-experiment sweep at factor
0.05) is checked by ``python -m tests.golden.scalar_ledger --check``; this
tier-1 test re-simulates one entry per (experiment, workload family) on
the scalar loop, and the Figure 8 group through plain ``simulate_many``,
which runs it on the batched kernel.
"""

from __future__ import annotations

import pytest

from repro.core.kernel import batch_snapshot
from tests.golden.scalar_ledger import (
    check_entry,
    check_group,
    family,
    load_ledger,
    stratified,
    wide_groups,
)

LEDGER = load_ledger()
SUBSET = stratified(LEDGER)


def test_ledger_and_subset_cover_every_simulating_experiment():
    experiments = {
        "fig4", "table3_4", "fig5", "fig6", "fig7", "table5", "fig8",
        "hit_rates", "table6", "fig9",
    }
    assert {entry["experiment"] for entry in LEDGER["entries"]} == experiments
    assert {entry["experiment"] for entry in SUBSET} == experiments
    keys = [(e["experiment"], family(e["workload"])) for e in SUBSET]
    assert len(keys) == len(set(keys))
    assert {entry["fingerprint"] for entry in LEDGER["entries"]} == set(
        LEDGER["configs"]
    )


@pytest.mark.parametrize(
    "entry",
    SUBSET,
    ids=[f"{e['experiment']}-{e['workload']}" for e in SUBSET],
)
def test_stratified_entry_matches_ledger(entry):
    assert check_entry(LEDGER, entry) is None


def test_fig8_group_through_simulate_many_matches_ledger():
    groups = wide_groups(LEDGER)
    assert ("fig8", "espresso") in groups
    group = groups[("fig8", "espresso")]
    calls, configs = batch_snapshot()
    assert check_group(LEDGER, group) == []
    assert batch_snapshot() == (calls + 1, configs + len(group))
