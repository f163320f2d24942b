"""Golden ordered-MFI regression suite for the FPMax miner.

``tests/fixtures/golden_mfis/`` pins the exact lists the miner returned
when the fixtures were last regenerated (see ``tools/golden_mfis.py``):
for a RandomSet and an ItalySet analogue, the ordered MFI list at every
minsup, iteration-budgeted mines (the cut point), and ``_mine_shard``
output per shard. Lists are compared element by element, order and
supports included, so a miner rewrite that finds the right *set* in a
different order still fails here.

Intentional changes regenerate with::

    PYTHONPATH=src python -m tools.golden_mfis --write
"""

from __future__ import annotations

import pytest

from tools.golden_mfis import (
    BUDGETS,
    CORPORA,
    MINSUPS,
    SHARD_COUNTS,
    compute_fixture,
    fixture_path,
    load,
)


@pytest.fixture(scope="module", params=sorted(CORPORA))
def golden(request):
    """(committed fixture, the same corpus mined by the current code)."""
    assert fixture_path(request.param).is_file(), (
        "run tools/golden_mfis.py --write"
    )
    fixture = load(request.param)
    return fixture, compute_fixture(fixture["items"], fixture["transactions"])


def _assert_same_list(expected, actual, what):
    for position, (want, got) in enumerate(zip(expected, actual)):
        assert want == got, f"{what}: first difference at position {position}"
    assert len(expected) == len(actual), f"{what}: length differs"


def test_budgets_cut_the_search(golden):
    fixture, _ = golden
    runs = fixture["budgeted"]["runs"]
    # The pinned budgets must actually bite, or they pin nothing.
    assert all(run["degraded"] for run in runs.values())
    sizes = [len(runs[str(budget)]["mfis"]) for budget in BUDGETS]
    assert sizes == sorted(sizes) and sizes[-1] > sizes[0]


@pytest.mark.parametrize("minsup", MINSUPS)
def test_mfi_list_matches_exactly(golden, minsup):
    fixture, mined = golden
    key = str(minsup)
    _assert_same_list(fixture["mfis"][key], mined["mfis"][key], f"minsup={key}")


@pytest.mark.parametrize("budget", BUDGETS)
def test_budget_cut_point_matches_exactly(golden, budget):
    fixture, mined = golden
    expected = fixture["budgeted"]["runs"][str(budget)]
    got = mined["budgeted"]["runs"][str(budget)]
    assert got["degraded"] is expected["degraded"]
    _assert_same_list(expected["mfis"], got["mfis"], f"budget={budget}")


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_shard_candidates_match_exactly(golden, n_shards):
    fixture, mined = golden
    expected = fixture["shards"]["counts"][str(n_shards)]
    got = mined["shards"]["counts"][str(n_shards)]
    assert len(got) == len(expected) == n_shards
    for index, (want, found) in enumerate(zip(expected, got)):
        _assert_same_list(want, found, f"shard {index}/{n_shards}")
