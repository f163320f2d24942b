"""Golden ordered-MFI fixtures pinning the FPMax miner.

``maximal_frequent_itemsets`` promises more than the right *set* of
maximal frequent itemsets: MFIBlocks consumes the list in order, an
iteration budget cuts the search at a point defined by the serial
visit order, and the parallel path merges per-shard candidate lists.
``tests/test_fpgrowth.py`` checks the set against brute force; this
module pins the exact lists — order, supports, budget cut points and
per-shard candidates — so a rewrite of the miner that reorders or drops
a single candidate fails ``tests/test_golden_mfis.py``.

Fixtures live in ``tests/fixtures/golden_mfis/``, one JSON file per
seeded corpus (a RandomSet and an ItalySet analogue). Each file holds
the corpus itself (an item-string table plus transactions as indices
into it, so the test does not depend on the data generator), then:

* ``mfis`` — the ordered MFI list at every minsup in :data:`MINSUPS`;
* ``budgeted`` — iteration-budgeted mines at :data:`BUDGET_MINSUP`, one
  per budget in :data:`BUDGETS`, with the ``degraded`` flag;
* ``shards`` — ``_mine_shard`` output per shard at
  :data:`SHARD_MINSUP`, for every shard count in :data:`SHARD_COUNTS`.

Every itemset is ``[sorted item indices, support]``.

Regenerate after an *intentional* change of miner semantics with::

    PYTHONPATH=src python -m tools.golden_mfis --write

and check the committed files without writing with ``--check``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = REPO_ROOT / "tests" / "fixtures" / "golden_mfis"

#: name -> (generator function in repro.datagen.corpus, scale).
CORPORA: Dict[str, Tuple[str, float]] = {
    "random": ("build_random_set", 0.003),
    "italy": ("build_italy_set", 0.03),
}
MINSUPS = (5, 4, 3, 2)
BUDGET_MINSUP = 2
BUDGETS = (1, 7, 40, 200, 1000)
SHARD_MINSUP = 3
SHARD_COUNTS = (2, 3)

Encoded = List[Any]  # [sorted item indices, support]


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.json"


def corpus_table(name: str) -> Tuple[List[str], List[List[int]]]:
    """(item-string table, transactions as table indices) for a corpus."""
    from repro.datagen import corpus as corpus_module

    builder, scale = CORPORA[name]
    dataset, _persons = getattr(corpus_module, builder)(scale)
    bags = list(dataset.item_bags.values())
    table = sorted({str(item) for bag in bags for item in bag})
    index = {text: position for position, text in enumerate(table)}
    transactions = [sorted(index[str(item)] for item in bag) for bag in bags]
    return table, transactions


def decode_transactions(table: Sequence[str], transactions) -> List[FrozenSet]:
    """Table indices back to ``Item`` bags, as MFIBlocks hands them in."""
    from repro.records.itembag import Item

    items = [Item.parse(text) for text in table]
    return [frozenset(items[i] for i in row) for row in transactions]


def _encode_itemsets(itemsets, index: Dict[str, int]) -> List[Encoded]:
    return [
        [sorted(index[str(item)] for item in itemset.items), itemset.support]
        for itemset in itemsets
    ]


def compute_fixture(table: Sequence[str], transactions) -> Dict[str, Any]:
    """Mine the corpus every way the fixture pins."""
    from repro.mining.fpgrowth import (
        _mine_shard,
        _Vocabulary,
        maximal_frequent_itemsets,
    )
    from repro.resilience.budgets import BudgetMeter, StageBudget

    bags = decode_transactions(table, transactions)
    index = {text: position for position, text in enumerate(table)}
    mfis = {
        str(minsup): _encode_itemsets(
            maximal_frequent_itemsets(bags, minsup), index
        )
        for minsup in MINSUPS
    }
    budgeted: Dict[str, Any] = {}
    for budget in BUDGETS:
        meter = BudgetMeter(StageBudget(max_iterations=budget))
        found = maximal_frequent_itemsets(bags, BUDGET_MINSUP, budget=meter)
        budgeted[str(budget)] = {
            "degraded": meter.degraded,
            "mfis": _encode_itemsets(found, index),
        }
    materialized = [list(bag) for bag in bags]
    vocabulary = _Vocabulary(materialized, SHARD_MINSUP)
    n_items = len(vocabulary.value_of)
    encoded = [ids for ids in map(vocabulary.encode, materialized) if ids]
    shards: Dict[str, Any] = {}
    for n_shards in SHARD_COUNTS:
        per_shard = []
        for shard_index in range(n_shards):
            shard = [i for i in range(n_items) if i % n_shards == shard_index]
            found = _mine_shard((encoded, SHARD_MINSUP, shard))
            per_shard.append(
                [
                    [
                        sorted(
                            index[str(value)]
                            for value in vocabulary.decode(ids)
                        ),
                        support,
                    ]
                    for ids, support in found
                ]
            )
        shards[str(n_shards)] = per_shard
    return {
        "mfis": mfis,
        "budgeted": {"minsup": BUDGET_MINSUP, "runs": budgeted},
        "shards": {"minsup": SHARD_MINSUP, "counts": shards},
    }


def render(name: str, table, transactions, mined: Dict[str, Any]) -> str:
    """Deterministic JSON, one transaction or itemset per line."""
    builder, scale = CORPORA[name]

    def rows(values) -> str:
        return "[\n" + ",\n".join(
            json.dumps(value, separators=(",", ":")) for value in values
        ) + "\n]"

    parts = [
        '{"corpus": ' + json.dumps({"builder": builder, "scale": scale}),
        '"items": ' + rows(table),
        '"transactions": ' + rows(transactions),
        '"mfis": {' + ",\n".join(
            f'"{minsup}": ' + rows(found)
            for minsup, found in mined["mfis"].items()
        ) + "}",
        '"budgeted": {"minsup": '
        + str(mined["budgeted"]["minsup"])
        + ', "runs": {'
        + ",\n".join(
            f'"{budget}": {{"degraded": {json.dumps(run["degraded"])}, '
            f'"mfis": ' + rows(run["mfis"]) + "}"
            for budget, run in mined["budgeted"]["runs"].items()
        )
        + "}}",
        '"shards": {"minsup": '
        + str(mined["shards"]["minsup"])
        + ', "counts": {'
        + ",\n".join(
            f'"{count}": [' + ",\n".join(rows(shard) for shard in per_shard) + "]"
            for count, per_shard in mined["shards"]["counts"].items()
        )
        + "}}",
    ]
    return ",\n".join(parts) + "}\n"


def load(name: str) -> Dict[str, Any]:
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate fixtures")
    mode.add_argument(
        "--check", action="store_true", help="exit 1 if a fixture would change"
    )
    args = parser.parse_args(argv)
    stale = []
    for name in CORPORA:
        table, transactions = corpus_table(name)
        text = render(
            name, table, transactions, compute_fixture(table, transactions)
        )
        path = fixture_path(name)
        if args.write:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path.relative_to(REPO_ROOT)}")
        elif not path.is_file() or path.read_text(encoding="utf-8") != text:
            stale.append(str(path.relative_to(REPO_ROOT)))
    for path in stale:
        print(f"stale: {path}")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
