"""Seeded input generators and the benchmark's workload definitions.

The generators belong to the benchmark, not to the package: a change to
``ifpmine`` (including its own ``gen_synthetic``) cannot change a workload's
input. Every draw comes from ``random.Random.random()``, whose sequence for a
given seed is stable across Python versions, so a ``(workload, seed)`` pair
names the same FIMI bytes on any machine.

Each item joins exactly ``round(p * transactions)`` transactions, chosen at
random without replacement, instead of each (item, transaction) pair being an
independent Bernoulli draw. So an item's support is fixed by the workload and
the seed decides only which items co-occur. With Bernoulli draws, whether a
single item falls just above or just below a threshold changed a whole row
of pair MIIs at once, and the mining work moved by 15-20% from seed to seed;
co-occurrence is averaged over hundreds of pairs and moves far less.

On the uniform datasets the items' frequencies are spread evenly around the
density rather than all equal to it, so a threshold at the density splits
the items into frequent and infrequent ones, as Bernoulli draws would, and
the miners' infrequent-item pruning does real work.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace


def _sample(n: int, k: int, rng: random.Random) -> list[int]:
    """k distinct indices out of range(n): a partial Fisher-Yates shuffle."""
    pool = list(range(n))
    for i in range(k):
        j = i + int(rng.random() * (n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def fixed_frequency_rows(ids: list[int], probs: list[float], transactions: int, rng: random.Random) -> list[list[int]]:
    """Item ``ids[r]`` joins ``round(probs[r] * transactions)`` random transactions."""
    rows: list[list[int]] = [[] for _ in range(transactions)]
    for item, p in zip(ids, probs):
        for t in _sample(transactions, round(p * transactions), rng):
            rows[t].append(item)
    return [sorted(r) for r in rows]


def uniform_rows(
    items: int, transactions: int, density: float, rng: random.Random, spread: float = 0.0
) -> list[list[int]]:
    """Item r has frequency ``density + spread * (r / (items - 1) - 1/2)``:
    the frequencies are evenly spaced over ``density`` ± ``spread / 2``."""
    probs = [density + spread * (r / max(items - 1, 1) - 0.5) for r in range(items)]
    return fixed_frequency_rows(list(range(items)), probs, transactions, rng)


def zipf_rows(items: int, transactions: int, top: float, exponent: float, rng: random.Random) -> list[list[int]]:
    """The item of frequency rank j has frequency ``top / (j + 1) ** exponent``.
    Ids are a random permutation of the ranks, so an item's id says nothing
    about its frequency."""
    ids = _sample(items, items, rng)
    return fixed_frequency_rows(ids, [top / (rank + 1) ** exponent for rank in range(items)], transactions, rng)


@dataclass(frozen=True)
class Dataset:
    """Generator parameters; ``density`` and ``spread`` apply to ``uniform``
    only, ``top`` and ``exponent`` to ``zipf`` only."""

    shape: str  # "uniform" | "zipf"
    items: int
    transactions: int
    density: float = 0.0
    spread: float = 0.0
    top: float = 0.0
    exponent: float = 0.0

    def rows(self, rng: random.Random) -> list[list[int]]:
        if self.shape == "uniform":
            return uniform_rows(self.items, self.transactions, self.density, rng, self.spread)
        if self.shape == "zipf":
            return zipf_rows(self.items, self.transactions, self.top, self.exponent, rng)
        raise ValueError(f"unknown dataset shape: {self.shape!r}")


@dataclass(frozen=True)
class Workload:
    """One dataset and the queries a pass runs on it, in this order: the MII
    sweep with ``ifp``, the same sweep with ``apriori``, then the MLMS
    threshold vectors. Every workload has both query kinds, because every
    end-to-end metric must be measured on every workload; the name says which
    kind dominates its time."""

    name: str
    dataset: Dataset
    mii: tuple[str, ...]
    mlms: tuple[str, ...]

    def shrunk(self, items: int, transactions: int) -> "Workload":
        """The same workload on a smaller input, for smoke tests."""
        return replace(self, dataset=replace(self.dataset, items=items, transactions=transactions))


# Seeds 0 .. RECORDED_SEEDS-1 have the sha256 of every rendered result
# recorded in expected.json.
RECORDED_SEEDS = 20

WORKLOADS = {
    w.name: w
    for w in (
        # BENCHMARK.json records why each workload was chosen.
        Workload(
            "mii-dense",
            Dataset("uniform", items=40, transactions=600, density=0.3, spread=0.1),
            mii=("30%", "10%"),
            mlms=("30%,10%",),
        ),
        Workload(
            "mii-skewed",
            Dataset("zipf", items=150, transactions=600, top=0.5, exponent=0.8),
            mii=("1%",),
            mlms=("2%,1%",),
        ),
        Workload(
            "mlms-dense",
            Dataset("uniform", items=40, transactions=200, density=0.3, spread=0.1),
            mii=("30%", "10%"),
            mlms=("25%,9%,3%",),
        ),
    )
}


@dataclass(frozen=True)
class Input:
    """A generated FIMI file's bytes and the facts recorded about it."""

    text: str
    transactions: int
    items: int
    mean_length: float
    sha256: str


def make_input(workload: Workload, seed: int) -> Input:
    """The workload's FIMI text for ``seed``. Each workload draws from its own
    stream, so two workloads never share an input by accident."""
    rows = workload.dataset.rows(random.Random(f"{workload.name}:{seed}"))
    text = "".join(" ".join(map(str, r)) + "\n" for r in rows)
    return Input(
        text=text,
        transactions=len(rows),
        items=len({i for r in rows for i in r}),
        mean_length=sum(map(len, rows)) / len(rows),
        sha256=hashlib.sha256(text.encode("ascii")).hexdigest(),
    )
