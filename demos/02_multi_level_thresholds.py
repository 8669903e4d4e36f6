"""Frequent itemset mining with a separate minimum support per length.

One global threshold either floods the output with long itemsets (too low)
or starves it (too high). Per-length thresholds sidestep that: sigma_k
applies to k-itemsets. Nothing requires the thresholds to decrease, and
without monotone thresholds there is no downward closure to prune with.

    python3 demos/02_multi_level_thresholds.py
"""

from collections import defaultdict

from ifpmine import ThresholdVector, TransactionDatabase, mine_mlms

LABELS = {0: "A", 1: "B", 2: "C", 3: "D", 4: "T", 5: "W"}

db = TransactionDatabase.from_itemsets(
    [
        [0, 2, 4, 5],      # A C T W
        [2, 3, 5],         # C D W
        [0, 2, 4, 5],      # A C T W
        [0, 3, 2, 5],      # A D C W
        [0, 4, 2, 5, 3],   # A T C W D
        [2, 3, 4, 1],      # C D T B
    ],
)

tv = ThresholdVector((4, 4, 3, 2, 1))
result = mine_mlms(db, tv)

print(f"thresholds per length: {tv.sigmas}  (sigma_low = {min(tv.sigmas)})")
by_length = defaultdict(list)
for s, supp in result.entries():
    by_length[len(s)].append((s, supp))
for k in sorted(by_length):
    rendered = ", ".join(
        "{" + " ".join(LABELS[i] for i in s) + f"}}:{supp}" for s, supp in by_length[k]
    )
    print(f"  k={k} (sigma={tv.sigma(k)}): {rendered}")
print()

# A non-monotone vector: pairs need support 5, triples only 1. The triple
# below is reported even though every one of its pairs fails its threshold.
tiny = TransactionDatabase.from_itemsets([[0, 1, 2]])
spiky = ThresholdVector((1, 5, 1))
print("non-monotone thresholds", spiky.sigmas, "on a single transaction {0 1 2}:")
print(mine_mlms(tiny, spiky).to_text())
