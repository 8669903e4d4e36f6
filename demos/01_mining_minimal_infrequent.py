"""Mining minimally infrequent itemsets on a small market-basket database.

A minimally infrequent itemset sits exactly on the frequency border: it is
infrequent, but removing any one item makes it frequent. Run with:

    python3 demos/01_mining_minimal_infrequent.py
"""

from ifpmine import TransactionDatabase, apriori_min, build_tree, ifp_min

LABELS = {0: "A", 1: "B", 2: "C", 3: "D", 4: "E", 5: "F"}

db = TransactionDatabase.from_itemsets(
    [
        [5, 4],        # F E
        [0, 1, 2],     # A B C
        [0, 1],        # A B
        [0, 3],        # A D
        [0, 2, 3],     # A C D
        [1, 2, 3],     # B C D
        [4, 1],        # E B
        [4, 2],        # E C
        [4, 3],        # E D
    ],
)

print(f"{len(db)} transactions over items", ", ".join(LABELS.values()))
print()

tree = build_tree(db)
print("Inverse FP-tree (items ordered by ascending support):")
print(tree.dump(LABELS))
print()

result = ifp_min(db, sigma=2)
print(f"Minimally infrequent itemsets at sigma=2 ({len(result.miis)} found):")
print(result.to_text(LABELS))

# The level-wise variant reports the same set: its rejected candidates are
# exactly the minimally infrequent itemsets.
level_wise = apriori_min(db, sigma=2)
print("Level-wise variant agrees:", set(level_wise.miis) == set(result.miis))

# {A, E} has support 0: A and E are both frequent but never co-occur.
# {B, F} is NOT reported: its subset {F} is already infrequent on its own.
print("support of (A, E):", result.supports[(0, 4)])
