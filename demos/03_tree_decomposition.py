"""The projected/residual decomposition that drives both recursive miners.

Splitting on the least frequent item x partitions the mining problem:

  residual tree  = the database with x deleted   (itemsets without x)
  projected tree = transactions containing x, x removed (itemsets with x)

Two support identities make the recursion sound, shown numerically below.

    python3 demos/03_tree_decomposition.py
"""

from ifpmine import (
    TransactionDatabase,
    build_tree,
    projected_tree,
    residual_tree,
    tree_support,
)

LABELS = {0: "A", 1: "B", 2: "C", 3: "D", 4: "E"}

db = TransactionDatabase.from_itemsets(
    [[4], [0, 1, 2], [0, 1], [0, 3], [0, 2, 3], [1, 2, 3], [4, 1], [4, 2], [4, 3]],
)

tree = build_tree(db)
x = tree.order[0]
print(f"least frequent item: {LABELS[x]} (support {tree.supports[x]})")
print()
print("full tree:")
print(tree.dump(LABELS))

resid = residual_tree(tree)
print(f"\nresidual tree of {LABELS[x]} ({resid.num_transactions} transactions):")
print(resid.dump(LABELS))

proj = projected_tree(tree)
print(f"\nprojected tree of {LABELS[x]} ({proj.num_transactions} transactions):")
print(proj.dump(LABELS))

print("\nsupport identities:")
for s in [(1,), (2, 3), (1, 2)]:
    names = "{" + " ".join(LABELS[i] for i in s) + "}"
    print(
        f"  supp({names}) = {tree_support(tree, s)}"
        f"  = supp in residual = {tree_support(resid, s)}"
    )
for s in [(1,), (2,), (2, 3)]:
    with_x = tuple(sorted((x, *s)))
    names = "{" + " ".join(LABELS[i] for i in s) + "}"
    names_x = "{" + " ".join(LABELS[i] for i in with_x) + "}"
    print(
        f"  supp({names_x}) = {tree_support(tree, with_x)}"
        f"  = supp of {names} in projected = {tree_support(proj, s)}"
    )
