"""Itemset mining on inverse FP-trees: minimally infrequent itemsets under a
single threshold, and frequent itemsets under per-length thresholds."""

from .data import (
    FimiParseError,
    InvalidThresholdError,
    Itemset,
    SupportThreshold,
    TransactionDatabase,
    canonical_itemset,
    item_supports,
    parse_fimi,
    read_fimi,
    support,
    to_fimi,
)
from .tree import (
    IFPTree,
    build_tree,
    projected_tree,
    residual_tree,
    tree_support,
)
from .miners import MIIResult, MiningStats, apriori_min, ifp_min, mine_mii, unify
from .mlms import (
    MLMSResult,
    ThresholdVector,
    ifp_mlms,
    mine_mlms,
)
from .oracle import (
    OracleGuardError,
    SynthConfig,
    gen_synthetic,
    mii_oracle,
    mlms_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "FimiParseError",
    "InvalidThresholdError",
    "Itemset",
    "SupportThreshold",
    "TransactionDatabase",
    "canonical_itemset",
    "item_supports",
    "parse_fimi",
    "read_fimi",
    "support",
    "to_fimi",
    "IFPTree",
    "build_tree",
    "projected_tree",
    "residual_tree",
    "tree_support",
    "MIIResult",
    "MiningStats",
    "apriori_min",
    "ifp_min",
    "mine_mii",
    "unify",
    "MLMSResult",
    "ThresholdVector",
    "ifp_mlms",
    "mine_mlms",
    "OracleGuardError",
    "SynthConfig",
    "gen_synthetic",
    "mii_oracle",
    "mlms_oracle",
]
