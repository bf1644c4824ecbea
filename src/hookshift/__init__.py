"""hookshift: exact arithmetic for partition hook lengths and the
shifted-parts g-polynomial, with exhaustive identity verification."""

from .partitions import (
    Partition,
    PartitionError,
    corner_sets,
    enumerate_partitions,
    hook_length,
    hook_lengths,
    hook_product,
    parse_partition,
    syt_count,
)
from .identities import Fault, IdentityId, check_identity, g_poly
from .schur import schur_lhs, schur_rhs
from .harness import SweepConfig, render_report, run_sweep

__version__ = "0.1.0"
