"""hookshift: exact arithmetic for partition hook lengths and the
shifted-parts g-polynomial, with exhaustive identity verification."""

from .partitions import (
    Cell,
    CornerData,
    Partition,
    PartitionError,
    corner_removals,
    corner_sets,
    enumerate_partitions,
    hook_length,
    hook_lengths,
    hook_product,
    parse_partition,
    single_box_additions,
    syt_count,
    syt_count_bruteforce,
)
from .polynomials import (
    ExactPolynomial,
    ONE,
    X,
    ZERO,
    difference,
    linear,
    product_of_linear_factors,
    rising_binomial,
)
from .identities import (
    Fault,
    IdentityId,
    PER_CORNER,
    VerificationOutcome,
    Workspace,
    check_identity,
    corner_quotient_factors,
    g_poly,
    g_quotient_factors,
    shifted_part_constants,
    thm_4_2_numerator,
)
from .schur import (
    MonomialExpansion,
    SchurExpansion,
    check_schur_recurrences,
    check_theorem_1_2,
    elementary_as_schur,
    kostka,
    pieri_p1,
    schur_lhs,
    schur_rhs,
    to_monomial,
)
from .harness import SweepConfig, SweepReport, render_report, run_sweep

__version__ = "0.1.0"
