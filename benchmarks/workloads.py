"""The benchmark's workloads and the sweeps they run.

This module does not import hookshift: the parent process uses it to
derive expected counts, and only the child processes load the library.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_IDS = (
    "THM_1_1",
    "REC_1_2",
    "REC_1_3",
    "REMARK_DN",
    "CORNER_RATIO_2_2",
    "QUOTIENT_4_2",
    "THM_4_1",
    "EQ_4_6",
    "THM_4_2",
    "COR_4_4",
)
# identities that produce one check per corner row instead of one per partition
PER_CORNER = frozenset({"CORNER_RATIO_2_2", "QUOTIENT_4_2"})


@dataclass(frozen=True)
class Sweep:
    """One `hookshift sweep` invocation, with every bound spelled out so a
    change of the CLI defaults cannot change the workload."""

    identities: tuple[str, ...]
    max_n: int
    max_n_schur: int
    max_n_oracle: int
    jobs: int = 1

    def argv(self, output: str, jobs: int | None = None) -> list[str]:
        return [
            "sweep",
            "--identities", ",".join(self.identities),
            "--max-n", str(self.max_n),
            "--max-n-schur", str(self.max_n_schur),
            "--max-n-oracle", str(self.max_n_oracle),
            "--jobs", str(self.jobs if jobs is None else jobs),
            "--format", "json",
            "--output", output,
        ]


# Each workload loads a different layer; the README next to this file
# records why each was chosen and which per-layer metric it should move.
SWEEPS = {
    # the default sweep's shape; REMARK_DN is about 90% of it
    "catalog": Sweep(ALL_IDS, 19, 9, 8),
    # partitions, corner sets, polynomial products and two workers, no REMARK_DN
    "wide": Sweep(tuple(i for i in ALL_IDS if i != "REMARK_DN"), 26, 1, 1, jobs=2),
}

# faults: one small sweep per injected fault, every hook fault and every
# g-factor fault (delta +1) on every partition of size <= FAULT_MAX_SIZE
FAULT_MAX_SIZE = 6
FAULT_SWEEP = Sweep(ALL_IDS, FAULT_MAX_SIZE, 1, 1)

WORKLOADS = (*SWEEPS, "faults")
