"""Linear cellular automata on the order-2 Cayley tree over Z_p."""

from .analysis import (
    EntropySequence,
    PartitionProbe,
    ReversibilityRecord,
    SweepSpec,
    classify,
    entropy_sequence,
    partition_atom_count,
    sweep,
)
from .dynamics import (
    Configuration,
    GardenReport,
    evolve,
    garden_report,
    preimages,
    step_local,
)
from .field import PrimeField, is_prime
from .rulematrix import (
    LinAlgReport,
    Params,
    RuleMatrix,
    SolutionSet,
    build_rule_matrix,
    invert,
    kernel_basis,
    linalg_report,
    solve,
)
from .tree import TreeShape

__version__ = "0.1.0"
