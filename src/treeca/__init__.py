"""Linear cellular automata on the order-2 Cayley tree over Z_p."""

from .analysis import (
    EntropySequence,
    PartitionProbe,
    ReversibilityRecord,
    SweepSpec,
    classify,
    det_formula_n2,
    det_formula_n3,
    entropy_sequence,
    partition_atom_count,
    sweep,
)
from .dynamics import (
    Configuration,
    EvolutionTrace,
    GardenReport,
    bijectivity_oracle,
    enumerate_preimages,
    evolve,
    garden_report,
    preimages,
    step_local,
    step_matrix,
)
from .field import PrimeField, is_prime
from .rulematrix import (
    LinAlgReport,
    Params,
    RuleMatrix,
    SolutionSet,
    build_rule_matrix,
    det_mod_p,
    invert,
    kernel_basis,
    linalg_report,
    linalg_report_for,
    rank_mod_p,
    solve,
)
from .tree import TreeShape, parent

__version__ = "0.1.0"
