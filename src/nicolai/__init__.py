"""Exact finite-interval toolkit for the Nicolai supersymmetric fermion chain.

Builds the chain's supercharges, Hamiltonians and hidden local fermion charges
as exact integer matrices on finite site windows; classifies, counts and
generates the classical supersymmetric ground states; and verifies the whole
operator algebra with zero-tolerance integer arithmetic.
"""

from .fock import (
    FermionMonomial,
    FockVector,
    IntegerSparseOperator,
    OccupationConfig,
    OperatorSum,
    SiteWindow,
    anticommutator,
    apply_ladder,
    apply_monomial,
    build_matrix,
    commutator,
    number_operator,
    parity_operator,
)
from .model import (
    Interval,
    ModelOperators,
    SpectrumReport,
    build_supercharge,
    spectrum,
    supercharge_term,
)
from .charges import (
    ConservationSequence,
    charge_monomial,
    enumerate_sequences,
    enumerate_union,
    verify_annihilation,
    verify_commutation,
)
from .ground import (
    GenerationError,
    GenerationWord,
    charge_action_on_config,
    count_transfer,
    enumerate_upsilon_hat,
    extend_to_interval,
    generate_word,
    generation_table,
    is_close_edge_susy_vector,
    is_ground_config,
    is_open_edge_susy_vector,
    replay_word_config,
    replay_word_matrix,
)

__version__ = "0.1.0"
