"""magnuskit: exact word metrics, Fox calculus, and conjugacy machinery for
free solvable groups and restricted wreath products."""

from .config import DEFAULT, RunConfig, using
from .errors import BeyondCapError, InvariantViolation
from .words import FreeWord, commutator, nested_commutator_sample, random_word
from .groups import (
    FreeHandle,
    GroupHandle,
    HeisenbergHandle,
    PermHandle,
    ZNHandle,
    ZrHandle,
    ball,
    edge_traversal_counts,
    handle_from_descriptor,
)
from .ring import RingElement
from .fox import (
    fox_derivative,
    fox_derivative_ring,
    projected_derivative,
    verify_fundamental,
)
from .wreath import (
    Measure,
    WreathElement,
    WreathGroup,
    conjugacy_test,
    conjugator_for_z,
    conjugators,
    pi_projection,
    travel_cost,
    upper_bound_formula,
    w_conjugate,
    w_invert,
    w_length,
    w_multiply,
    wreath_element,
)
from .magnus import (
    SolvableElement,
    SolvableGroup,
    bilipschitz_check,
    divergence_of,
    geodesic_length,
    magnus_embed,
    solvable_conjugacy_test,
    solvable_eq,
    solvable_group,
)

__version__ = "0.1.0"
