"""Exact computations with rational geodesic currents on free groups.

Words and conjugacy classes, twist automorphisms, cylinder coordinates,
translation lengths on splitting trees (two independent evaluation routes),
and the orbit experiments that certify the headline convergence and
divergence facts, all in exact rational arithmetic.
"""

from .automorphisms import (
    FreeAutomorphism,
    apply,
    apply_cyclic,
    apply_inverse,
    automorphism_str,
    compose,
    double_prime_basis_change,
    double_twist,
    identity_automorphism,
    inverse,
    parse_automorphism,
    power,
    prime_basis_change,
    simple_twist,
)
from .currents import (
    ConjugacyClass,
    CriticalCheck,
    ProjectiveCurrentVector,
    RationalCurrent,
    act,
    add,
    coordinate,
    current_from_terms,
    current_str,
    in_critical_set,
    parse_current,
    power_free_classes,
    projective_distance,
    projective_vector,
    rational_current,
    scale,
    zero_current,
)
from .currents import length as current_length
from .dynamics import (
    AssertionResult,
    ConvergenceReport,
    EscapeChoice,
    TableSection,
    escape_from_critical,
    iterate_current,
    run_minimality_walk,
    run_off_critical_perturbation,
    run_outlook_identity,
    run_primitive_limit,
    run_product_minimal,
    run_theorem_back,
    run_theorem_main,
    walk_to_target,
)
from .errors import (
    AllEllipticError,
    AutomorphismTableError,
    BasisMismatchError,
    CurrentsLabError,
    IdentityElementError,
    LevelMismatchError,
    NotStabilizedError,
    ParseError,
    RankError,
    ZeroCurrentError,
)
from .selftest import run_selftest
from .trees import (
    ProjectiveTreeVector,
    TreeLengthFunction,
    cayley_tree,
    double_twist_tree,
    intersection_form,
    length_britton,
    length_limit,
    parse_tree,
    projective_tree_vector,
    tree_orbit_limit,
    tree_projective_eq,
    twist_tree,
)
from .trees import length as tree_length
from .words import (
    Basis,
    CyclicWord,
    Word,
    concat,
    count_subwords,
    cyclic_reduce,
    cyclic_word,
    free_reduce,
    invert,
    occurrences,
    primitive_root,
    word,
    word_power,
)

__version__ = "0.1.0"
