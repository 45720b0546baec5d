"""Decide, witness, and brute-force-verify finite-annihilation and covering
properties of groups: exactly for small finite groups, criterion-based for
finitely presented ones."""

from .abelian import (
    AbelianInvariants,
    abelian_weight,
    elementary_p_rank,
    max_elementary_rank,
)
from .catalog import (
    CatalogSpec,
    alternating_group,
    build_catalog,
    cyclic_group,
    default_catalog_spec,
    dihedral_group,
    elementary_group,
    group_from_spec,
    load_group,
    quaternion_group,
    special_linear_group,
    symmetric_group,
)
from .classify import (
    RhoChecks,
    Verdict,
    classify_fa,
    classify_nfa,
    rho_annihilated_checks,
)
from .config import Caps, DEFAULT_CAPS
from .covering import (
    CoverReport,
    TheoremReport,
    is_fa_finite,
    is_nfa_finite,
    verify_finite_theorems,
    weight_from_abelianisation,
)
from .fingroup import (
    FiniteGroup,
    abelian_invariants_finite,
    abelianisation,
    build_from_cayley_table,
    build_from_matrix_generators,
    build_from_permutations,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    maximal_normal_subgroups,
    normal_subgroups,
    quotient,
    subgroup_closure,
    validate_group,
    weight_bruteforce,
    weight_witness,
)
from .presentation import (
    Presentation,
    abelian_invariants,
    exponent_matrix,
    parse_presentation,
    parse_word_text,
)
from .snf import smith_normal_form
from .witness import (
    ScanReport,
    Witness,
    WitnessTarget,
    enumerate_surjections,
    fa_scan,
    find_annihilator,
    verify_witness,
    witness_targets,
)
from .words import (
    Word,
    commutator_word,
    concat,
    free_reduce,
    invert_word,
    reduced_words,
    render_word,
    word_power,
)

__version__ = "0.1.0"
