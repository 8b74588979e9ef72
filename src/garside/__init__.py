"""Garside shadows, voracious languages and biautomatic structures.

Build a Coxeter system from a labelled matrix, compute its Garside
shadows (low elements, m-low elements, cone-type gates, or closures of
seeds), project elements onto shadows, enumerate the voracious language
and its recognizing automaton, and verify the fellow-traveller bounds on
Cayley balls.  All group arithmetic is exact.
"""

from .scalars import Scalar
from .coxeter import (
    CayleyBall,
    CoxeterMatrix,
    CoxeterSystem,
    Element,
    GroupFileError,
    InternalInconsistencyError,
    MixedSystemError,
    Root,
    UnsupportedLabelError,
    format_group_file,
    make_system,
    parse_group_file,
    word_infix,
    word_prefix,
)
from .weak_order import (
    WeakOrderInterval,
    join,
    lower_interval,
    meet,
    weak_leq,
)
from .shi import (
    RootLimitExceeded,
    SignVector,
    SmallRootSet,
    elementary_walls,
    elementary_walls_oracle,
    is_shi_gate,
    low_index,
    m_close,
    separation_count,
    shi_gates,
    shi_sign_vector,
    wall_separation_oracle,
)
from .automata import (
    Acceptance,
    Automaton,
    canonical_automaton,
    cone_type_automaton,
    cone_type_fingerprint,
    cone_type_gates,
    cone_type_id,
    label_words,
    letter_expanded,
    minimize,
    nfa_accepting_states,
)
from .shadows import (
    CutoffExceeded,
    GarsideShadow,
    ShadowFileError,
    ValidationResult,
    b_projection,
    garside_closure,
    make_shadow,
    partition_part,
    refinement_check,
    shadow_from_gates,
    shadow_from_text,
    shadow_to_text,
    validate_shadow,
)
from .voracious import (
    LanguageSlice,
    VoraciousChain,
    build_voracious_fsa,
    cross_validate_regularity,
    enumerate_language,
    fsa_accepts,
    language_of,
    op_voracious_projection,
    reduced_words,
    voracious_chain,
    voracious_projection,
)
from .verify import (
    CheckResult,
    FellowTravellerReport,
    VerdictBundle,
    check_condition_one,
    check_first_ftp,
    check_lemma_chain,
    check_second_ftp,
    estimate_parallel_wall,
    full_suite,
    parallel_wall_constant,
)

__version__ = "0.1.0"
