"""Comparability, superposition and entanglement-bound analysis for pure
bipartite states, with reproducible Monte-Carlo surveys."""

from .bounds import (
    BoundInstance,
    BoundReport,
    BoundSurvey,
    evaluate,
    replay_certificate,
    survey_bounds,
)
from .majorization import (
    ComparabilityVerdict,
    classify_pair,
    incomparable_3x3_shortcut,
    majorizes,
)
from .measures import (
    compute_measure,
    concurrence_squared,
    entropy_of_entanglement,
    log_negativity,
    negativity,
    renyi_entropy,
)
from .scenarios import (
    ScenarioRow,
    TableReport,
    check_row_conditions,
    load_default_rows,
    load_scenario_rows,
    replay_table_certificate,
    rows_for_case,
    validate_tables,
)
from .statefile import StateFileError, emit_state_file, parse_state_file
from .states import (
    InvalidStateError,
    NumericalError,
    PreconditionError,
    PureState,
    RandomSource,
    SchmidtVector,
    make_schmidt_vector,
    schmidt_of_state,
    singular_values,
)
from .superpose import (
    SuperpositionResult,
    SuperpositionSpec,
    VanishingSuperpositionError,
    overlap,
    superpose,
)

__version__ = "0.1.0"
