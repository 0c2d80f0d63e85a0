"""Orthogonality-broadcasting bounds: library and reproduction harness."""

from .broadcast import (
    broadcast_outputs,
    kill_pattern_certificate,
    perfect_classical_broadcast_decision,
    verify_classical_broadcast_povm,
    verify_orthogonality_broadcast,
)
from .discrimination import (
    DEFAULT_SETTINGS,
    DualCertificate,
    EffectTarget,
    SolverSettings,
    helstrom_binary,
    min_error_discrimination,
    p_postinfo,
    solve_stream,
)
from .ensembles import (
    GopEnsemble,
    Isometry,
    PostInfoEnsemble,
    Povm,
    gallery,
    gallery_names,
    gen_bb84,
    global_orthogonality_check,
    induced_postinfo,
    qubit_qudit_form_check,
)
from .errors import ChunkFailure, InternalInconsistency, SolverFailure
from .moe import (
    MoeGame,
    lemma_a1_bound,
    overlap_constant,
    transpose_trick_game,
)
from .qpv import (
    Theorem4Instance,
    breidbart_lower,
    cor5_printed_formula,
    cq_strategy_value,
    disk_program_solve,
    error_per_state,
    prop4_solve,
    thm4_min_epsilon,
    thm4_rhs,
    thm6_separation,
)
from .reporting import BoundReport, reports_to_csv, reports_to_json
from .reproduce import run_reproduce
from .uncertainty import (
    SuperpositionSpec,
    ur_general,
    ur_guess_bound,
    ur_pair_bound,
)

__version__ = "0.1.0"
