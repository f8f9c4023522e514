"""Arc diagrams, degeneration orders and Hom calculus for invariant
subspaces of nilpotent linear operators with subspace exponent at most
two."""

from .errors import (
    ArcDegError,
    InconsistentDiagram,
    InternalInvariantViolation,
    MoveNotApplicable,
    NoDescentMove,
    NotComparable,
    TypeMismatch,
)
from .geometry import aut_degree, hall_degree, stratum_dim, subspace_orbit_dim
from .homcalc import (
    delta_hom,
    delta_mult,
    hom_indec,
    hom_leq,
    hom_obj,
    mesh_defect_report,
    table_entry,
    test_set,
)
from .lr import lr_coefficient, minimal_count_prediction
from .moves import (
    Move,
    apply_down,
    arc_leq,
    down_moves,
    extrema,
    hasse,
    hasse_dot,
    region,
    ses_witness,
    unit_pair,
)
from .objects import (
    B2,
    P0,
    P1,
    P2,
    ArcDiagram,
    Indecomposable,
    S2Object,
    alpha_of,
    arc_summands,
    crossings,
    diagram_of_object,
    enumerate_objects,
    object_of_diagram,
    object_type,
)
from .oracle import RealizedObject, oracle_hom_dim, rank_mod_p, realize
from .partitions import Partition, is_column_strip
from .reduction import find_descent_move, reduction_chain

__version__ = "0.1.0"
