"""Two combinatorial models of the basic affine sl(n) crystal.

Vertices are integer partitions (grown box by box under a bracket rule
driven by an arm sequence) or Laurent monomials in doubly indexed variables
(multiplied by lattice factors from running-sum statistics).  The corner
map identifies the two models; graph tooling generates, compares, counts,
and exports the resulting colored digraphs.
"""

from ._backend import backend_name
from .arms import (
    ArmSequence,
    arm_from_descriptor,
    arm_from_file,
    arm_from_values,
    horizontal_arm,
    is_regular,
    random_arm,
    validate_arm,
)
from .brackets import CLOSE, OPEN, BracketString
from .errors import CrystalError
from .graphs import (
    CrystalGraph,
    GraphComparison,
    GraphMismatch,
    compare_graphs,
    compare_models,
    count_regular,
    export_dot,
    export_json,
    generate_graph,
    graph_from_json,
)
from .isomorphism import (
    IntertwineReport,
    check_intertwining,
    partition_to_monomial,
)
from .monomial_crystal import (
    Monomial,
    MonomialStats,
    e_m,
    f_m,
    format_monomial,
    is_compatible,
    is_dominant,
    monomial_bracket_string,
    mult_a,
    one,
    parse_monomial,
    stats,
    weight,
    y,
)
from .partition_crystal import (
    bracket_string,
    e_box,
    e_up,
    eps_phi,
    f_box,
    f_down,
)
from .partitions import (
    Box,
    Partition,
    arm,
    content,
    format_partition,
    height,
    hook,
    parse_partition,
    partitions_of_size,
    residue,
)

__version__ = "0.1.0"
