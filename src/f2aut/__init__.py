"""Automorphic conjugacy classes of cyclic words in the rank-2 free group.

The alphabet is a, b, A, B with A and B the inverses of a and b, ordered
a < b < A < B.  The package decides conjugacy up to automorphism, produces
replayable witnesses, builds the class graph of a minimal word, classifies
it into one of ten shapes, and enumerates all classes by length.
"""

from .automorphism import (
    ALL_ONE_LETTER,
    ALL_PERMUTATIONS,
    PRINCIPALS,
    OneLetterAut,
    Permutation,
    WhiteheadII,
    all_whitehead,
    apply_cyclic,
    apply_whitehead,
    canonical_witness,
    canonical_word,
    conjugate_by_perm,
    triangle_decompose,
)
from .class_graph import (
    GRAPH_TYPES,
    ClassGraph,
    TheoremViolation,
    build_graph,
    classify,
    from_json,
    to_dict,
    to_dot,
    to_json,
)
from .enumeration import (
    CensusTables,
    ClassRecord,
    census,
    conjecture_report,
    enumerate_classes,
    enumerate_minimal,
    expected_class_size,
    render_conjecture_report,
)
from .minimality import (
    are_conjugate,
    format_token,
    is_minimal,
    minimize,
    parse_token,
    principal_deltas,
    replay_witness,
)
from .word_core import (
    SubwordCounts,
    check_cyclic_word,
    check_word,
    cyclic_reduce,
    free_reduce,
    invert,
    inverse_letter,
    is_cyclic_word,
    is_reduced,
    least_rotation,
    letter_tally,
    order_key,
    pair_counts,
    rotate,
    subword_count,
    weight,
)

__version__ = "0.1.0"
