"""Crystal combinatorics of Kleshchev bipartitions and type-D socle branching.

The package computes, purely combinatorially: the good lattice of Kleshchev
bipartitions at a given quantum characteristic, the good-node crystal
operators and residue paths, the involution on simple-module labels, the
irreducible labels of the type-D algebras, and the multiplicity-free socle
decompositions of restricted simple modules, together with brute-force
verification oracles for all of it.  The oracles compare the engine with
the definitional crystal operators of ``reference``, which it never calls.
"""

from .core import (
    Bipartition,
    CrystalParams,
    EMPTY_BIPARTITION,
    INF,
    Node,
    Partition,
    REGIME_A,
    REGIME_B,
    addable_nodes,
    add_node,
    bipartition_size,
    classify_regime,
    format_bipartition,
    format_node,
    hat,
    is_semisimple,
    parse_bipartition,
    regime_a_params,
    remove_node,
    removable_nodes,
    residue,
)
from .crystal import (
    Lattice,
    build_lattice,
    good_nodes,
    iter_levels,
    partition_crystal_levels,
)
from .dmod import (
    IrreducibleLabel,
    SPLIT,
    SocleDecomposition,
    UNSPLIT,
    almost_symmetric,
    branching_graph,
    equivalence_classes,
    format_label,
    image_function,
    involution,
    level_socles,
    parents_index,
    residue_counts,
    socle_restriction,
    unsplit_class,
)
from .oracle import (
    VerificationReport,
    bipartition_dimension,
    enumerate_partitions,
    verify_clifford_socle,
    verify_h_path_independence,
    verify_level1_calibration,
    verify_regime_a_decoupling,
    verify_semisimple_branching,
    verify_uniqueness_and_distinctness,
)
from .reference import Signature, e_tilde, f_tilde, good_addable, good_removable, i_signature
from . import errors, io

__version__ = "0.1.0"
