"""Crystal combinatorics of Kleshchev bipartitions and type-D socle branching.

The package computes, purely combinatorially: the good lattice of Kleshchev
bipartitions at a given quantum characteristic, the good-node crystal
operators and residue paths, the involution on simple-module labels, the
irreducible labels of the type-D algebras, and the multiplicity-free socle
decompositions of restricted simple modules, together with brute-force
verification oracles for all of it.
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
    is_l_restricted,
    is_semisimple,
    parse_bipartition,
    regime_a_params,
    remove_node,
    removable_nodes,
    residue,
)
from .crystal import (
    Lattice,
    Signature,
    build_lattice,
    e_tilde,
    edges_of,
    f_tilde,
    good_addable,
    good_nodes,
    good_removable,
    i_signature,
    iter_levels,
    partition_crystal_levels,
    peel_path,
    replay_path,
    shift_path,
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
    involution,
    level_socles,
    residue_counts,
    socle_restriction,
    unsplit_class,
)
from .oracle import (
    VerificationReport,
    bipartition_dimension,
    count_standard_bitableaux,
    enumerate_bipartitions,
    enumerate_partitions,
    verify_h_path_independence,
    verify_level1_calibration,
    verify_regime_a_decoupling,
    verify_semisimple_branching,
    verify_uniqueness_and_distinctness,
)
from . import errors, io

__version__ = "0.1.0"
