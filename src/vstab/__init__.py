"""Stability conditions and compactified-Jacobian combinatorics on dual
graphs of nodal curves: validation, enumeration, posets, classical
detection, semistability of sheaf data, isotrivial specialization, and
one-parameter limits."""

from .errors import (
    DomainMismatch,
    EmptySubcurve,
    InvalidPartition,
    InvalidPolarization,
    InvalidStability,
    LiftImpossible,
    MoveNotApplicable,
    NonTermination,
    NotAPartialOrder,
    NotDegenerate,
    NotPolystable,
    NotSemistable,
    OverlappingSubcurves,
    VstabError,
)
from .graphs import Contraction, DualGraph, SpanningTree, mask_of, vertices_of
from .limits import (
    LimitStep,
    LimitTrace,
    beta,
    beta_deficit,
    esteves_limit,
    laplacian,
    line_bundle_chi,
    same_orbit,
    twist,
    twisting_subcurve,
)
from .polarization import (
    NumericalPolarization,
    from_ample,
    from_slopes,
    is_classical,
    translate_polarization,
)
from .posets import (
    HasseDiagram,
    deg_leq,
    deg_witness,
    enumerate_degeneracy_subsets,
    enumerate_orbits,
    enumerate_window_stabilities,
    hasse,
    lift,
    minimal_elements,
    move_I,
    move_II,
    normal_form,
    orbit_equal,
    qdeg_scan,
    translate,
    translation_witness,
    vstab_leq,
)
from .sheaves import (
    OrderedPartition,
    SheafData,
    enumerate_semistable,
    extension_glue,
    gr_specialize,
    is_polystable,
    is_semistable,
    is_stable,
    polystable_limit,
    semistable_line_bundles,
    stable_summands,
)
from .stability import DegeneracySet, ValidationReport, Violation, VStability, pullback

__all__ = [name for name in dir() if not name.startswith("_")]
