"""Exact combinatorics of compact stratified 1-manifolds and the homology
theories living over them: disk-stratified limits, the cyclic bar
construction, Hochschild and cyclic homology, trace classes and their
repetition operators."""

from .exactla import QQ, RingFp, SparseMat, ZZ, ring_from_name
from .fincat import (FactorizationSystem, FinCategory, SetDiagram,
                     SimplicialFinSet, codiscrete, colimit_of_sets,
                     discrete_category, factorize_morphism, free_act,
                     free_cocart_second_factor, Functor, limit_of_sets,
                     monoid_category, poset_category, validate_category,
                     walking_idempotent)
from .manifold import (BundleMap, FinSpan, GraphManifold, RefinementDatum,
                       StratMorphism, blowup, classify_morphism,
                       compose_morphisms, compose_spans, cycle_graph, d0, d1,
                       disjoint_union, factor_closed_active, pointed_circle,
                       smooth_circle, spans_isomorphic, strata_span,
                       validate_manifold)
from .indexing import (CoverOperator, ParacyclicOp, RefinementCategoryDescriptor,
                       SimplexMap, cyclic_equal, cyclic_reduce,
                       delta_op_factorize, disk_refinement_category,
                       enumerate_paracyclic, rotation, standard_interval)
from .enrich import (LinearCategory, Module, corr_pushforward, group_algebra,
                     linearize, matrix_algebra, monoid_algebra, nerve,
                     tensor_all_sets, validate_linear_category)
from .facthom import (ChainComplexBundle, LinearCyclicLevel, SetCyclicBar,
                      TraceClassTable, cart_facthom_disk, cyclic_homology,
                      enr_facthom_disk, facthom_set_pi0, hochschild_homology,
                      negative_cyclic_homology, thh_set_pi0)
from .cyclo import (configuration_census, fixed_classes, free_loop_census,
                    free_monoid_category, necklace_count, psi_r, tc0, trace0,
                    trace_of)

__version__ = "0.1.0"
