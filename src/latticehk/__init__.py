"""Exact-arithmetic workbench for descent checks of Haag-Kastler-style nets
on discrete 1+1D causal lattices."""

from .geometry import (LatticeSpacetime, Region, LatticeEmbedding,
                       region_points, region_full, region_diamond,
                       region_strict_diamond, region_slab, bounded_spacetime,
                       cone, hull, is_causally_convex, cauchy_development,
                       double_complement, is_D_stable, is_cauchy_morphism,
                       are_causally_disjoint, contains_cauchy_surface_of,
                       find_D_stable_neighborhood, GeometryError,
                       WindowTooSmallError)
from .sites import (SiteCategory, Cover, CoverCategory, SiteFunctor,
                    enumerate_universe, SiteError)
from .kleingordon import KgContext, KgConfig
from .nets import IndicatorAqft, CcrAqft, build_indicator, build_kg_aqft
from .descent import (generator_counit_check, relation_counit_check,
                      prestack_failure_demo)

__version__ = "0.1.0"
