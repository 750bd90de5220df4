"""Numerical verification of starlikeness and convexity criteria on the
unit disk: function jets, subordination targets, boundary extremal scans,
and Jack-lemma probes."""

__version__ = "0.1.0"

from .analytic_core import (
    DEFAULT_ANGULAR_COUNT,
    DEFAULT_RADII,
    DiskSpec,
    FunctionHandle,
    Jet2,
    SamplingGrid,
    alexander_jet,
    convexity_p,
    default_grid,
    derivative_check,
    eval_jet,
    functionals,
    mobius_invert_t1,
    mobius_invert_t2,
    mobius_target,
    starlike_q,
    target_disk,
)
from .criteria import (
    BoundaryScan,
    ConclusionReport,
    HypothesisReport,
    RadiusConclusion,
    RadiusHypothesis,
    order_of_convexity,
    order_of_starlikeness,
    proof_boundary_value_t1,
    proof_boundary_value_t2,
    proof_extremal_t1,
    proof_extremal_t2,
    run_t1,
    run_t2,
    sweep,
    t1_bound,
    t2_bound,
)
from .errors import (
    CriticalPointError,
    DegenerateSchwarzError,
    DiskDomainError,
    FunctionZeroError,
    ParameterDomainError,
    PoleError,
    StardiskError,
)
from .families import (
    BUILTIN_FAMILIES,
    PARAMETRIC_FAMILIES,
    FamilySpec,
    closed_form_p,
    closed_form_q,
    halfplane,
    koebe,
    make_family,
    monomial,
    power_exponent,
    quadratic,
    series,
)
from .jack import (
    JackProbe,
    SchwarzFunction,
    blaschke,
    boundary_argmax,
    induced,
    jack_probe,
)
from .jack import monomial as schwarz_monomial

__all__ = [name for name in dir() if not name.startswith("_")]
