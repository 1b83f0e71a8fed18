"""homkit: exact computational homological algebra over Z and Z/n.

Finitely presented modules and bounded cochain complexes with certified
kernels, cokernels, pushouts, Hom and Ext groups; universe-bounded checkers
for class-relative injectivity and projectivity; and constructive builders
for bounded precovers, preenvelopes and injective envelopes.
"""

from .exactalg import (
    CongruenceSystem,
    ExactAlgError,
    IntMatrix,
    RingSpec,
    ZZ,
    Zmod,
    det,
    howell_form,
    smith_normal_form,
    solve_linear,
)
from .modules import (
    DirectSum,
    FpModule,
    HomModule,
    MapSystem,
    ModuleError,
    ModuleMap,
    Presentation,
    Pushout,
    SubquotientWitness,
    all_submodules,
    cokernel,
    direct_sum,
    ext1_module,
    hom_module,
    image,
    injective_hull,
    kernel,
    normalize_presentation,
    pushout,
)
from .complexes import (
    ChainMap,
    Complex,
    ComplexError,
    ExactnessReport,
    Homotopy,
    ShortExactOfComplexes,
    chain_map_group,
    chain_maps,
    disk,
    hom_complex,
    is_exact,
    mapping_cone,
    null_homotopy,
    shift,
    sphere,
    splits,
    validate_complex,
    zero_complex,
)
from .xclass import (
    ALL,
    ComplexUniverse,
    Eps1Universe,
    FREE,
    ModuleUniverse,
    UniverseCapError,
    XClassSpec,
    ZERO_ONLY,
    ann,
    contains_complex,
    contains_module,
    default_complex_universe,
    enumerate_eps1,
    enumerate_homs,
    enumerate_modules,
    enumerate_monos,
    eps1_universe,
    module_universe,
    parse_class_spec,
)
from .lifting import (
    HypothesisError,
    Verdict,
    dg_x_injective,
    dg_x_projective,
    eps1_perp_homotopy,
    hom_exactness,
    null_map_property,
    summand_retraction,
    x_injective_complex,
    x_injective_module,
    x_projective_complex,
    x_projective_module,
)
from .construct import (
    BuildError,
    EnvelopeResult,
    OracleHypothesisError,
    PrecoverResult,
    PreenvelopeResult,
    fixture_injective_components_not_injective_complex,
    module_epi_precover,
    module_mono_preenvelope,
    precover_bounded,
    preenvelope_bounded,
    verify_precover_factorization,
    verify_preenvelope_factorization,
    x_injective_envelope,
)

from .caches import clear_caches

__version__ = "0.1.0"
