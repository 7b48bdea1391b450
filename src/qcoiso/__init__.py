"""Exact construction and verification of quantized coisotropic subalgebras.

The package is organized bottom-up:

    qfield     exact arithmetic in Q(q) and q-combinatorics
    rootsys    root systems, root strings, the admissibility filter
    classical  Chevalley realizations, the r-matrix, coisotropy checks
    uqalg      the quantized Borel algebra and its q-Serre quotient tables
    recipes    generator recipes (built-in families and JSON documents)
    verify     coideal / flatness certificates and the full pipeline
    cli        the qcoiso command-line driver
"""

from .qfield import RatFunc, parse_ratfunc, q_binomial
from .rootsys import (
    CartanType,
    Root,
    RootSystem,
    admissible_positive_roots,
    build_root_system,
    is_admissible,
    parse_root,
)
from .classical import (
    ad_bivector,
    build_r_matrix,
    build_realization,
    check_coisotropic,
    check_master_equation,
    coisotropic_generators,
    killing_lambda,
)
from .uqalg import NCPoly, UqBorel
from .recipes import (
    GeneratorRecipe,
    builtin_recipe,
    classical_limit_expr,
    eval_bracket_expr,
    load_e6_recipes,
    parse_recipe,
    serialize_recipe,
)
from .verify import (
    VerificationReport,
    check_flatness,
    check_left_coideal,
    run_full_verification,
    solve_identity,
)

__version__ = "0.1.0"
