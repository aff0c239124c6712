"""Certified upper bounds for category-type invariants of groups.

The pieces, bottom to top: extended naturals (extnat), fact sheets and
families (facts), group expressions and structured descriptions
(model), the input language (dsl), the bound engine with derivation
traces (engine), finite pieces of dual developments (develop),
vanishing-certificate pipelines (apps), and the command line (cli).
"""

from .extnat import INF, ZERO, ExtNat, FrozenInstanceError, replace, supremum
from .model import (ConcreteFiniteGroup, Diagnostic, DirectProduct, Edge,
                    FreeProduct, GcwDescription, GraphOfGroups, Homomorphism,
                    PolygonOfGroups, Ref, TrivialGroup, Universe,
                    cyclic_group, free_group_expr, product_group, table_group,
                    validate)
from .facts import (AM, FIN, TR, Family, FamilyKind, FactSheet, MemoTable,
                    Tri, builtin_families, membership, membership_with_reason)
from .engine import BoundResult, DerivationNode, Evaluator, replay
from .develop import (AmalgamContext, DevelopmentBall, bass_serre_ball,
                      check_curvature, develop_target, polygon_ball,
                      verify_stabilizers)
from .dsl import (ParseFailure, SourceModel, build_universe, load_prelude,
                  load_text, parse, serialize, try_parse)
from .apps import (BranchedSetup, Certificate, DoubleSetup, GluingSetup,
                   PreconditionError, certify_branched, certify_double,
                   certify_gluing, gluing_to_gog)

__version__ = "0.1.0"

__all__ = [
    "INF", "ZERO", "ExtNat", "FrozenInstanceError", "replace", "supremum",
    "ConcreteFiniteGroup", "Diagnostic", "DirectProduct", "Edge",
    "FreeProduct", "GcwDescription", "GraphOfGroups", "Homomorphism",
    "PolygonOfGroups", "Ref", "TrivialGroup", "Universe",
    "cyclic_group", "free_group_expr", "product_group", "table_group",
    "validate",
    "AM", "FIN", "TR", "Family", "FamilyKind", "FactSheet", "MemoTable",
    "Tri", "builtin_families", "membership", "membership_with_reason",
    "BoundResult", "DerivationNode", "Evaluator", "replay",
    "AmalgamContext", "DevelopmentBall",
    "bass_serre_ball", "check_curvature", "develop_target", "polygon_ball",
    "verify_stabilizers",
    "ParseFailure", "SourceModel", "build_universe", "load_prelude",
    "load_text", "parse", "serialize", "try_parse",
    "BranchedSetup", "Certificate", "DoubleSetup", "GluingSetup",
    "PreconditionError", "certify_branched", "certify_double",
    "certify_gluing", "gluing_to_gog",
    "__version__",
]
