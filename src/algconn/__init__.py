"""Exact arithmetic for Lie algebroid connections on holomorphic vector
bundles: a formal existence criterion at any genus, and a concrete
cohomological engine on the projective line that computes splittings,
obstruction classes and explicit connection certificates over the rationals.
"""

from .algebroid_decision import (
    AlgebroidDesc,
    AnchorDesc,
    AnchorKind,
    Decision,
    Reason,
    Verdict,
    anchor_forced_zero,
    decide_connection,
    validate_algebroid,
)
from .exact_core import (
    LaurentMatrix,
    LaurentPoly,
    Rat,
    laurent_parse,
)
from .formal_bundles import (
    Atom,
    CurveContext,
    FormalBundle,
    Stability,
    atiyah_weil,
)
from .jet_obstruction import (
    ConcreteAnchor,
    ConnectionCert,
    ObstructionCocycle,
    connection_exists_p1,
    construct_connection,
    jet1_transition,
    jetV_transition,
    obstruction_cocycle,
    tangent_anchor,
    verify_connection,
    verify_witness,
    zero_anchor,
)
from .p1_engine import (
    GlobalSection,
    P1Bundle,
    SplittingData,
    birkhoff_split,
    cohomology_dims,
    dual_bundle,
    gauge_transform,
    global_sections,
    hom_bundle,
    hom_sections,
    line_bundle,
    riemann_roch_check,
    serre_dual_check,
    split_bundle,
    tangent_bundle,
    tensor_bundle,
    trivial_bundle,
    twist,
)

__version__ = "0.1.0"
