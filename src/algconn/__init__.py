"""Exact arithmetic for Lie algebroid connections on holomorphic vector
bundles: a formal existence criterion at any genus, and a concrete
cohomological engine on the projective line that computes splittings,
obstruction classes and explicit connection certificates over the rationals.

The exported names load lazily (PEP 562): importing the package imports no
submodule, and the first access to a name imports the submodule that
defines it. So ``import algconn.cli`` compiles only what the CLI needs.
"""

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in (
        ("algebroid_decision", "AlgebroidDesc AnchorDesc AnchorKind Decision Reason Verdict "
                               "anchor_forced_zero decide_connection validate_algebroid"),
        ("exact_core", "LaurentMatrix LaurentPoly laurent_parse"),
        ("formal_bundles", "Atom CurveContext FormalBundle Stability atiyah_weil"),
        ("jet_obstruction", "ConcreteAnchor ConnectionCert ObstructionCocycle "
                            "construct_connection jet1_transition jetV_transition "
                            "obstruction_cocycle tangent_anchor verify_connection "
                            "verify_witness zero_anchor"),
        ("p1_engine", "GlobalSection P1Bundle SplittingData birkhoff_split cohomology_dims "
                      "dual_bundle gauge_transform global_sections hom_bundle hom_sections "
                      "line_bundle split_bundle tangent_bundle tensor_bundle trivial_bundle "
                      "twist"),
    )
    for name in names.split()
}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list:
    return __all__
