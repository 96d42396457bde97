"""The benchmark's tracer still finds every name it wraps.

perfbench/tracing.py rebinds program functions by name; renaming one of
them breaks only the traced benchmark run, with a KeyError.  These tests
install and uninstall the tracer on the imported package, so such a
rename fails here first, and run every hooked target once under it, so a
hook that no longer reads its target's arguments or result fails here
too.
"""

import sys
from fractions import Fraction
from pathlib import Path

import qso_spectra
from qso_spectra import actions, cartan, cli, fiber, field, frt  # noqa: F401
from qso_spectra import ncpoly, quadext, reports, spectrum  # noqa: F401

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _owner(mod, attr):
    owner = sys.modules[f"qso_spectra.{mod}"]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _bindings():
    """Every name bound in a package module or in a class it defines."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("qso_spectra.") or mod is None:
            continue
        holders = [mod] + [v for v in vars(mod).values()
                           if isinstance(v, type) and v.__module__ == name]
        for holder in holders:
            for key, val in list(vars(holder).items()):
                out[(id(holder), key)] = val
    return out


def test_every_target_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = _bindings()
    originals = {}
    for mod, attr, _, _ in tracing.TARGETS:
        owner, leaf = _owner(mod, attr)
        assert leaf in vars(owner), f"{mod}.{attr} is not defined"
        originals[(mod, attr)] = vars(owner)[leaf]

    tracer = tracing.Tracer(qso_spectra.__name__)
    tracer.install()
    try:
        for (mod, attr), orig in originals.items():
            owner, leaf = _owner(mod, attr)
            assert getattr(vars(owner)[leaf], "__wrapped__", None) is orig, \
                f"{mod}.{attr} is not wrapped"
    finally:
        tracer.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, val in before.items() if after[key] is not val]
    assert not changed


def test_every_hook_reads_its_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # no modular point: every Lefschetz degree takes the exact _echelon path
    monkeypatch.setattr(fiber, "_modular_point", lambda q0: None)
    tracer = tracing.Tracer(qso_spectra.__name__)
    tracer.install()
    try:
        reports.to_json({"status": "verified"})
        frt.build_rewriter(frt.generate_relations(5))
        v = field.FieldElem.v_pow(1)
        (v + field.ONE).inverse() * (v - field.ONE)
        params = spectrum.SpectralParams()
        spectrum.validate_params(params)
        spectrum.eigenvalue(2, 1, params)
        fiber.verify_lefschetz_iso(fiber.ExtAlgParams(2), Fraction(11, 10))
    finally:
        tracer.uninstall()
    assert tracer.bytes_out and tracer.builds and tracer.gcds
    assert tracer.eigen_evals and tracer.echelon_cells
    assert tracer.stat("fiber.echelon")[0] == 2


def test_fiber_rules_are_no_rewriter_build(monkeypatch):
    # the Lambda^- rules come from frt's row reduction, but not through
    # build_rewriter, whose calls the benchmark counts as rewriter builds
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    fiber._minus_rules.cache_clear()
    tracer = tracing.Tracer(qso_spectra.__name__)
    tracer.install()
    try:
        fiber._straighten(fiber.ExtAlgParams(4), (4, 1, 3), "-")
    finally:
        tracer.uninstall()
    assert fiber._minus_rules.cache_info().misses == 1
    assert tracer.stat("fiber.straighten")[0] == 1
    assert tracer.stat("frt.build_rewriter")[0] == 0 and tracer.builds == 0
