"""Per-layer tracing for the benchmark's traced run.

The tracer wraps functions of the program's modules from outside: the
program itself carries no tracing code.  A wrapped name is replaced in
every loaded ``qso_spectra`` module (or class) that binds the same
function object, so ``actions``' by-name imports of ``build_rewriter``
and ``normal_form`` and ``field``'s by-name imports of the backend
kernels are all counted.

For each wrapped name the tracer keeps the number of calls, busy time
(outermost calls only, so recursion is not counted twice) and self time
(duration minus the time direct child spans cover).  Calls of the
coarse functions are also kept as spans (id, parent id, name, start,
end, request id) and written out when the run ends.  Kernel-level
functions, which run millions of times per round, are aggregated into
their parent's child time and the counters without a span each, so the
span list stays small.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, qualified attribute, metric name, kept as spans)
TARGETS = (
    ("cli", "main", "cli.main", True),
    ("reports", "to_json", "reports.to_json", True),
    ("reports", "to_csv", "reports.to_csv", True),
    ("frt", "verify_lemma_rels", "frt.verify_lemma_rels", True),
    ("frt", "generate_relations", "frt.generate_relations", True),
    ("frt", "build_rewriter", "frt.build_rewriter", True),
    ("frt", "complete_rewriter", "frt.complete_rewriter", True),
    ("frt", "saturate_and_check", "frt.saturate_and_check", True),
    ("frt", "normal_form", "frt.normal_form", False),
    ("ncpoly", "NCPoly.__mul__", "ncpoly.mul", False),
    ("actions", "vector_rep", "actions.vector_rep", True),
    ("actions", "verify_qea_relations", "actions.verify_qea_relations", True),
    ("actions", "verify_covariance", "actions.verify_covariance", True),
    ("actions", "verify_spherical", "actions.verify_spherical", True),
    ("actions", "orbit_scan", "actions.orbit_scan", True),
    ("actions", "ActionEngine.act_left", "actions.act", False),
    ("actions", "ActionEngine.act_right", "actions.act", False),
    ("field", "_rf_norm", "field.rf_norm", False),
    ("field", "lp_mul", "field.lp_mul", False),
    ("field", "plist_gcd", "field.plist_gcd", False),
    ("field", "FieldElem.eval_v", "field.eval", False),
    ("field", "FieldElem.eval_sqrtq", "field.eval", False),
    ("quadext", "QuadExt.__mul__", "quadext.mul", False),
    ("quadext", "QuadExt.inverse", "quadext.inverse", False),
    ("fiber", "_LefschetzTable.__init__", "fiber.lefschetz_table", True),
    ("fiber", "verify_lefschetz_iso", "fiber.verify_lefschetz_iso", True),
    ("fiber", "verify_hodge_shape", "fiber.verify_hodge_shape", True),
    ("fiber", "verify_nonprimitive", "fiber.verify_nonprimitive", True),
    ("fiber", "kappa_power", "fiber.kappa_power", True),
    ("fiber", "_echelon", "fiber.echelon", True),
    ("fiber", "_straighten", "fiber.straighten", False),
    ("spectrum", "validate_params", "spectrum.validate_params", True),
    ("spectrum", "spectrum_table", "spectrum.spectrum_table", True),
    ("spectrum", "check_divergence", "spectrum.check_divergence", True),
    ("spectrum", "eigenvalue", "spectrum.eigenvalue", False),
    ("spectrum", "_QintTable.value", "spectrum.eigenvalue", False),
    ("cartan", "CartanData.__init__", "cartan.init", True),
    ("cartan", "CartanData.weyl_dim", "cartan.weyl_dim", False),
)

LAYERS = ("cli", "reports", "frt", "ncpoly", "actions", "field", "quadext",
          "fiber", "spectrum", "cartan")


class Tracer:
    """Wraps the program's functions; ``uninstall`` restores them."""

    def __init__(self, package: str = "qso_spectra"):
        self.package = package
        self.stack = []          # frames: [span id | None, start, child time]
        self.stats = {}          # name -> [calls, busy, self, depth]
        self.spans = []
        self.request_id = None
        self.next_id = 0
        self.bytes_out = 0
        self.eigen_evals = 0
        self.value_bits_max = 0
        self.echelon_cells = 0
        self.gcds = 0
        self.gcds_useful = 0
        self.builds = 0
        self.first_builds = 0
        self._built_n = set()
        self._restore = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        hooks = {
            "reports.to_json": self._on_report,
            "reports.to_csv": self._on_report,
            "frt.build_rewriter": self._on_build,
            "field.plist_gcd": self._on_gcd,
            "fiber.echelon": self._on_echelon,
            "spectrum.eigenvalue": self._on_eigen,
        }
        modules = {m: v for m, v in sys.modules.items()
                   if m.startswith(self.package + ".") and v is not None}
        for mod, attr, name, keep in TARGETS:
            owner = modules[f"{self.package}.{mod}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = owner.__dict__[leaf]
            wrapper = self._wrap(orig, name, keep, hooks.get(name))
            holders = [owner] if path else list(modules.values())
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    def _wrap(self, fn, name, keep, hook):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        spans = self.spans

        def traced(*args, **kwargs):
            if keep:
                sid = self.next_id
                self.next_id += 1
                parent = next((f[0] for f in reversed(stack) if f[0] is not None),
                              None)
            else:
                sid = parent = None
            frame = [sid, perf_counter(), 0.0]
            stack.append(frame)
            st[3] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                st[3] -= 1
                dur = end - frame[1]
                st[0] += 1
                st[2] += dur - frame[2]
                if not st[3]:
                    st[1] += dur
                if stack:
                    stack[-1][2] += dur
                if keep:
                    spans.append((sid, parent, name, frame[1], end,
                                  self.request_id))
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters measured where the work happens -------------------------
    def _on_report(self, args, text):
        self.bytes_out += len(text.encode("utf-8"))

    def _on_build(self, args, rw):
        self.builds += 1
        if rw.N not in self._built_n:
            self._built_n.add(rw.N)
            self.first_builds += 1

    def _on_gcd(self, args, g):
        self.gcds += 1
        if len(g) > 1:
            self.gcds_useful += 1

    def _on_echelon(self, args, result):
        rows = args[0]
        self.echelon_cells += len(rows) * (len(rows[0]) if rows else 0)

    def _on_eigen(self, args, value):
        self.eigen_evals += 1
        bits = value.numerator.bit_length() + value.denominator.bit_length()
        if bits > self.value_bits_max:
            self.value_bits_max = bits

    # -- results ----------------------------------------------------------
    def stat(self, name):
        calls, busy, self_s, _ = self.stats.get(name, (0, 0.0, 0.0, 0))
        return calls, busy, self_s

    def layer_self(self, layer: str) -> float:
        return sum(v[2] for k, v in self.stats.items()
                   if k.split(".")[0] == layer)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, rid in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "request": rid}) + "\n")
