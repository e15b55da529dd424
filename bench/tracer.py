"""Per-layer tracing of vahlen from outside the program.

The tracer replaces the public entry points of each vahlen module (its
layers) with timing wrappers, as class attributes and module functions.  A
module function is also rebound wherever ``from .x import name`` copied it
into another vahlen module, or into a module-level dict, because patching
only the defining module would miss those call sites.

Every wrapped call is a span: name, start, end, parent span, op id.  Self
time is a span's duration minus the time of the wrapped calls inside it.
Scalar arithmetic runs millions of times per operation, so fields calls are
counted and timed but not kept as individual spans; the kept spans are
capped so memory stays bounded.
"""

from __future__ import annotations

import itertools
import sys
import time

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "inverse")
ISO = ("matrix_to_CU", "matrix_to_CUF", "CU_to_matrix", "CUF_to_matrix")
CONDITIONS = ("_condition1", "_condition2", "_condition3", "_condition4")

# layer (module) -> [(class name or None for module functions, names)];
# names a later version of vahlen no longer has are skipped and reported
TARGETS = {
    "fields": [("Scalar", SCALAR_OPS), ("Field", ("element", "parse")),
               (None, ("parse_field",))],
    "quadratic": [
        ("QuadraticSpace", ("__init__", "q", "bilinear", "in_radical",
                            "radical_basis", "extend_sigma",
                            "extend_hyperbolic", "extend_hyperbolic_rho",
                            "is_extension_of", "vector")),
        ("Vector", ("q", "pair", "in_radical")),
        (None, ("space_from_json", "vector_from_json"))],
    "clifford": [
        ("CliffordElement", ("__add__", "__radd__", "__sub__", "__rsub__",
                             "__neg__", "__mul__", "__rmul__", "__truediv__",
                             "transpose", "grade_involution", "conj", "norm",
                             "inverse", "embed", "part", "vector_coords",
                             "paravector_parts")),
        (None, ("enumerate_elements", "rho_map", "upsilon_map", "iota",
                "iota_inv", "element_from_json", "element_to_json",
                "paravector_q", "paravector_pairing"))],
    "groups": [("CMatrix2", ("__mul__",)),
               (None, ISO + ("in_group", "pi", "pi_tilde",
                             "matrix_involution"))],
    "matrices": [(None, CONDITIONS + (
        "in_T", "check_condition", "is_vahlen", "condition3_failure",
        "diagnose", "pseudo_det", "matrix_inverse", "random_vahlen",
        "random_generator", "matrix_from_json", "matrix_to_json",
        "verify_equivalence_exhaustive"))],
    "halfspace": [
        ("HalfSpace", ("mobius_apply", "orthogonal_apply", "to_K", "from_K",
                       "lift", "equivariance_check", "value_identity_check",
                       "stabilizer_shape_check", "enumerate_points", "k_set",
                       "census_generators", "orbit_census", "represented",
                       "regular_point", "boundary_point")),
        (None, ("point_from_json", "point_to_json"))],
    "suites": [(None, ("run_verify",))],
    "cli": [(None, ("main", "build_config", "cmd_verify", "cmd_enumerate",
                    "cmd_act", "cmd_orbit"))],
    "linalg": [(None, ("solve", "rank", "kernel_basis", "det", "mat_mul",
                       "mat_vec"))],
}
LAYERS = tuple(TARGETS)
# every suite of `vahlen verify`; each gets one span per operation
SUITE_NAMES = ("algebra", "involution", "iso", "vahlen", "equivariance",
               "value-identity", "stabilizer")
MOBIUS_CASES = ("rr", "rb", "br", "bb")
SPAN_CAP = 20_000


class _Cell:
    """Calls, inclusive seconds and self seconds of one wrapped name."""

    __slots__ = ("layer", "calls", "total", "self")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Patch vahlen's layers on install(), restore them on uninstall()."""

    def __init__(self):
        self.modules = {layer: sys.modules[f"vahlen.{layer}"]
                        for layer in LAYERS}
        self.cells = {}
        self.missing = []
        self.spans = []
        self.spans_dropped = 0
        self.op_id = -1
        self.ops = 0
        # per-op state: distinct (space, s, t) monomial pairs, and the
        # spaces they name, kept alive so their ids stay unique
        self._pairs = set()
        self._spaces = {}
        self._stack = [[0.0, -1]]
        self._ids = itertools.count()
        self.extra = dict.fromkeys(
            ("products", "product_terms", "product_s", "distinct_pairs",
             "inverse_solves", "census_pairs", "census_s",
             "exhaustive_matrices", "exhaustive_s", "exhaustive_conditions"),
            0)
        self.mobius = dict.fromkeys(MOBIUS_CASES, 0)
        self._patches = self._plan()

    # -- planning and patching -----------------------------------------------

    def _plan(self):
        """The (holder, key, original, wrapper) list install() applies."""
        patches = []
        hooks = self._hooks()
        for layer, groups in TARGETS.items():
            module = self.modules[layer]
            for cls_name, names in groups:
                owner = module if cls_name is None else getattr(
                    module, cls_name, None)
                for name in names:
                    label = ".".join(filter(None, (layer, cls_name, name)))
                    fn = None if owner is None else (
                        owner.__dict__.get(name) if cls_name
                        else getattr(owner, name, None))
                    if not callable(fn):
                        self.missing.append(label)
                        continue
                    pre, post = hooks.get(label, (None, None))
                    wrapper = self._wrap(fn, label, layer, pre, post)
                    if cls_name:
                        patches.append((owner, name, fn, wrapper))
                    else:
                        patches.extend(self._copies(fn, wrapper))
        suites = self.modules["suites"]
        if hasattr(suites, "SUITES"):
            wrapped = tuple((name, self._wrap_suite(name, builder))
                            for name, builder in suites.SUITES)
            patches.append((suites, "SUITES", suites.SUITES, wrapped))
        else:
            self.missing.append("suites.SUITES")
        return patches

    def _copies(self, fn, wrapper):
        """Every module global and module-level dict entry holding fn."""
        found = []
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if value is fn:
                    found.append((module, name, fn, wrapper))
                elif type(value) is dict:
                    found.extend((value, key, fn, wrapper)
                                 for key, item in value.items() if item is fn)
        return found

    def install(self):
        for holder, key, _, wrapper in self._patches:
            _set(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original, _ in reversed(self._patches):
            _set(holder, key, original)

    # -- operations -----------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id

    def end_op(self):
        self.ops += 1
        self.extra["distinct_pairs"] += len(self._pairs)
        self._pairs.clear()
        self._spaces.clear()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, label, layer, pre=None, post=None):
        cell = self.cells.setdefault(label, _Cell(layer))
        stack = self._stack
        spans = self.spans
        ids = self._ids
        perf = time.perf_counter
        keep = layer != "fields"
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids) if keep else parent[1]
            frame = [0.0, sid]
            token = pre(args) if pre is not None else None
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                cell.calls += 1
                cell.total += d
                cell.self += d - frame[0]
                if keep:
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, label, t0, t1, parent[1],
                                      tracer.op_id))
                    else:
                        tracer.spans_dropped += 1
            if post is not None:
                h0 = perf()
                post(args, result, d, token)
                # bookkeeping is no part of the caller's self time
                parent[0] += perf() - h0
            return result

        return wrapper

    def _wrap_suite(self, name, builder):
        label = f"suites.{name}"
        build = self._wrap(builder, label, "suites")

        def wrapped_builder(config):
            return [(check_name, self._wrap(check, label, "suites"))
                    for check_name, check in build(config)]

        return wrapped_builder

    def _hooks(self):
        extra, mobius = self.extra, self.mobius
        pairs, spaces = self._pairs, self._spaces
        cells = self.cells

        def product(args, result, d, _):
            a, b = args[0], args[1]
            coeffs = getattr(b, "coeffs", None)
            if coeffs is None:
                return
            extra["products"] += 1
            extra["product_terms"] += len(a.coeffs) * len(coeffs)
            extra["product_s"] += d
            sid = id(a.space)
            spaces[sid] = a.space
            for s in a.coeffs:
                pairs.update(zip(itertools.repeat((sid, s)), coeffs))

        def solves(_):
            cell = cells.get("linalg.solve")
            return cell.calls if cell else 0

        def inverse(args, result, d, before):
            if solves(args) > before:
                extra["inverse_solves"] += 1

        def mobius_case(args, result, d, _):
            point = args[2]
            mobius[("b" if point.boundary else "r")
                   + ("b" if result.boundary else "r")] += 1

        def mobius_calls(_):
            return cells["halfspace.HalfSpace.mobius_apply"].calls

        def census(args, result, d, before):
            extra["census_pairs"] += mobius_calls(args) - before
            extra["census_s"] += d

        def exhaustive(args, result, d, _):
            extra["exhaustive_matrices"] += result["matrix_count"]
            extra["exhaustive_conditions"] += 4 * result["matrix_count"]
            extra["exhaustive_s"] += d

        return {
            "clifford.CliffordElement.__mul__": (None, product),
            "clifford.CliffordElement.inverse": (solves, inverse),
            "halfspace.HalfSpace.mobius_apply": (None, mobius_case),
            "halfspace.HalfSpace.orbit_census": (mobius_calls, census),
            "matrices.verify_equivalence_exhaustive": (None, exhaustive),
        }

    # -- results --------------------------------------------------------------

    def _calls(self, *labels):
        return sum(self.cells[x].calls for x in labels if x in self.cells)

    def _total(self, label):
        cell = self.cells.get(label)
        return cell.total if cell else 0.0

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for cell in self.cells.values():
            out[cell.layer] += cell.self
        return out

    def totals(self):
        """Per-layer counts and times summed over every traced operation."""
        extra = self.extra
        selfs = self.layer_self()
        mobius_calls = self._calls("halfspace.HalfSpace.mobius_apply")
        inverses = self._calls("clifford.CliffordElement.inverse")
        t = {
            "fields.scalar_ops": self._calls(
                *(f"fields.Scalar.{n}" for n in SCALAR_OPS)),
            "fields.element_calls": self._calls("fields.Field.element"),
            "quadratic.spaces_built": self._calls(
                "quadratic.QuadraticSpace.__init__"),
            "clifford.products": extra["products"],
            "clifford.product_terms": extra["product_terms"],
            "clifford.transposes": self._calls(
                "clifford.CliffordElement.transpose"),
            "clifford.inverses": inverses,
            "groups.iso_calls": self._calls(*(f"groups.{n}" for n in ISO)),
            "groups.in_group_calls": self._calls("groups.in_group"),
            "matrices.is_vahlen_calls": self._calls("matrices.is_vahlen"),
            "matrices.pseudo_det_calls": self._calls("matrices.pseudo_det"),
            "matrices.condition_evals": (
                self._calls(*(f"matrices.{n}" for n in CONDITIONS))
                + extra["exhaustive_conditions"]),
            "halfspace.mobius_calls": mobius_calls,
            "halfspace.orthogonal_calls": self._calls(
                "halfspace.HalfSpace.orthogonal_apply"),
            "halfspace.census_pairs": extra["census_pairs"],
            "linalg.solve_calls": self._calls("linalg.solve"),
            "cli.parse_s": self._total("cli.build_config"),
        }
        t.update({f"halfspace.mobius.{k}": v for k, v in self.mobius.items()})
        t.update({f"{layer}.self_s": s for layer, s in selfs.items()
                  if layer != "suites"})
        t.update({f"suites.{name}.s": self._total(f"suites.{name}")
                  for name in SUITE_NAMES})
        ratios = {
            "clifford.pair_reuse": (extra["product_terms"],
                                    extra["distinct_pairs"]),
            "clifford.product_us": (extra["product_s"] * 1e6,
                                    extra["products"]),
            "clifford.inverse_solve_share": (extra["inverse_solves"],
                                             inverses),
            "matrices.exhaustive_matrices_per_s": (
                extra["exhaustive_matrices"], extra["exhaustive_s"]),
            "halfspace.mobius_us": (
                self._total("halfspace.HalfSpace.mobius_apply") * 1e6,
                mobius_calls),
            "halfspace.census_pair_us": (extra["census_s"] * 1e6,
                                         extra["census_pairs"]),
        }
        return t, {k: (n / d if d else 0.0) for k, (n, d) in ratios.items()}

    def span_summary(self):
        """Per wrapped name: calls, inclusive and self seconds."""
        return {label: {"calls": c.calls, "total_s": c.total, "self_s": c.self}
                for label, c in sorted(self.cells.items()) if c.calls}


def _set(holder, key, value):
    if type(holder) is dict:
        holder[key] = value
    else:
        setattr(holder, key, value)
