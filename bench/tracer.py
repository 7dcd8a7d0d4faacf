"""Spans around the public functions of each gtbases module.

`install()` runs inside a case's child process, after `gtbases.cli` has
been imported.  It replaces every binding of a traced function with a
wrapper that records one span per call: (name, start, end, parent index,
value).  Module-level functions are rebound in every gtbases module
namespace that holds them, because `construction`, `signed_realization`,
`orthogonal_chain`, `yangian` and `cli` import them by name; methods of
`SparseMat`, `OpPoly` and `HWModule` are replaced on the class.  Spans stay
in memory until the case ends.

`layer_metrics()` runs in the parent on the spans of all cases of one
workload pass and derives the per-layer metrics: counts, self time (a
span's duration minus the part covered by its child spans) and inclusive
time of the named checks.
"""

import functools
import sys
import time

# Module-level functions: (module, attribute, span name, value(args, out)).
FUNCTIONS = [
    ("exact", "rref", "exact.rref",
     lambda a, out: len(a[0]) * (len(a[0][0]) if a[0] else 0)),
    ("exact", "solve_in_span", "exact.solve_in_span", None),
    ("exact", "nullspace", "exact.nullspace", None),
    ("exact", "rank", "exact.rank", None),
    ("patterns", "enumerate_patterns", "patterns.enumerate", lambda a, out: len(out)),
    ("branching", "weyl_dim", "branching.weyl_dim", None),
    ("branching", "branch_children_BCD", "branching.branch_children", None),
    ("branching", "branch_A", "branching.branch_children", None),
    ("gln", "build_irrep", "gln.build_irrep", None),
    ("gln", "quantum_minor", "gln.quantum_minor", None),
    ("gln", "capelli_det", "gln.capelli_det", None),
    ("gln", "commutation_check", "gln.check.commutation", None),
    ("gln", "adjointness_check", "gln.check.adjointness", None),
    ("gln", "highest_vector_check", "gln.check.highest_vector", None),
    ("gln", "basis_via_lowering", "gln.check.basis_via_lowering", None),
    ("gln", "capelli_scalar_check", "gln.check.capelli_scalar", None),
    ("gln", "capelli_interpolation_check", "gln.check.capelli_interpolation", None),
    ("gln", "zrelation_checks", "gln.check.zrelation", None),
    ("gln", "tau_equals_z_check", "gln.check.tau_equals_z", None),
    ("gln", "drinfeld_checks", "gln.check.drinfeld", None),
    ("gln", "kappa_basis", "gln.check.kappa_basis", None),
    ("gln", "characteristic_identity_check", "gln.check.characteristic_identity", None),
    ("liealg_bcd.construction", "build_module", "liealg_bcd.build_module", None),
    ("liealg_bcd.signed_realization", "gt_basis_bcd", "liealg_bcd.gt_basis_bcd", None),
    ("liealg_bcd.signed_realization", "apply_z", "liealg_bcd.apply_z", None),
    ("liealg_bcd.orthogonal_chain", "orth_gt_basis", "liealg_bcd.orth_gt_basis", None),
    ("liealg_bcd.signed_realization", "gt_basis_checks", "liealg_bcd.check.gt_basis", None),
    ("liealg_bcd.signed_realization", "fnn_action_check", "liealg_bcd.check.fnn_action", None),
    ("liealg_bcd.orthogonal_chain", "orth_basis_checks", "liealg_bcd.check.orth_basis", None),
    ("yangian", "build_tensor_module", "yangian.build_tensor_module", None),
    # value: basis elements the closure added beyond the identity and the
    # generators themselves (products are counted from the spans below it)
    ("yangian", "algebra_closure", "yangian.algebra_closure",
     lambda a, out: [len(out), len(out) - 1 - sum(any(b is g for g in a[0]) for b in out)]),
    ("yangian", "commutant_dimension", "yangian.commutant_dimension", None),
    ("yangian", "algebra_is_semisimple", "yangian.algebra_is_semisimple", None),
    ("yangian", "rtt_check", "yangian.rtt_check", None),
    ("yangian", "quantum_det_scalar_check", "yangian.quantum_det_scalar_check", None),
    ("yangian", "eta_action_checks", "yangian.eta_action_checks", None),
    ("cli", "run", "cli.run", None),
    ("cli", "export_dict", "cli.export_dict", None),
]

# Methods: (module, class, method, span name, value(args, out)).
METHODS = [
    ("exact", "SparseMat", "__matmul__", "exact.sparse_matmul",
     lambda a, out: len(a[0].entries) + len(a[1].entries)),
    ("exact", "SparseMat", "__add__", "exact.sparse_add", None),
    ("exact", "SparseMat", "scale", "exact.sparse_scale", None),
    ("exact", "OpPoly", "__matmul__", "exact.oppoly_matmul", None),
    ("exact", "OpPoly", "eval_at", "exact.oppoly_eval", None),
]

ROOT = "case"
REALIZE = "liealg_bcd.realize"
CLOSURE = "yangian.algebra_closure"

ELIMINATION = ("exact.rref", "exact.solve_in_span", "exact.nullspace", "exact.rank")

# spans whose call count is reported, and spans with a summed count value
_CALLS = set(ELIMINATION) | {
    "exact.sparse_matmul", "exact.sparse_add", "exact.sparse_scale",
    "exact.oppoly_matmul", "exact.oppoly_eval", "patterns.enumerate",
    "branching.weyl_dim", "gln.quantum_minor", "liealg_bcd.apply_z"}
_COUNTED = {"exact.rref": "cells", "exact.sparse_matmul": "nnz_in",
            "patterns.enumerate": "patterns_out"}


class Tracer:
    """Span store of one child process."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._seen_modules = {}
        self._seen_args = set()

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        return idx, parent

    def wrap(self, name, fn, value=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                v = value(args, out) if value and out is not None else None
                self.spans[idx] = (name, t0, t1, parent, v)
        return traced

    def wrap_realize(self, fn):
        """HWModule.realize: the value flags the first call on each module
        (it builds the algebra span) and an argument not seen before on
        that module."""
        @functools.wraps(fn)
        def traced(module, real_mat, *args, **kwargs):
            first = id(module) not in self._seen_modules
            self._seen_modules[id(module)] = module     # keeps ids unique
            key = (id(module), real_mat.nrows, real_mat.ncols,
                   tuple(sorted(real_mat.entries.items())))
            new = key not in self._seen_args
            self._seen_args.add(key)
            idx, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(module, real_mat, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (REALIZE, t0, t1, parent, [int(first), int(new)])
        return traced

    def run_case(self, fn):
        """Call fn under the root span of the case."""
        return self.wrap(ROOT, fn)()

    def install(self):
        mods = {name[len("gtbases."):]: mod for name, mod in sys.modules.items()
                if name.startswith("gtbases.")}
        namespaces = list(mods.values()) + [sys.modules["gtbases"]]
        for modname, attr, name, value in FUNCTIONS:
            orig = getattr(mods[modname], attr)
            traced = self.wrap(name, orig, value)
            bound = 0
            for ns in namespaces:
                for key, obj in list(vars(ns).items()):
                    if obj is orig:
                        setattr(ns, key, traced)
                        bound += 1
            if not bound:
                raise RuntimeError("no binding of %s.%s" % (modname, attr))
        for modname, cls, meth, name, value in METHODS:
            klass = getattr(mods[modname], cls)
            setattr(klass, meth, self.wrap(name, klass.__dict__[meth], value))
        hw = mods["liealg_bcd.construction"].HWModule
        hw.realize = self.wrap_realize(hw.__dict__["realize"])

    def export(self, origin):
        """Spans as JSON-ready lists, times relative to origin."""
        return [[n, round(t0 - origin, 7), round(t1 - origin, 7), p, v]
                for n, t0, t1, p, v in self.spans]


MODULES = ("exact", "patterns", "branching", "gln", "liealg_bcd", "yangian", "cli")


def span_names():
    """Traced span names, grouped by module."""
    names = [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS] + [REALIZE]
    return sorted(dict.fromkeys(names), key=lambda n: MODULES.index(n.split(".")[0]))


def metric_names():
    """Every per-layer metric of a traced run, in report order."""
    out = []
    for name in span_names():
        if name == REALIZE:
            out += [name + ".calls", name + ".first_s", name + ".rest_s",
                    name + ".distinct_frac"]
        elif name == CLOSURE:
            out += [name + ".self_s", name + ".products", name + ".dim",
                    name + ".kept_frac"]
        elif ".check." in name or name.endswith(("_check", "_checks")):
            out.append(name + ".s")     # a check: its inclusive time
        else:
            if name in _CALLS:
                out.append(name + ".calls")
            out.append(name + ".self_s")
            if name in _COUNTED:
                out.append(name + "." + _COUNTED[name])
    return out + ["cli.export.bytes", "trace.overhead_s"]



def metric_unit(name):
    last = name.rsplit(".", 1)[1]
    if last in ("self_s", "s", "first_s", "rest_s", "overhead_s"):
        return "s"
    if last.endswith("_frac"):
        return "ratio"
    if last == "bytes":
        return "bytes"
    return "count"


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [t1 - t0 for _, t0, t1, _, _ in spans]
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def under(spans, name):
    """Per-span flag: the span or one of its ancestors is called name."""
    flags = []
    for n, _, _, parent, _ in spans:
        flags.append(n == name or (parent >= 0 and flags[parent]))
    return flags


def layer_metrics(case_spans):
    """Per-layer metrics summed over the spans of a list of cases."""
    calls, self_s, incl, counted = {}, {}, {}, {}
    realize = {"first_s": 0.0, "rest_s": 0.0, "new": 0}
    closure = {"products": 0, "dim": 0, "added": 0}
    for spans in case_spans:
        own = self_times(spans)
        in_closure = under(spans, CLOSURE)
        for i, (n, t0, t1, parent, value) in enumerate(spans):
            calls[n] = calls.get(n, 0) + 1
            self_s[n] = self_s.get(n, 0.0) + own[i]
            incl[n] = incl.get(n, 0.0) + (t1 - t0)
            if n in _COUNTED and value is not None:
                counted[n] = counted.get(n, 0) + value
            if n == REALIZE:
                realize["first_s" if value[0] else "rest_s"] += t1 - t0
                realize["new"] += value[1]
            elif n == CLOSURE and value is not None:
                closure["dim"] += value[0]
                closure["added"] += value[1]
            elif n == "exact.sparse_matmul" and in_closure[i]:
                closure["products"] += 1
    out = {}
    for name in metric_names():
        span, _, last = name.rpartition(".")
        if span == REALIZE:
            n = calls.get(REALIZE, 0)
            out[name] = {"calls": n, "first_s": realize["first_s"],
                         "rest_s": realize["rest_s"],
                         "distinct_frac": realize["new"] / n if n else 0.0}[last]
        elif span == CLOSURE and last != "self_s":
            p = closure["products"]
            out[name] = {"products": p, "dim": closure["dim"],
                         "kept_frac": closure["added"] / p if p else 0.0}[last]
        elif last == "calls":
            out[name] = calls.get(span, 0)
        elif last == "self_s":
            out[name] = self_s.get(span, 0.0)
        elif last == "s":
            out[name] = incl.get(span, 0.0)
        elif span in _COUNTED:
            out[name] = counted.get(span, 0)
    return out


# Bucket of each span name for the target-layer check: the exact module is
# split into its elimination kernel and its products.
def bucket(name):
    if name in ELIMINATION:
        return "exact.elimination"
    if name.startswith("exact."):
        return "exact.products"
    return name.split(".")[0]


def self_time_shares(case_spans, target_names, target_subtree=None):
    """Self time per bucket as a share of all traced time.

    Spans named in target_names, and every span at or below one for which
    target_subtree(name, value) holds, count toward the bucket "target";
    the rest go to bucket(name).  Root self time, outside every layer, is
    "unattributed".
    """
    total, shares = 0.0, {}
    for spans in case_spans:
        own = self_times(spans)
        inside = []
        for i, (n, t0, t1, parent, value) in enumerate(spans):
            inside.append(bool(target_subtree and target_subtree(n, value))
                          or (parent >= 0 and inside[parent]))
            if n == ROOT:
                key = "unattributed"
                total += t1 - t0
            elif inside[i] or n in target_names:
                key = "target"
            else:
                key = bucket(n)
            shares[key] = shares.get(key, 0.0) + own[i]
    return {k: v / total for k, v in shares.items()} if total else {}
