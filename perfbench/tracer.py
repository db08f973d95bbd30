"""Run one relatom CLI request with per-layer spans and scipy work counters.

    python perfbench/tracer.py SPANS_OUT.json <relatom argv...>

The benchmark starts this in place of ``python -m relatom.cli`` for traced
runs.  Before calling ``relatom.cli.main(argv)`` it wraps the public
functions named in ``SPANS`` -- in every relatom module namespace and
module-level dict that binds them, so intra-package calls are seen -- and
counts the work done at the scipy boundary that ``relatom.numerics``
calls:

* ``scipy.integrate.quad``: calls, and integrand evaluations (``neval``);
* ``scipy.integrate.solve_ivp``: shots, and RHS evaluations (``nfev``).

Each count goes to the innermost open span.  Spans stay in memory and are
written to SPANS_OUT.json when the request ends; the benchmark process
aggregates them with :func:`aggregate`.  A name in ``SPANS`` that the
package no longer has is listed as absent instead of failing the run.
This module imports no relatom code at import time, so the benchmark
process can use :func:`aggregate` without loading the package.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("cli", "thomas_fermi", "bounds", "semiclassics", "specfun", "kinetic", "checks")
COUNTERS = ("quad_calls", "quad_evals", "ivp_shots", "rhs_evals")

# Named spans: public function paths ``module.qualname`` inside relatom.
# Every other plain function in a layer module's ``__all__`` is wrapped too,
# so each layer's self time is complete; numerics is the counted boundary
# and gets no spans, so its work stays with the caller that asked for it.
SPANS = (
    "cli.main",
    "thomas_fermi.solve",
    "bounds.mean_field_constant_routes",
    "bounds.assemble_error_budget",
    "bounds.Partition.grad_sup",
    "semiclassics.domain_change_error",
    "semiclassics.CoherentSpec.reference",
    "specfun.k2",
    "bounds.kernel_offdiag_numeric",
    "kinetic.daubechies_F",
    "bounds.daubechies_eigenvalue_sum_bound",
    "semiclassics.coherent_potential_check",
    "checks.check_numerics",
    "checks.check_specfun",
    "checks.check_kinetic",
    "checks.check_thomas_fermi",
    "checks.check_coherent",
    "checks.check_identity",
    "checks.check_bounds",
)

# span record: [name, parent index, start, end, *COUNTERS]
_NAME, _PARENT, _START, _END, _C0 = 0, 1, 2, 3, 4


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.outside = [0] * len(COUNTERS)   # work done with no span open
        self.scipy_s = 0.0

    def count(self, k, n):
        if self.stack:
            self.spans[self.stack[-1]][_C0 + k] += n
        else:
            self.outside[k] += n

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()

        traced.__wrapped_by_tracer__ = True
        return traced

    def wrap_scipy(self, integrate):
        real_quad, real_ivp = integrate.quad, integrate.solve_ivp
        rec = self

        @functools.wraps(real_quad)
        def quad(func, a, b, *args, **kwargs):
            t0 = time.perf_counter()
            if kwargs.get("full_output"):
                out = real_quad(func, a, b, *args, **kwargs)
                evals = out[2]["neval"]
            else:   # count evaluations without changing what the caller gets
                n = [0]

                def counted(*xs):
                    n[0] += 1
                    return func(*xs)

                out = real_quad(counted, a, b, *args, **kwargs)
                evals = n[0]
            rec.scipy_s += time.perf_counter() - t0
            rec.count(0, 1)
            rec.count(1, int(evals))
            return out

        @functools.wraps(real_ivp)
        def solve_ivp(*args, **kwargs):
            t0 = time.perf_counter()
            sol = real_ivp(*args, **kwargs)
            rec.scipy_s += time.perf_counter() - t0
            rec.count(2, 1)
            rec.count(3, int(sol.nfev))
            return sol

        integrate.quad, integrate.solve_ivp = quad, solve_ivp


def _resolve(path):
    """(owner, attribute, raw attribute) for ``module.qualname``, or None."""
    module, *chain = path.split(".")
    try:
        owner = importlib.import_module(f"relatom.{module}")
    except ImportError:
        return None
    for attr in chain[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(chain[-1]) if isinstance(owner, type) else getattr(owner, chain[-1], None)
    if raw is None:
        return None
    return owner, chain[-1], raw


def _public_functions():
    """Plain functions listed in each layer module's ``__all__``."""
    names = []
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"relatom.{layer}")
        except ImportError:
            continue
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if callable(obj) and not isinstance(obj, type) and not attr.startswith("_"):
                names.append(f"{layer}.{attr}")
    return names


def install(recorder):
    """Wrap every span target; returns the SPANS names that were not found."""
    import relatom.cli  # noqa: F401  -- loads every layer module

    modules = [m for n, m in sys.modules.items() if n == "relatom" or n.startswith("relatom.")]
    absent = []
    for path in dict.fromkeys(SPANS + tuple(_public_functions())):
        found = _resolve(path)
        if found is None:
            if path in SPANS:
                absent.append(path)
            continue
        owner, attr, raw = found
        if isinstance(owner, type):   # a method: patch the class attribute
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(recorder.wrap(path, raw.__func__)))
            elif callable(raw):
                setattr(owner, attr, recorder.wrap(path, raw))
            else:
                absent.append(path)
            continue
        if not callable(raw) or getattr(raw, "__wrapped_by_tracer__", False):
            continue
        traced = recorder.wrap(path, raw)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is raw:
                    setattr(mod, key, traced)
                elif type(val) is dict:
                    for k, v in list(val.items()):
                        if v is raw:
                            val[k] = traced
    import scipy.integrate

    recorder.wrap_scipy(scipy.integrate)
    return absent


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    absent = install(recorder)
    import relatom.cli

    code = 1
    try:
        code = relatom.cli.main(cli_argv)
    finally:
        doc = {
            "absent": absent,
            "scipy_s": recorder.scipy_s,
            "outside_counts": dict(zip(COUNTERS, recorder.outside)),
            "spans": recorder.spans,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


def aggregate(docs):
    """Per-span-name and per-layer totals over the span files of a run.

    ``<span>.self_s`` is the span's duration minus the time its child spans
    cover; counters are the work done while it was the innermost open span.
    Named ``SPANS`` also keep ``call_s``, each call's duration with children.
    """
    per_span = {}
    per_layer = {layer: {"self_s": 0.0, **{c: 0 for c in COUNTERS}} for layer in LAYERS}
    totals = {"scipy_s": 0.0, **{c: 0 for c in COUNTERS}}
    absent = set()
    for doc in docs:
        absent.update(doc["absent"])
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child_time[rec[_PARENT]] += rec[_END] - rec[_START]
        for i, rec in enumerate(spans):
            name = rec[_NAME]
            agg = per_span.setdefault(name, {"calls": 0, "self_s": 0.0, **{c: 0 for c in COUNTERS}})
            self_s = rec[_END] - rec[_START] - child_time[i]
            agg["calls"] += 1
            agg["self_s"] += self_s
            if name in SPANS:   # per-call wall time, children included
                agg.setdefault("call_s", []).append(rec[_END] - rec[_START])
            layer = per_layer.setdefault(name.split(".")[0], {"self_s": 0.0, **{c: 0 for c in COUNTERS}})
            layer["self_s"] += self_s
            for k, c in enumerate(COUNTERS):
                agg[c] += rec[_C0 + k]
                layer[c] += rec[_C0 + k]
                totals[c] += rec[_C0 + k]
        for c in COUNTERS:
            totals[c] += doc["outside_counts"][c]
        totals["scipy_s"] += doc["scipy_s"]
    return {"spans": per_span, "layers": per_layer, "numerics": totals, "absent": sorted(absent)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
