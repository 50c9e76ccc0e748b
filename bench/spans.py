"""Spans around the package's public functions, recorded from outside.

`Tracer.install()` replaces every public function of the layer modules,
and `cli.main`, by a wrapper at each name a caller sees it under (the
defining module, every other package module that imported it, and the
package namespace).  A wrapper records one span: name, start, end, the
span open on the same thread when it started (its parent) and the job
id.  `Tracer.remove()` puts every original back.  Spans stay in memory
until `write()`.

Self time is a span's duration minus the durations of its children.
Children run on the caller's thread inside the parent's interval and do
not overlap each other, so that difference is exactly the part of the
interval no child covers, and the self times of all spans add up to the
durations of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import warnings
from time import perf_counter

LAYERS = ("coeffs", "spectral", "hypergeom", "analytic", "ensemble", "dynamics", "cli")
# modules whose namespaces may hold a public function under another name
NAMESPACES = ("betajacobi",) + tuple(
    f"betajacobi.{m}" for m in LAYERS + ("acceptance",)
)
POLYNOMIALS = frozenset(
    f"analytic.{f}"
    for f in ("recurrence_rn", "wimp_rn", "pn_recurrence", "pn_combination", "pn_explicit")
)


def public_functions() -> dict[str, object]:
    """Span name -> original function, for every traced entry point."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"betajacobi.{layer}")
        names = ("main",) if layer == "cli" else mod.__all__
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = fn
    return out


def attribute_snapshot() -> dict[tuple[str, str], int]:
    """id() of every function attribute in the package namespaces."""
    snap = {}
    for modname in NAMESPACES:
        mod = importlib.import_module(modname)
        for attr, val in vars(mod).items():
            if inspect.isfunction(val):
                snap[(modname, attr)] = id(val)
    return snap


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counters taken at the call boundary: name -> f(fn, args, kwargs,
# result, exc, caught_warnings) -> dict of numbers for that span.
def _note_stieltjes_cf(fn, args, kwargs, result, exc, caught):
    import numpy as np

    a = _bind(fn, args, kwargs)
    points = int(np.size(a["z"]))
    halving = 1.5 if a["warn_tol"] is not None else 1.0
    return {
        "levels": int(a["depth"]) * points * halving,
        "warnings": sum(1 for w in caught if w.category.__name__ == "ConvergenceWarning"),
    }


def _note_hyp2f1(fn, args, kwargs, result, exc, caught):
    return {"unsupported": int(type(exc).__name__ == "UnsupportedRegionError")}


def _note_stieltjes_auto(fn, args, kwargs, result, exc, caught):
    return {"closed": int(exc is None and result[1] == "closed")}


def _note_mc_moments(fn, args, kwargs, result, exc, caught):
    return {"trials": int(_bind(fn, args, kwargs)["trials"])}


def _note_simulate_moments(fn, args, kwargs, result, exc, caught):
    a = _bind(fn, args, kwargs)
    steps = int(round(a["t_end"] / a["dt"]))
    return {"steps": steps, "particle_steps": steps * int(a["n"]) * int(a["paths"])}


def _note_integrate_moments(fn, args, kwargs, result, exc, caught):
    a = _bind(fn, args, kwargs)
    return {"steps": int(round(a["t_end"] / a["dt"]))}


NOTES = {
    "spectral.stieltjes_cf": _note_stieltjes_cf,
    "hypergeom.hyp2f1": _note_hyp2f1,
    "analytic.stieltjes_auto": _note_stieltjes_auto,
    "ensemble.mc_moments": _note_mc_moments,
    "dynamics.simulate_moments": _note_simulate_moments,
    "dynamics.integrate_moments": _note_integrate_moments,
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent, job)
        self.notes: dict[int, dict] = {}
        self.job = ""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(idx)
            result = exc = None
            caught = ()
            t0 = perf_counter()
            try:
                if name == "spectral.stieltjes_cf":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.job)
                if note is not None:
                    tracer.notes[idx] = note(fn, args, kwargs, result, exc, caught)

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = public_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for modname in NAMESPACES:
            mod = importlib.import_module(modname)
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, w)

    def remove(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def write(self, path: str) -> None:
        """One JSON object per line: name, start, end, parent, job, notes."""
        base = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                rec = {
                    "id": i, "name": name, "start": t0 - base, "end": t1 - base,
                    "parent": parent, "job": job,
                }
                if i in self.notes:
                    rec["notes"] = self.notes[i]
                fh.write(json.dumps(rec) + "\n")


def summarize(spans: list, notes: dict) -> dict:
    """Per-name totals: calls, inclusive time (outermost spans of the
    name only, so recursion is not counted twice), self time, notes."""
    n = len(spans)
    child = [0.0] * n
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    # ancestor-name sets, interned; parents always precede children
    anc: list = [frozenset()] * n
    cache: dict = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            key = (anc[parent], spans[parent][0])
            s = cache.get(key)
            if s is None:
                s = cache[key] = key[0] | {key[1]}
            anc[i] = s
    out: dict[str, dict] = {}
    root_time = 0.0
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        d = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        dur = t1 - t0
        d["calls"] += 1
        d["self_s"] += dur - child[i]
        if name not in anc[i]:
            d["time_s"] += dur
        if parent < 0:
            root_time += dur
        for key, val in notes.get(i, {}).items():
            d[key] = d.get(key, 0) + val
    polys = 0.0
    for i, (name, t0, t1, _, _) in enumerate(spans):
        if name in POLYNOMIALS and not (anc[i] & POLYNOMIALS):
            polys += t1 - t0
    return {"by_name": out, "root_time_s": root_time, "polynomials_time_s": polys}


# Per-layer metrics: name -> (unit, better).  The setup.* pair comes from
# the set-up probes and process.* from the untraced passes; the rest from
# the spans of a traced pass.
LAYER_METRICS = {
    "setup.import_pkg_s": ("s", "lower"),
    "setup.import_cli_extra_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "ensemble.mc_moments.calls": ("count", "lower"),
    "ensemble.mc_moments.time_s": ("s", "lower"),
    "ensemble.mc_moments.trials_per_s": ("1/s", "higher"),
    "ensemble.empirical_measure.calls": ("count", "lower"),
    "ensemble.empirical_measure.self_s": ("s", "lower"),
    "ensemble.sample_model.time_s": ("s", "lower"),
    "ensemble.exact_moment.time_s": ("s", "lower"),
    "spectral.eigen_tridiagonal.calls": ("count", "lower"),
    "spectral.eigen_tridiagonal.time_s": ("s", "lower"),
    "spectral.stieltjes_cf.calls": ("count", "lower"),
    "spectral.stieltjes_cf.time_s": ("s", "lower"),
    "spectral.stieltjes_cf.levels_per_s": ("1/s", "higher"),
    "spectral.stieltjes_cf.warnings": ("count", "lower"),
    "spectral.moment11.time_s": ("s", "lower"),
    "coeffs.tridiag_entries.calls": ("count", "lower"),
    "coeffs.tridiag_entries.time_s": ("s", "lower"),
    "hypergeom.hyp2f1.calls": ("count", "lower"),
    "hypergeom.hyp2f1.time_s": ("s", "lower"),
    "hypergeom.hyp2f1.us_per_call": ("us", "lower"),
    "hypergeom.hyp2f1.unsupported_ratio": ("1", "lower"),
    "analytic.stieltjes_auto.closed_ratio": ("1", "higher"),
    "analytic.density_closed.time_s": ("s", "lower"),
    "analytic.density_numeric.time_s": ("s", "lower"),
    "analytic.polynomials.time_s": ("s", "lower"),
    "dynamics.simulate_moments.time_s": ("s", "lower"),
    "dynamics.simulate_moments.step_ms": ("ms", "lower"),
    "dynamics.simulate_moments.particle_steps_per_s": ("1/s", "higher"),
    "dynamics.integrate_moments.time_s": ("s", "lower"),
    "dynamics.integrate_moments.rk4_step_us": ("us", "lower"),
    "dynamics.stationary_uk.time_s": ("s", "lower"),
    **{f"layer.{m}.self_s": ("s", "lower") for m in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "process.cpu_s": ("s", "lower"),
    "process.cpu_util": ("1", "higher"),
    "checks.fail_ratio": ("1", "lower"),
    "checks.drawn_err_over_tol": ("1", "lower"),
    "host.reference_ms": ("ms", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """The span-derived per-layer metrics of one traced pass."""
    summary = summarize(tracer.spans, tracer.notes)
    by = summary["by_name"]
    empty = {"calls": 0, "time_s": 0.0, "self_s": 0.0}

    def get(name: str, key: str) -> float:
        return by.get(name, empty).get(key, 0)

    out = {}
    for metric in LAYER_METRICS:
        head, _, key = metric.rpartition(".")
        # "<module>.<function>.<key>"; the derived ones are set below
        if "." in head and not head.startswith("layer.") and key in ("calls", "time_s", "self_s"):
            out[metric] = get(head, key)
    mc_t = get("ensemble.mc_moments", "time_s")
    cf_t = get("spectral.stieltjes_cf", "time_s")
    h_t, h_n = get("hypergeom.hyp2f1", "time_s"), get("hypergeom.hyp2f1", "calls")
    sim_t = get("dynamics.simulate_moments", "time_s")
    rk_t = get("dynamics.integrate_moments", "time_s")
    out.update({
        "ensemble.mc_moments.trials_per_s": _ratio(get("ensemble.mc_moments", "trials"), mc_t),
        "spectral.stieltjes_cf.levels_per_s": _ratio(get("spectral.stieltjes_cf", "levels"), cf_t),
        "spectral.stieltjes_cf.warnings": get("spectral.stieltjes_cf", "warnings"),
        "hypergeom.hyp2f1.us_per_call": 1e6 * _ratio(h_t, h_n),
        "hypergeom.hyp2f1.unsupported_ratio": _ratio(get("hypergeom.hyp2f1", "unsupported"), h_n),
        "analytic.stieltjes_auto.closed_ratio": _ratio(
            get("analytic.stieltjes_auto", "closed"), get("analytic.stieltjes_auto", "calls")),
        "analytic.polynomials.time_s": summary["polynomials_time_s"],
        "dynamics.simulate_moments.step_ms": 1e3 * _ratio(sim_t, get("dynamics.simulate_moments", "steps")),
        "dynamics.simulate_moments.particle_steps_per_s": _ratio(
            get("dynamics.simulate_moments", "particle_steps"), sim_t),
        "dynamics.integrate_moments.rk4_step_us": 1e6 * _ratio(rk_t, get("dynamics.integrate_moments", "steps")),
    })
    for m in LAYERS:
        out[f"layer.{m}.self_s"] = sum(d["self_s"] for n, d in by.items() if n.startswith(m + "."))
    out["trace.wall_s"] = traced_wall
    out["trace.unattributed_s"] = traced_wall - summary["root_time_s"]
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.spans"] = len(tracer.spans)
    return out
