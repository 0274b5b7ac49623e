"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of the seven affinebsde
modules from outside the package: every module-level name that resolves to a
wrapped function is rebound, so a call made through
``affinebsde.simulator.project_and_sqrt_psd_batch`` is traced exactly like one
made through ``affinebsde.symcone.project_and_sqrt_psd_batch``.  Nothing under
``src/`` is edited, and ``uninstall`` restores every binding.

A span is ``[name, parent, start, end, attrs]``; ``parent`` is the enclosing
span of the same thread (or None).  Spans are kept in memory and written out
when the run ends.  Hooks add per-call counters to a span's ``attrs`` at the
boundary where the work happens (matrices clamped, RNG blocks keyed, RK knots
accepted).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict

PACKAGE = "affinebsde"
MODULES = ("symcone", "affine_model", "riccati", "bsde", "simulator", "portfolio", "cli")
# Private simulator helpers traced as layers of their own: the Philox block key
# marks RNG-block boundaries, and the component-arithmetic 2x2 clamp is the
# weak-error worker's counterpart of symcone.project_and_sqrt_psd_batch.  Either
# may disappear in a refactor; the tracer then skips it.
PRIVATE = {"simulator": ("_block_rng", "_proj_sqrt_components_2x2")}

FUNCTIONALS = ("simulator.heston_functionals", "simulator.bns_functionals",
               "simulator.wishart_weak_errors")


def _targets():
    """(span name, target) for everything the tracer wraps.

    A target is a module-level function, or ``(class, attribute, function)``
    for a method.
    """
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                out.append((f"{short}.{name}", obj))
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        out.append((f"{short}.{obj.__name__}.{attr}", (obj, attr, fn)))
        for name in PRIVATE.get(short, ()):
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn):
                out.append((f"{short}.{name}", fn))
    return out


class Tracer:
    """Installs span-recording wrappers; collects spans in memory."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _enclosing(self, names):
        for rec in reversed(self._stack()):
            if rec[0] in names:
                return rec
        return None

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between yields
            # is not charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    st = tracer._stack()
                    rec = [name, st[-1] if st else None, clock(), 0.0, None]
                    spans.append(rec)
                    st.append(rec)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec[3] = clock()
                        st.pop()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._stack()
            rec = [name, st[-1] if st else None, 0.0, 0.0, None]
            spans.append(rec)
            st.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                st.pop()
            if hook is not None:
                hook(tracer, rec, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        wrapped = {}  # id(original function) -> wrapper
        for name, target in _targets():
            if isinstance(target, tuple):
                cls, attr, fn = target
                w = self._wrap(fn, name)
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, w)
            else:
                wrapped[id(target)] = (target, self._wrap(target, name))
        # rebind every module-level name that resolves to a wrapped function
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write spans as JSON lines: id, name, start, end, parent id, attrs."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": None if parent is None else ids[id(parent)],
                    "attrs": attrs,
                }) + "\n")


# -- hooks: counters recorded at the layer boundary ------------------------------------


def _attrs(rec) -> dict:
    if rec[4] is None:
        rec[4] = {}
    return rec[4]


def _count_clamped(tracer, rec, n):
    _attrs(rec)["matrices"] = n
    fun = tracer._enclosing(FUNCTIONALS)
    if fun is not None:
        a = _attrs(fun)
        a["clamp_batch_sum"] = a.get("clamp_batch_sum", 0) + n
        a["clamp_calls"] = a.get("clamp_calls", 0) + 1


def _hook_psd_batch(tracer, rec, fn, args, kwargs, result):
    mats = args[0]
    _count_clamped(tracer, rec, int(mats.size // (mats.shape[-1] * mats.shape[-2])))


def _hook_components_2x2(tracer, rec, fn, args, kwargs, result):
    _count_clamped(tracer, rec, int(len(args[0])))


def _hook_block_rng(tracer, rec, fn, args, kwargs, result):
    fun = tracer._enclosing(FUNCTIONALS)
    if fun is not None:
        a = _attrs(fun)
        a["blocks"] = a.get("blocks", 0) + 1


def _hook_functional(tracer, rec, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    p = bound.arguments
    n_steps = max(int(s) for s in p["steps_list"]) if "steps_list" in p else int(p["n_steps"])
    a = _attrs(rec)
    a["path_steps"] = int(p["n_paths"]) * n_steps
    if a.get("clamp_calls"):
        # every block steps the same batch on each clamp call, so the mean
        # batch times the number of keyed blocks is the paths actually stepped
        mean_batch = a["clamp_batch_sum"] / a["clamp_calls"]
        a["evolved_path_steps"] = int(round(mean_batch * a.get("blocks", 1))) * n_steps
    if hasattr(result, "projection_fraction"):
        a["projection_fraction"] = float(result.projection_fraction)


def _hook_solve_rk(tracer, rec, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    rec[0] = f"riccati.solve_rk.{bound.arguments['method']}"
    _attrs(rec)["knots"] = int(len(result.grid) - 1)


_HOOKS = {
    "symcone.project_and_sqrt_psd_batch": _hook_psd_batch,
    "simulator._proj_sqrt_components_2x2": _hook_components_2x2,
    "simulator._block_rng": _hook_block_rng,
    "riccati.solve_rk": _hook_solve_rk,
}
_HOOKS.update({name: _hook_functional for name in FUNCTIONALS})


# -- analysis --------------------------------------------------------------------------


def layer_table(spans, layers) -> dict:
    """Per span name: calls, busy_s, self_s, and the sums of the numeric attrs.

    busy_s counts each outermost span of a name once (a recursive call is not
    counted twice).  self_s is the duration not covered by nested spans of the
    named ``layers``: an unnamed helper (symmetrize, as_sym, ...) counts toward
    the nearest layer that called it.
    """
    below = defaultdict(float)
    for rec in spans:
        if rec[0] in layers:
            dur = rec[3] - rec[2]
            anc = rec[1]
            while anc is not None:
                below[id(anc)] += dur
                if anc[0] in layers:
                    break
                anc = anc[1]
    table: dict = {}
    for rec in spans:
        name = rec[0]
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dur = rec[3] - rec[2]
        row["calls"] += 1
        row["self_s"] += dur - below.get(id(rec), 0.0)
        for key, val in (rec[4] or {}).items():
            row[key] = row.get(key, 0) + val
        anc = rec[1]
        while anc is not None and anc[0] != name:
            anc = anc[1]
        if anc is None:
            row["busy_s"] += dur
    return table
