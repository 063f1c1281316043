"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every place the
package binds it (the defining module and every module that imported
it by name), so calls between modules go through the wrapper without
any change to the package. A function that no longer exists is listed
in ``absent`` and its metrics are reported as absent.

A span is ``(id, name, start, end, parent, thread, note)``. The parent
is the innermost open span on the same thread; a span opened on a
worker thread of the ``--jobs`` pool has the CLI invocation as parent.
Spans are kept in memory and written once by the caller.
"""

import functools
import itertools
import os
import sys
import threading
import time


def _dim(args, kwargs, result):
    a = args[0] if args else next(iter(kwargs.values()))
    shape = getattr(a, "shape", None)
    return int(shape[0]) if shape else 1


def _csv_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _sim_counts(args, kwargs, result):
    sched = result.schedule
    return {"grid_steps": int(round(sched.horizon / sched.grid_h)),
            "intervals": int(result.modes.shape[0]),
            "output_rows": int(result.times.shape[0])}


# span name -> (defining module, function name, note taken from the call)
TARGETS = {
    "scenario.load_scenario": ("leadersync.scenario", "load_scenario", None),
    "scenario.load_model": ("leadersync.scenario", "load_model", None),
    "graph.signal_mode": ("leadersync.graph", "signal_mode", None),
    "graph.leader_reachable": ("leadersync.graph", "leader_reachable", None),
    "graph.build_H": ("leadersync.graph", "build_H", None),
    "synthesis.find_common_D": ("leadersync.synthesis", "find_common_D", None),
    "synthesis.margin_eval": ("leadersync.synthesis", "_definiteness_margin",
                              None),
    "synthesis.synthesize": ("leadersync.synthesis", "synthesize", None),
    "synthesis.worst_case_params": ("leadersync.synthesis",
                                    "worst_case_params", None),
    "numerics.sym_eig_extremes": ("leadersync.numerics.linalg",
                                  "sym_eig_extremes", _dim),
    "numerics.spectral_norm": ("leadersync.numerics.linalg", "spectral_norm",
                               None),
    "numerics.expm": ("leadersync.numerics.linalg", "expm", _dim),
    "numerics.solve_care": ("leadersync.numerics.linalg", "solve_care", None),
    "sim.gen_schedule": ("leadersync.sim", "gen_schedule", None),
    "sim.simulate": ("leadersync.sim", "simulate", _sim_counts),
    "sim.lyapunov_trace": ("leadersync.sim", "lyapunov_trace", None),
    "sim.write_trajectory_csv": ("leadersync.sim", "write_trajectory_csv",
                                 _csv_bytes),
    "sim.write_schedule_csv": ("leadersync.sim", "write_schedule_csv",
                               _csv_bytes),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._bindings = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, note):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            extra = None
            if note is not None:
                try:
                    extra = note(args, kwargs, result)
                except (AttributeError, LookupError, OSError, TypeError):
                    pass
            spans.append((sid, name, t0, t1, parent,
                          threading.get_ident(), extra))
            return result
        return traced

    def install(self):
        """Bind every target's wrapper wherever the package binds it."""
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "leadersync"
                                      or k.startswith("leadersync."))]
        for name, (modname, attr, note) in TARGETS.items():
            home = sys.modules.get(modname)
            fn = getattr(home, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, note)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._bindings.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._bindings):
            setattr(mod, key, fn)
        self._bindings.clear()

    def invocation(self, label):
        """Context manager for one CLI call: the root of its spans."""
        return _Invocation(self, label)


class _Invocation:
    def __init__(self, tracer, label):
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        tr = self.tracer
        self.sid = next(tr._ids)
        tr._root = self.sid
        tr._stack().append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = time.perf_counter()
        tr._stack().pop()
        tr._root = 0
        tr.spans.append((self.sid, "cli", self.t0, t1, 0,
                         threading.get_ident(), self.label))
        return False


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans, absent=()):
    """Per-layer totals for one pass: times in s, counts, sizes. A
    metric that needs an absent function, or a note that could not be
    taken, is None."""
    children = {}
    by_id = {}
    for sp in spans:
        by_id[sp[0]] = sp
        children.setdefault(sp[4], []).append((sp[2], sp[3]))

    def need(*names):
        return not any(n in absent for n in names)

    def of(name):
        return [sp for sp in spans if sp[1] == name]

    def self_time(name):
        if not need(name):
            return None
        return sum(sp[3] - sp[2] - _covered(children.get(sp[0], ()))
                   for sp in of(name))

    def total(name):
        return sum(sp[3] - sp[2] for sp in of(name)) if need(name) else None

    def calls(name):
        return len(of(name)) if need(name) else None

    def notes(*names):
        found = [sp[6] for n in names for sp in of(n)]
        if not need(*names) or None in found:
            return None
        return found

    def max_note(name):
        found = notes(name)
        return None if found is None else max(found, default=0)

    def sim_count(key):
        found = notes("sim.simulate")
        return None if found is None else sum(n[key] for n in found)

    def under(sp, ancestor):
        parent = sp[4]
        while parent:
            up = by_id.get(parent)
            if up is None:
                return False
            if up[1] == ancestor:
                return True
            parent = up[4]
        return False

    csv = notes("sim.write_trajectory_csv", "sim.write_schedule_csv")
    margin_evals = None
    if need("synthesis.find_common_D", "synthesis.margin_eval"):
        margin_evals = sum(1 for sp in of("synthesis.margin_eval")
                           if under(sp, "synthesis.find_common_D"))
    return {
        "cli.self_s": self_time("cli"),
        "scenario.load_scenario_s": total("scenario.load_scenario"),
        "graph.signal_mode_s": total("graph.signal_mode"),
        "graph.signal_mode.calls": calls("graph.signal_mode"),
        "graph.leader_reachable.calls": calls("graph.leader_reachable"),
        "synthesis.find_common_D_s": total("synthesis.find_common_D"),
        "synthesis.find_common_D.margin_evals": margin_evals,
        "synthesis.synthesize_s": total("synthesis.synthesize"),
        "synthesis.worst_case_params_s": total("synthesis.worst_case_params"),
        "numerics.sym_eig_extremes_s": total("numerics.sym_eig_extremes"),
        "numerics.sym_eig_extremes.calls": calls("numerics.sym_eig_extremes"),
        "numerics.sym_eig_extremes.max_dim":
            max_note("numerics.sym_eig_extremes"),
        "numerics.spectral_norm_s": total("numerics.spectral_norm"),
        "numerics.spectral_norm.calls": calls("numerics.spectral_norm"),
        "numerics.expm_s": total("numerics.expm"),
        "numerics.expm.calls": calls("numerics.expm"),
        "numerics.expm.max_dim": max_note("numerics.expm"),
        "numerics.solve_care_s": total("numerics.solve_care"),
        "sim.gen_schedule_s": total("sim.gen_schedule"),
        "sim.simulate.self_s": self_time("sim.simulate"),
        "sim.grid_steps": sim_count("grid_steps"),
        "sim.intervals": sim_count("intervals"),
        "sim.output_rows": sim_count("output_rows"),
        "sim.lyapunov_trace_s": total("sim.lyapunov_trace"),
        "sim.write_trajectory_csv_s": total("sim.write_trajectory_csv"),
        "sim.write_schedule_csv_s": total("sim.write_schedule_csv"),
        "sim.csv_bytes": None if csv is None else sum(csv),
    }
