"""Span tracer for the traced benchmark run.

Wrappers are installed on fracoc's public names at the module attribute
where each caller looks them up, so the library itself is not edited.  A
span records (id, name, start, end, parent id, op id, self seconds); self
time is the span's duration minus its child spans and minus the
callbacks that ran directly under it.  Per-node callbacks (march right-hand
sides, problem callbacks, group maps, closed-form references and
``Grid.index_of``) are only counted and timed in aggregate, which keeps
the span log small.  Wrappers pass straight through while the tracer is
inactive, so set-up and oracle checks leave no spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from time import perf_counter

# (module, attribute, span name).  The span name is the defining module and
# function, whatever module the caller looks the name up in.
SPAN_SITES = (
    ("fracoc.cli", "run_solve", "cli.run_solve"),
    ("fracoc.cli", "run_converge", "cli.run_converge"),
    ("fracoc.cli", "run_noether", "cli.run_noether"),
    ("fracoc.cli", "solve_pontryagin", "pontryagin.solve_pontryagin"),
    ("fracoc.cli", "conserved_quantity", "noether.conserved_quantity"),
    ("fracoc.cli", "max_control_error", "reference.max_control_error"),
    ("fracoc.cli", "convergence_order", "reference.convergence_order"),
    ("fracoc.pontryagin", "solve_pontryagin", "pontryagin.solve_pontryagin"),
    ("fracoc.pontryagin", "state_solve", "pontryagin.state_solve"),
    ("fracoc.pontryagin", "adjoint_solve", "pontryagin.adjoint_solve"),
    ("fracoc.pontryagin", "stationarity_residual", "pontryagin.stationarity_residual"),
    ("fracoc.pontryagin", "gateaux_derivative", "pontryagin.gateaux_derivative"),
    ("fracoc.pontryagin", "delta_minus", "gl_ops.delta_minus"),
    ("fracoc.pontryagin", "delta_plus", "gl_ops.delta_plus"),
    ("fracoc.noether", "conserved_quantity", "noether.conserved_quantity"),
    ("fracoc.noether", "transfer_residual", "noether.transfer_residual"),
    ("fracoc.noether", "invariance_residual", "noether.invariance_residual"),
    ("fracoc.noether", "delta_minus", "gl_ops.delta_minus"),
    ("fracoc.noether", "delta_plus", "gl_ops.delta_plus"),
    ("fracoc.noether", "gl_coefficients", "gl_ops.gl_coefficients"),
    ("fracoc.frac_cauchy", "gl_coefficients", "gl_ops.gl_coefficients"),
    ("fracoc.gl_ops", "gl_coefficients", "gl_ops.gl_coefficients"),
)
MARCH_SITES = (
    ("fracoc.pontryagin", "solve_left_cauchy", "frac_cauchy.solve_left_cauchy"),
    ("fracoc.pontryagin", "solve_right_cauchy", "frac_cauchy.solve_right_cauchy"),
    ("fracoc.frac_cauchy", "solve_left_cauchy", "frac_cauchy.solve_left_cauchy"),
    ("fracoc.frac_cauchy", "solve_right_cauchy", "frac_cauchy.solve_right_cauchy"),
)
PROBLEM_SITES = (
    ("fracoc.cli", "build_example", "problems.build_example"),
    ("fracoc.problems", "build_example", "problems.build_example"),
)
COUNTED_SITES = (
    ("fracoc.cli", "lq_exact_control", "reference.lq_exact_control"),
    ("fracoc.cli", "solved_example_exact_control",
     "reference.solved_example_exact_control"),
    ("fracoc.reference", "mittag_leffler", "reference.mittag_leffler"),
    ("fracoc.gl_ops.Grid", "index_of", "gl_ops.Grid.index_of"),
)
RHS = "frac_cauchy.rhs"
PROBLEM_CALLBACK = "pontryagin.callback"
GROUP_MAP = "noether.group_map"


def _resolve(path: str):
    """Module or class object for a dotted path, or None if it is gone."""
    try:
        return importlib.import_module(path)
    except ImportError:
        parent, _, attr = path.rpartition(".")
        if not parent:
            return None
        owner = _resolve(parent)
        return getattr(owner, attr, None) if owner is not None else None


class Tracer:
    """Spans and aggregate callback counts of one traced process."""

    def __init__(self):
        self.spans = []       # (id, name, start, end, parent, op, self_s)
        self.stack = []       # open frames: [id, name, child_s, callback_s, in_callback]
        self.agg = {}         # callback name -> [calls, seconds]
        self.marches = []     # (parent span name, nodes, dim, rhs evals)
        self.outer_iters = 0
        self.absent = set()   # span or callback names whose site is missing
        self.present = set()
        self.op = None
        self.in_callback = False
        self._next_id = 0

    @property
    def active(self) -> bool:
        return self.op is not None

    # -- wrappers -----------------------------------------------------------
    def span(self, name, fn, after=None):
        tracer = self

        def wrapped(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [sid, name, 0.0, 0.0, tracer.in_callback]
            tracer.in_callback = False
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.in_callback = frame[4]
                dur = end - start
                tracer.spans.append((sid, name, start, end, parent, tracer.op,
                                     dur - frame[2] - frame[3]))
                # a span opened inside a callback is already inside that
                # callback's aggregate time
                if tracer.stack and not frame[4]:
                    tracer.stack[-1][2] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapped

    def counted(self, name, fn):
        tracer = self
        slot = self.agg.setdefault(name, [0, 0.0])

        def wrapped(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            outer = not tracer.in_callback
            tracer.in_callback = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                slot[0] += 1
                slot[1] += dur
                if outer:
                    tracer.in_callback = False
                    if tracer.stack:
                        tracer.stack[-1][3] += dur

        return wrapped

    def march(self, name, fn):
        """Span around a Cauchy march that also counts its rhs evaluations."""
        tracer = self
        slot = self.agg.setdefault(RHS, [0, 0.0])

        def with_counted_rhs(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            args = list(args)
            if len(args) > 2:
                args[2] = tracer.wrap_rhs(args[2])
            for key in ("rhs", "rhs_shifted"):
                if key in kwargs:
                    kwargs[key] = tracer.wrap_rhs(kwargs[key])
            parent = tracer.stack[-2][1] if len(tracer.stack) > 1 else None
            before = slot[0]
            result = fn(*args, **kwargs)
            grid = args[1] if len(args) > 1 else kwargs.get("grid")
            values = getattr(result, "values", None)
            if grid is not None and values is not None:
                tracer.marches.append((parent, int(grid.n), int(values.shape[1]),
                                       slot[0] - before))
            return result

        return self.span(name, with_counted_rhs)

    def wrap_rhs(self, rhs):
        if callable(rhs):
            return self.counted(RHS, rhs)
        if dataclasses.is_dataclass(rhs) and callable(getattr(rhs, "eval", None)):
            return dataclasses.replace(rhs, eval=self.counted(RHS, rhs.eval))
        return rhs

    def wrap_callbacks(self, obj, name):
        """Copy of a frozen dataclass with every callable field counted."""
        changes = {f.name: self.counted(name, getattr(obj, f.name))
                   for f in dataclasses.fields(obj)
                   if callable(getattr(obj, f.name))}
        return dataclasses.replace(obj, **changes)

    def wrap_groups(self, groups):
        return tuple(dataclasses.replace(g, map=self.counted(GROUP_MAP, g.map))
                     for g in groups)

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        def count_outer(args, kwargs, result):
            self.outer_iters += int(getattr(result, "outer_iters", 0))

        def problem_callbacks(fn):
            return lambda *a, **kw: self.wrap_callbacks(fn(*a, **kw), PROBLEM_CALLBACK)

        for module, attr, name in SPAN_SITES:
            after = count_outer if name == "pontryagin.solve_pontryagin" else None
            self._patch(module, attr, name, lambda fn, n=name, a=after: self.span(n, fn, a))
        for module, attr, name in MARCH_SITES:
            self._patch(module, attr, name, lambda fn, n=name: self.march(n, fn))
        for module, attr, name in PROBLEM_SITES:
            self._patch(module, attr, name,
                        lambda fn, n=name: self.span(n, problem_callbacks(fn)))
        for module, attr, name in COUNTED_SITES:
            self._patch(module, attr, name, lambda fn, n=name: self.counted(n, fn))
        self.absent -= self.present

    def _patch(self, owner_path, attr, name, make) -> None:
        owner = _resolve(owner_path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.absent.add(name)
            return
        self.present.add(name)
        setattr(owner, attr, make(fn))

    # -- output -------------------------------------------------------------
    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "callbacks": self.agg, "marches": self.marches,
                       "absent": sorted(self.absent)}, fh)

    def layer_values(self, passes: int) -> dict:
        """Per-pass totals by metric name; names whose site is gone are left out."""
        out = {}
        for name in self.present:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for _, name, start, end, _, _, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += self_s
        for name, (calls, secs) in self.agg.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = secs
        out = {k: v / passes for k, v in out.items()}

        def ratio(a, b):
            return a / b if b else 0.0

        def per_node(parent):
            runs = [m for m in self.marches if m[0] == parent]
            return ratio(sum(m[3] for m in runs), sum(m[1] for m in runs))

        nodes = sum(m[1] for m in self.marches) / passes
        terms = sum(m[2] * m[1] * (m[1] - 1) / 2 for m in self.marches) / passes
        rhs_calls, rhs_s = out.get(f"{RHS}.calls", 0), out.get(f"{RHS}.s", 0.0)
        march_self = (out.get("frac_cauchy.solve_left_cauchy.self_s", 0.0)
                      + out.get("frac_cauchy.solve_right_cauchy.self_s", 0.0))
        out.update({
            "pontryagin.outer_iters": self.outer_iters / passes,
            "pontryagin.s_per_outer_iter": ratio(
                out.get("pontryagin.solve_pontryagin.s", 0.0),
                self.outer_iters / passes),
            "pontryagin.callback_calls": out.get(f"{PROBLEM_CALLBACK}.calls", 0),
            "pontryagin.callback_s": out.get(f"{PROBLEM_CALLBACK}.s", 0.0),
            "pontryagin.state_evals_per_node": per_node("pontryagin.state_solve"),
            "pontryagin.adjoint_evals_per_node": per_node("pontryagin.adjoint_solve"),
            "frac_cauchy.rhs_evals": rhs_calls,
            "frac_cauchy.rhs_s": rhs_s,
            "frac_cauchy.rhs_evals_per_node": ratio(rhs_calls, nodes),
            "frac_cauchy.nodes": nodes,
            "frac_cauchy.history_terms": terms,
            "frac_cauchy.ns_per_history_term": 1e9 * ratio(march_self, terms),
            "noether.group_map_calls": out.get(f"{GROUP_MAP}.calls", 0),
        })
        return out
