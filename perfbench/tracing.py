"""Layer tracing from outside the package.

`Tracer.install` rebinds module attributes at the call sites that asplan
itself uses, so the wrapped functions are the ones the solver and oracle
call.  Coarse boundaries (solve, bracket, Nelder-Mead run, max-phi solve,
`solve_crisp`, Monte-Carlo case, table check, disposition, CLI call) record
spans; hot leaves (triprobs, weighted survival, normal CDF, oscillatory
pair, closure evaluations) keep only a count and summed busy time, so
millions of calls add no memory.  Busy times are inclusive: a
triprob's busy time contains the weighted-survival calls it makes.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from asplan import disposition, fuzzyopt, lifemodel, oracle, plans
from asplan.errors import InfeasibleError

_clock = time.perf_counter

TRIPROB_FAMILIES = ("ssp", "rgsp_min", "rgsp_max", "type1")


class Tracer:
    def __init__(self) -> None:
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self._stack: list[tuple[int, str]] = []  # open spans: (id, name)
        self._op = None
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        self._stack.append((span_id, name))
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self._op)

    @contextmanager
    def operation(self, op_id: str):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    # -- wrappers ----------------------------------------------------------
    def _leaf(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
                counts[name + ".busy_s"] = counts.get(name + ".busy_s", 0.0) + (_clock() - start)
        return wrapper

    def _spanned(self, fn, name: str, size=None):
        """Span each call; `size(result)` names an amount to add to the
        counter `<name>.<amount name>`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name + ".calls")
            with self.span(name):
                result = fn(*args, **kwargs)
            if size is not None:
                key, amount = size(result)
                self.add(f"{name}.{key}", amount)
            return result
        return wrapper

    def _closure(self, fn):
        counts = self.counts

        def wrapper(x):
            start = _clock()
            try:
                return fn(x)
            except Exception as exc:
                key = "plans.eval.failed." + type(exc).__name__
                counts[key] = counts.get(key, 0) + 1
                raise
            finally:
                counts["plans.eval.calls"] = counts.get("plans.eval.calls", 0) + 1
                counts["plans.eval.busy_s"] = counts.get("plans.eval.busy_s", 0.0) + (_clock() - start)
        return wrapper

    def _plan_functions(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add("plans.plan_functions.calls")
            if any(name == "fuzzyopt.solve_plan" for _, name in self._stack):
                self.add("fuzzyopt.group_sizes_tried")
            objective, g, h, box, ordering = fn(*args, **kwargs)
            return self._closure(objective), self._closure(g), self._closure(h), box, ordering
        return wrapper

    def _solve_crisp(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add("fuzzyopt.solve_crisp.calls")
            try:
                with self.span("fuzzyopt.solve_crisp"):
                    return fn(*args, **kwargs)
            except InfeasibleError:
                self.add("fuzzyopt.solve_crisp.infeasible")
                raise
        return wrapper

    def _minimize(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span("fuzzyopt.nelder_mead"):
                result = fn(*args, **kwargs)
            self.add("fuzzyopt.nelder_mead.runs")
            self.add("fuzzyopt.nelder_mead.nfev", int(result.nfev))
            self.add("fuzzyopt.nelder_mead.nit", int(result.nit))
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every traced attribute; `uninstall` restores them."""
        def rebind(module, attr, wrapper):
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

        # Hot leaves.  Each module that imported a name by value is rebound
        # separately; lifemodel.ssp_triprob stays unwrapped so rgsp_min's
        # inner call is not counted as an ssp triprob.
        survival = self._leaf(lifemodel.weighted_survival, "lifemodel.weighted_survival")
        for module in (lifemodel, plans, oracle):
            rebind(module, "weighted_survival", survival)
        for family in TRIPROB_FAMILIES:
            attr = "typeI_triprob" if family == "type1" else f"{family}_triprob"
            wrapped = self._leaf(getattr(lifemodel, attr), f"lifemodel.triprob.{family}")
            for module in (plans, oracle):
                rebind(module, attr, wrapped)
        rebind(lifemodel, "std_normal_cdf",
               self._leaf(lifemodel.std_normal_cdf, "quadrature.std_normal_cdf"))
        rebind(lifemodel, "oscillatory_pair",
               self._leaf(lifemodel.oscillatory_pair, "quadrature.oscillatory_pair"))

        # Coarse boundaries.
        rebind(plans, "plan_functions", self._plan_functions(plans.plan_functions))
        solve_plan = self._spanned(fuzzyopt.solve_plan, "fuzzyopt.solve_plan")
        rebind(fuzzyopt, "solve_plan", solve_plan)
        rebind(plans, "solve_plan", solve_plan)
        rebind(fuzzyopt, "zimmermann_bounds",
               self._spanned(fuzzyopt.zimmermann_bounds, "fuzzyopt.zimmermann_bounds"))
        rebind(fuzzyopt, "solve_max_phi",
               self._spanned(fuzzyopt.solve_max_phi, "fuzzyopt.solve_max_phi"))
        rebind(fuzzyopt, "solve_crisp", self._solve_crisp(fuzzyopt.solve_crisp))
        rebind(fuzzyopt, "minimize", self._minimize(fuzzyopt.minimize))
        rebind(oracle, "mc_triprob", self._spanned(
            oracle.mc_triprob, "oracle.mc_triprob", lambda r: ("draws", r.draws)))
        rebind(oracle, "verify_tables", self._spanned(
            oracle.verify_tables, "oracle.verify_tables", lambda r: ("rows", len(r))))
        for attr in ("dispose_ssp", "dispose_rgsp_min", "dispose_rgsp_max", "dispose_type1"):
            rebind(disposition, attr,
                   self._spanned(getattr(disposition, attr), "disposition.dispose"))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- summaries ---------------------------------------------------------
    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, summed duration and summed self time (the
        duration minus the part covered by child spans)."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _, _ in self.spans:
            entry = totals.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[span_id]
        return totals

    def dump(self) -> dict:
        return {
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": o}
                for i, n, s, e, p, o in self.spans
            ],
        }
