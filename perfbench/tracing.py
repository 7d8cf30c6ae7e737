"""Spans and per-layer counters recorded from outside lotdist.

A traced pass swaps every public function of each lotdist layer module, at
every module attribute it is bound to, for a wrapper that records a span
(name, start, end, parent).  Two scipy entry points are layers of their own:
``scipy.optimize.linprog`` as the float distortion LP calls it (``highs``)
and ``minimize`` as the stable-lottery optimizer binds it (``slsqp``).
Spans stay in memory until the run ends, when ``dump`` writes them out; a layer's self time is its spans'
durations minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("elections", "linprog", "lotteries", "sampling", "pruning",
          "distortion", "mixing")


# Extra counts per wrapped function: name -> f(args, kwargs, result) -> {count: amount}.
def _lp_distortion_counts(args, kwargs, result):
    e = args[0]
    return {"voters": len(e.voters), "groups": len({v.ranking for v in e.voters})}


def _highs_counts(args, kwargs, result):
    a_ub = kwargs.get("A_ub")
    if a_ub is None:
        return {}
    return {"rows": a_ub.shape[0], "nnz": a_ub.nnz}


def _solve_lp_counts(args, kwargs, result):
    lp = args[0]
    return {"rows": len(lp.rows), "cols": len(lp.objective)}


def _empirical_sampling_counts(args, kwargs, result):
    return {"draws": args[2] if len(args) > 2 else kwargs["q"]}


COUNTERS = {
    "distortion.lp_distortion": _lp_distortion_counts,
    "highs.linprog": _highs_counts,
    "linprog.solve_lp": _solve_lp_counts,
    "lotteries.stable_k_lottery": lambda a, k, r: {"sl_solves": 1},
    "lotteries.verify_stability": lambda a, k, r: {"exact_checks": 1},
    "slsqp.minimize": lambda a, k, r: {"iterations": int(r.nit)},
    "sampling.sample_until_repapx": lambda a, k, r: {"certificates": 1,
                                                     "attempts": r.attempts},
    "sampling.empirical_sampling": _empirical_sampling_counts,
    "pruning.quasi_kernel": lambda a, k, r: {"kept": len(r.members)},
}

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
LAYER_COUNTS = {
    "highs": ("rows", "nnz"),
    "distortion": ("voters", "groups"),
    "linprog": ("rows", "cols"),
    "lotteries": ("sl_solves", "exact_checks"),
    "slsqp": ("iterations",),
    "sampling": ("attempts", "certificates", "draws"),
    "elections": (),
    "pruning": ("kept",),
    "mixing": (),
}


class Tracer:
    """Records spans and counts while installed; a no-op otherwise."""

    def __init__(self, lotdist_modules: dict, scipy_optimize):
        # short name -> module, for the package and every submodule
        self.modules = lotdist_modules
        self.scipy_optimize = scipy_optimize
        self.spans: list[tuple] = []        # (name, start, end, parent index)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple] = []     # (namespace, attribute, original)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    counts[f"{name.split('.')[0]}.{key}"] += amount
            return result

        return traced

    def _targets(self):
        """(qualified span name, original object) for every traced callable."""
        for layer in LAYERS:
            module = self.modules[layer]
            for attr in module.__all__:
                obj = getattr(module, attr)
                # plain functions, and the lru_cache wrappers around some
                if not inspect.isfunction(getattr(obj, "__wrapped__", obj)):
                    continue
                yield f"{layer}.{attr}", obj
        yield "highs.linprog", self.scipy_optimize.linprog
        yield "slsqp.minimize", self.modules["lotteries"].minimize

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = list(self.modules.values()) + [self.scipy_optimize]
        for name, original in self._targets():
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def layer_totals(self) -> dict:
        """calls and self seconds per layer over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            layer = name.split(".")[0]
            calls[layer] += 1
            self_s[layer] += (end - start) - covered
        return {"calls": dict(calls), "self_s": dict(self_s)}

    def reset(self) -> None:
        """Start new span and count stores; earlier ones stay with their holders."""
        self.spans = []
        self.counts = defaultdict(int)


def dump(path, rounds) -> None:
    """Write the spans of each (round index, spans) pair to ``path`` as JSON lines."""
    with open(path, "w") as fh:
        for round_index, spans in rounds:
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({"round": round_index, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
