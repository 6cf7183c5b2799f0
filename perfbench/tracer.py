"""In-memory spans around quantvar's layer functions, and their summary.

``install(tracer)`` replaces each traced function by a wrapper in every
namespace its callers look it up in (for example ``quantvar.cli.run_chain``
and the ``dist`` kernels bound inside ``quantvar.qbvar``). A wrapper
records one span: name, start, end, the enclosing span and the forecast
origin being processed, which is the identifier all spans of one origin
share. Spans live in flat arrays until the job ends; ``save`` writes them
and ``summary`` reduces them to per-function statistics. Self time is a
span's duration minus the durations of its direct children. ``wrapper_s``
estimates the time the wrappers added from the number of wrapped calls and
their cost measured on no-ops.

Functions called millions of times (``month_index``, ``realized_value``)
are only counted, since a span each would swamp the trace.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array

import numpy as np

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples, min_beyond: int = 10):
    """Highest ladder percentile with at least ``min_beyond`` samples above it.

    Returns (percentile, value, samples_beyond), or None when even the
    median has fewer than ``min_beyond`` samples above it.
    """
    x = np.asarray(samples, dtype=float)
    for pct in PERCENTILE_LADDER:
        if x.size == 0:
            break
        value = float(np.percentile(x, pct))
        beyond = int(np.sum(x > value))
        if beyond >= min_beyond:
            return pct, value, beyond
    return None


def self_times(durations, parents) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    d = np.asarray(durations, dtype=float)
    par = np.asarray(parents, dtype=np.int64)
    has = par >= 0
    child = np.bincount(par[has], weights=d[has], minlength=d.size)
    return d - child


def effective_sample_size(x) -> float:
    """ESS of one chain by Geyer's initial positive sequence of autocorrelations."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4 or not np.all(np.isfinite(x)) or np.var(x) == 0.0:
        return float(n)
    d = x - x.mean()
    f = np.fft.rfft(d, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    rho = acov / acov[0]
    total = 0.0
    for t in range(0, n - 1, 2):  # pair sums rho_t + rho_{t+1}, t even
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        total += pair
    return float(n / max(2.0 * total - 1.0, 1e-12))


def step_coefficient_flops(design) -> float:
    """Computed flops of one coefficient sweep: per row X'WX, X'Wy, Cholesky, solves."""
    T, k = design.X.shape
    n = design.Y.shape[1]
    return float(n * (2 * T * k * k + 3 * T * k + k**3 / 3 + 3 * k * k))


def wrapper_costs(n: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds that one span and one counted call add to a call.

    Each is the fastest of ``repeats`` timings of ``n`` calls to a wrapped
    no-op, less the same for the bare no-op, on a throwaway tracer.
    """
    probe = Tracer()

    def noop():
        return None

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best / n

    bare = per_call(noop)
    return per_call(probe.span("probe", noop)) - bare, per_call(probe.counter("probe", noop)) - bare


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.origin_labels: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.origin = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_origin = -1
        self.counts: dict[str, int] = {}
        self.totals: dict[str, float] = {}  # bytes, flops, paths, ...
        self.rms_traces: list[list[float]] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key: str, amount: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + amount

    def span(self, name, fn, after=None, origin_of=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)`` runs outside it."""
        nid = self._nid(name)
        clock, stack = self.clock, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            saved_origin = self.current_origin
            if origin_of is not None:
                self.current_origin = len(self.origin_labels)
                self.origin_labels.append(origin_of(args))
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.origin.append(self.current_origin)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx], self.end[idx] = t0, t1
                self.current_origin = saved_origin
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reduction -------------------------------------------------------

    def wrapper_s(self, costs) -> float:
        """Time the wrappers added: spans and counted calls times their per-call cost.

        ``costs`` is (per span, per counted call) in seconds, as
        ``wrapper_costs`` measures them. Work done by ``after`` hooks is not
        included.
        """
        span_cost, count_cost = costs
        return len(self.start) * span_cost + sum(self.counts.values()) * count_cost

    def arrays(self):
        """(name id, start, end, parent) of every span as numpy views."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, call-time samples in ms."""
        nid, start, end, par = self.arrays()
        dur = end - start
        selfs = self_times(dur, par)
        out = {"spans": {}, "counts": dict(self.counts), "totals": dict(self.totals)}
        for i, name in enumerate(self.names):
            mask = nid == i
            out["spans"][name] = {
                "calls": int(mask.sum()),
                "incl_s": float(dur[mask].sum()),
                "self_s": float(selfs[mask].sum()),
                # per-call samples for percentiles, kept for the coarse spans only
                "ms": (dur[mask] * 1e3).tolist() if mask.sum() <= 10000 else [],
            }
        out["ess_ratio"] = [
            effective_sample_size(tr) / len(tr) for tr in self.rms_traces if len(tr)
        ]
        return out

    def save(self, path) -> None:
        """Write every span (name, start, end, parent, origin) as one .npz file."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        nid, start, end, par = self.arrays()
        np.savez_compressed(
            path,
            name_id=nid,
            start=start,
            end=end,
            parent=par,
            origin=np.frombuffer(self.origin, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
            origins=np.array(json.dumps(self.origin_labels)),
        )


def install(tracer: Tracer) -> None:
    """Wrap quantvar's layer functions where their callers look them up."""
    import quantvar.bvar as bvar
    import quantvar.cli as cli
    import quantvar.data as data
    import quantvar.evaluation as evaluation
    import quantvar.forecast as forecast
    import quantvar.qbvar as qbvar

    def patch(namespaces, attr, make):
        wrapper = make(getattr(namespaces[0], attr))
        for ns in namespaces:
            setattr(ns, attr, wrapper)

    def span(name, **kw):
        return lambda fn: tracer.span(name, fn, **kw)

    def file_bytes(key, pos):
        return lambda args, _: tracer.add(key, os.path.getsize(args[pos]))

    def paths_seen(args, paths):
        tracer.add("forecast.paths", paths.shape[0])
        tracer.add("forecast.bad_paths", int(np.isnan(paths).any(axis=(1, 2)).sum()))

    def chain_done(args, result):
        tracer.rms_traces.append(result[1].residual_rms.tolist())

    # samplers: the chain runners are looked up in cli, the steps in the
    # chain's own module, and the dist kernels in the module of the step
    patch([cli], "run_chain", span("qbvar.run_chain", after=chain_done))
    patch([cli], "run_bvar_chain", span("bvar.run_bvar_chain"))
    coef_flops = lambda args, _: tracer.add("qbvar.step_coefficients.flops",  # noqa: E731
                                            step_coefficient_flops(args[0]))
    patch([qbvar, bvar], "step_coefficients", span("qbvar.step_coefficients", after=coef_flops))
    for step in ("step_loadings", "step_factors", "step_shrinkage"):
        patch([qbvar, bvar], step, span(f"qbvar.{step}"))
    for step in ("step_latent", "step_scales"):
        patch([qbvar], step, span(f"qbvar.{step}"))
    patch([bvar], "step_scales_gaussian", span("bvar.step_scales_gaussian"))
    for fn in ("draw_from_precision_system", "draw_gig_half", "update_horseshoe"):
        patch([qbvar], fn, span(f"dist.{fn}"))
    patch([qbvar, bvar], "draw_inverse_gamma", span("dist.draw_inverse_gamma"))

    patch([forecast], "simulate_paths", span("forecast.simulate_paths", after=paths_seen))
    patch([cli], "write_forecasts", span("forecast.write_forecasts", after=file_bytes("forecast.write_bytes", 1)))
    patch([cli], "read_forecasts", span("forecast.read_forecasts", after=file_bytes("forecast.read_bytes", 0)))

    patch([cli], "average_qs", span("evaluation.average_qs"))
    patch([cli, evaluation], "realized_value", lambda fn: tracer.counter("evaluation.realized_value", fn))

    for fn in ("optimal_weight", "performance_weight", "weight_curve", "combine_weighted"):
        patch([cli], fn, span(f"combine.{fn}"))

    patch([cli], "read_panel", span("data.read_panel"))
    patch([cli], "transform_panel", span("data.transform_panel"))
    patch([cli], "build_lag_design", span("data.build_lag_design"))
    patch([cli, evaluation, data], "month_index", lambda fn: tracer.counter("data.month_index", fn))

    patch([cli], "run_recursive", span("cli.run_recursive"))
    patch([cli], "_cmd_combine", span("cli.combine"))
    patch([cli], "_forecast_one_origin", span("cli.origin", origin_of=lambda args: args[0][0]))
