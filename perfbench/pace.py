"""Pace of a job's unit steps: the gaps between successive calls of one function.

``install(names, spool_dir)`` wraps each dotted name (in the module where
its callers look it up) so that every call appends its start time to an
in-memory array. A unit step is the gap between two successive calls: one
quantile-VAR Gibbs sweep when the name is ``quantvar.qbvar.step_coefficients``,
one combination-weight step (rescan of the history plus the weight) when it
is the weight function ``quantvar.cli`` calls per origin. The few long gaps
at chain, origin and command boundaries fall in the upper tail.

Pool workers sample in their own memory, which is lost when they exit, so
``quantvar.cli._forecast_one_origin`` is wrapped too: in a process other
than the job's own it appends the origin's times to ``<spool_dir>/<pid>.bin``
when the origin returns. ``tick_series`` gathers the times of every process.

On a virtual machine whose cores are shared with other tenants (a 2-core
Xeon VM was measured), the same sweep takes 0.7 ms at one moment and
1.3 ms a few seconds later. The fastest of many thousand steps in a job
moves by a few per cent from run to run, while the job's wall time moves
by up to a quarter, so the gated timings are built on it (see
``summary``). One wrapped call adds well under a microsecond to a step of
0.3 ms or more.
"""

from __future__ import annotations

import functools
import glob
import importlib
import os
import time
from array import array

import numpy as np

from tracer import tail_percentile

BIN_S = 0.5  # slice length for paced_run_s, seconds
MIN_STEPS = 20  # steps a slice needs to give its own pace


def install(names, spool_dir) -> array:
    """Wrap ``names`` and the per-origin function; returns the job's own start times."""
    import quantvar.cli as cli

    ticks = array("d")
    clock, mark = time.perf_counter, ticks.append
    for dotted in names:
        module_name, attr = dotted.rsplit(".", 1)
        module = importlib.import_module(module_name)

        def timed(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                mark(clock())
                return fn(*args, **kwargs)

            return wrapper

        setattr(module, attr, timed(getattr(module, attr)))

    owner = os.getpid()
    one_origin = cli._forecast_one_origin

    @functools.wraps(one_origin)  # pickled by name into forked pool workers
    def per_origin(payload):
        try:
            return one_origin(payload)
        finally:
            if os.getpid() != owner and ticks:
                with open(os.path.join(spool_dir, f"{os.getpid()}.bin"), "ab") as fh:
                    ticks.tofile(fh)
                del ticks[:]

    cli._forecast_one_origin = per_origin
    return ticks


def tick_series(ticks, spool_dir) -> list:
    """Call times of each process: the job's own, then each pool worker's."""
    series = [np.frombuffer(ticks, dtype=np.float64)] if len(ticks) else []
    series += [np.fromfile(path) for path in sorted(glob.glob(os.path.join(spool_dir, "*.bin")))]
    return series


def summary(series, t0, t1, bin_s=BIN_S, min_steps=MIN_STEPS) -> dict:
    """Step statistics of a job timed from ``t0`` to ``t1`` (perf_counter seconds).

    A step is the gap between successive calls in one process. The job's
    ``paced_run_s`` is its wall time with the contention taken out: the
    timed section is cut into ``bin_s`` slices, each slice counts its
    length times fastest step / median step of the steps that end in it,
    and a slice with fewer than ``min_steps`` steps (a bvar chain, the
    ``evaluate`` subcommand) borrows the factor of the nearest slice that
    has them. Contention slows a slice's steps and its other work alike,
    so the sum is the job's time had every step run at the fastest pace,
    while a change that makes any part of the job faster or slower still
    moves it.
    """
    ends = [s[1:] for s in series if s.size > 1]
    gaps = [np.diff(s) for s in series if s.size > 1]
    if not gaps:
        return {"steps": 0, "fastest_ms": 0.0, "median_ms": 0.0, "tail": None, "paced_run_s": 0.0}
    ends, gaps = np.concatenate(ends), np.concatenate(gaps)
    fastest = float(gaps.min())
    edges = np.append(np.arange(t0, t1, bin_s), t1)
    which = np.searchsorted(edges, ends, side="right") - 1
    factors = np.full(edges.size - 1, np.nan)
    for b in range(factors.size):
        in_bin = gaps[which == b]
        if in_bin.size >= min_steps:
            factors[b] = fastest / np.median(in_bin)
    have = np.flatnonzero(~np.isnan(factors))
    if have.size == 0:
        factors[:] = fastest / np.median(gaps)
    else:
        nearest = have[np.abs(np.arange(factors.size)[:, None] - have[None, :]).argmin(axis=1)]
        factors = factors[nearest]
    tail = tail_percentile(gaps)
    return {
        "steps": int(gaps.size),
        "fastest_ms": 1e3 * fastest,
        "median_ms": 1e3 * float(np.median(gaps)),
        # highest percentile with >= 10 steps beyond it: (percentile, ms, steps beyond)
        "tail": (tail[0], 1e3 * tail[1], tail[2]) if tail else None,
        "paced_run_s": float(np.sum(np.diff(edges) * factors)),
    }
