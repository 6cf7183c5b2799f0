"""One benchmark job in a fresh process: import quantvar, load, run, report.

Usage: python3 job.py SPEC.json SPAWN_T

SPEC names the source tree, the workload's files and CLI invocations and
where to write the result; SPAWN_T is the parent's CLOCK_MONOTONIC reading
when it started this process. Set-up is measured from spawn to the end of the config/panel load;
the timed section is the sequence of ``quantvar.cli.main`` calls. With
``mode == "setup"`` the job stops after set-up. With ``trace`` true the
layer functions are wrapped (see tracer.py) before the timed section, and
the span summary and the estimated cost of the wrappers, measured after
the timed section, are written with the result. Otherwise the workload's
unit-step function is wrapped to time each step (see pace.py).
"""

import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # reaped pool workers
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(spec_path: str, spawn_t: float) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))

    import quantvar.cli as cli
    from quantvar.data import read_panel, transform_panel

    if spec["config"]:
        cli.load_config(spec["config"])
    transform_panel(read_panel(spec["panel"], spec["tcodes"]).select(spec["variables"]))
    result = {"setup_s": time.monotonic() - spawn_t}
    if spec["mode"] == "run":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        tracer = ticks = None
        if spec["trace"]:
            from tracer import Tracer, install, wrapper_costs

            tracer = Tracer()
            install(tracer)
        elif spec["pace"]:
            import pace

            os.makedirs(spec["pace_dir"], exist_ok=True)
            ticks = pace.install(spec["pace"], spec["pace_dir"])
        codes = []
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        for argv in spec["commands"]:
            codes.append(cli.main(argv))
        t1, cpu1 = time.perf_counter(), _cpu_seconds()
        result.update(run_s=t1 - t0, cpu_s=cpu1 - cpu0, exit_codes=codes)
        if ticks is not None:
            result["pace"] = pace.summary(pace.tick_series(ticks, spec["pace_dir"]), t0, t1)
        if tracer is not None:
            tracer.save(spec["spans_path"])
            result["trace"] = tracer.summary()
            costs = wrapper_costs()
            result["trace"].update(wrapper_costs_s=costs, wrapper_s=tracer.wrapper_s(costs))
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
