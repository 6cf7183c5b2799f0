"""quantvar benchmark: run one workload, check its outputs, print its metrics.

Usage:
    python3 perfbench/run.py --workload demo_quick [--seed 20240601]
                             [--seconds 10] [--trace 0|1] [--root DIR]

Each job is a fresh ``python3 perfbench/job.py`` process that imports
quantvar from ``<root>/src`` and drives ``quantvar.cli.main``, the same
path as the ``quantvar`` command. Jobs run back to back (closed loop) until
``--seconds`` have passed, at least one job per run. With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics, whose times
are built on the job's unit steps (see pace.py); with ``--trace 1`` the run
makes one untraced and one traced job and reports the per-layer metrics. Outputs are checked after every job; a
failed check makes ``correct`` false. The full record, with the machine
block and the forecast hashes, is written under ``--out``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import tail_percentile  # noqa: E402

JOB = os.path.join(HERE, "job.py")
SETUP_PROBES = 2  # set-up-only processes per run, besides each job's own set-up
JOB_TIMEOUT_S = 170.0
PSS_INTERVAL_S = 0.1  # memory sampling period; one sample costs about 2 ms of CPU
PAPER_SCALE = {"origins": 206, "chains": 6, "sweeps": 3000}


# ---------------------------------------------------------------------------
# machine block


def _openblas_runtime():
    """(config string, thread count) from the OpenBLAS numpy loaded, or Nones."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                get_config.restype, get_threads.restype = ctypes.c_char_p, ctypes.c_int
                return get_config().decode(), int(get_threads())
    return None, None


def source_digest(root) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def machine_block(root, seed) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    blas_config, blas_threads = _openblas_runtime()
    env_keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ.get(k) for k in env_keys},
        "git_commit": commit,
        "src_sha256": source_digest(root),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# jobs


def group_pss_kib(pgid) -> int:
    """Summed proportional set size (KiB) of every live process in a group.

    Pss splits each shared page among the processes that map it, so forked
    pool workers add only the memory they do not share with their parent.
    """
    total = 0
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                stat = fh.read()
            # fields after "(comm)": state, ppid, pgrp, ...
            if int(stat[stat.rindex(b")") + 2:].split()[2]) != pgid:
                continue
            with open(f"/proc/{name}/smaps_rollup", "rb") as fh:
                total += next((int(line.split()[1]) for line in fh if line.startswith(b"Pss:")), 0)
        except (OSError, ValueError):
            continue  # the process ended between listing and reading
    return total


def spawn_job(wl, root, mode, trace, tag, workdir) -> dict:
    """Run job.py once; returns its result, exit status and peak memory.

    Peak memory is the largest summed Pss of the job's process group (the
    job and its pool workers), sampled every PSS_INTERVAL_S while it runs.
    """
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    spec = {
        "root": root,
        "mode": mode,
        "trace": bool(trace),
        "config": wl.config,
        "panel": wl.panel,
        "tcodes": wl.tcodes,
        "variables": wl.variables,
        "commands": wl.commands,
        "pace": wl.pace,
        "pace_dir": os.path.join(workdir, f"{tag}.pace"),
        "result_path": result_path,
        "spans_path": os.path.join(workdir, f"{tag}.spans.npz"),
    }
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUANTVAR_")}
    env.update(wl.env)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out_path, err_path = os.path.join(workdir, f"{tag}.stdout"), os.path.join(workdir, f"{tag}.stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, JOB, spec_path, repr(spawn_t)],
            stdout=out, stderr=err, env=env, cwd=workdir, start_new_session=True,
        )
        deadline = spawn_t + JOB_TIMEOUT_S
        peak_pss_kib, next_sample = 0, 0.0
        while True:
            pid, status, _ = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            now = time.monotonic()
            if now > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, _ = os.wait4(proc.pid, 0)
                break
            if now >= next_sample:
                peak_pss_kib = max(peak_pss_kib, group_pss_kib(proc.pid))
                next_sample = now + PSS_INTERVAL_S
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = {}
    if os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
    with open(err_path) as fh:
        result["stderr"] = fh.read()
    result["returncode"] = proc.returncode
    result["peak_rss_mb"] = peak_pss_kib / 1024.0
    return result


def _aborted_origins(stderr: str):
    for line in stderr.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if isinstance(msg, dict) and "aborted_origins" in msg.get("detail", {}):
            return len(msg["detail"]["aborted_origins"])
    return None


def _clear_outputs(wl) -> None:
    if wl.run_dir:
        shutil.rmtree(wl.run_dir, ignore_errors=True)
    for key, path in wl.outputs.items():
        if key in ("qbvar", "bvar"):
            continue  # inputs
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)


def _warmup_share_of_run(run_dir) -> float:
    warm = total = 0
    cdir = os.path.join(run_dir, "combination")
    for name in sorted(os.listdir(cdir)) if os.path.isdir(cdir) else []:
        if name.startswith("weights_"):
            weights = checks.read_weights(os.path.join(cdir, name))
            warm += sum(w for _, w in weights.values())
            total += len(weights)
    return warm / total if total else 0.0


def run_and_check(wl, root, trace, tag, workdir) -> dict:
    """One job plus its output checks; returns the job record."""
    _clear_outputs(wl)
    job = spawn_job(wl, root, "run", trace, tag, workdir)
    codes = job.get("exit_codes", [])
    if wl.run_dir:
        job["attempted"] = wl.n_origins
        if job["returncode"] == 0 and codes and codes[0] == 0:
            with open(os.path.join(wl.run_dir, "manifest.json")) as fh:
                job["failed"] = json.load(fh)["n_aborted"]
        else:
            aborted = _aborted_origins(job["stderr"])
            job["failed"] = wl.n_origins if aborted is None else aborted
    else:
        job["attempted"] = len(wl.commands)
        job["failed"] = len(wl.commands) - sum(1 for c in codes if c == 0)
    job["problems"] = []
    if not trace and job["returncode"] == 0 and not job.get("pace", {}).get("steps"):
        job["problems"].append("no unit step was timed")
    if job["returncode"] != 0 or len(codes) != len(wl.commands) or any(codes):
        job["problems"].append(f"job exit {job['returncode']}, command exits {codes}: {job['stderr'][-400:]}")
        return job
    try:
        if wl.run_dir:
            job["hashes"] = checks.check_run(wl)
            job["warmup_share"] = _warmup_share_of_run(wl.run_dir)
        else:
            job["hashes"], job["warmup_share"] = checks.check_rescore(wl)
    except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
        job["problems"].append(f"output check failed: {exc}")
    return job


def cross_check_hashes(out_dir, wl, digest, hashes) -> list:
    """demo_quick and demo_quick_par2 must write byte-identical forecasts.

    Compares against the other workload's recorded runs of the same seed and
    sources; whichever of the two runs second makes the comparison.
    """
    if not wl.name.startswith("demo_quick"):
        return []
    other = "demo_quick_par2" if wl.name == "demo_quick" else "demo_quick"
    problems = []
    for path in sorted(glob.glob(os.path.join(out_dir, other, f"seed{wl.seed}-*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec["machine"]["src_sha256"] == digest and rec["forecast_sha256"] and rec["forecast_sha256"] != hashes:
            problems.append(f"forecast hashes differ from {os.path.relpath(path, out_dir)}")
    return problems


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(jobs, setups) -> dict:
    """Gated metrics: times built on the fastest unit step (see pace.py), memory."""
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "step_ms": {"value": min(j["pace"]["fastest_ms"] for j in jobs), "unit": "ms"},
        "paced_run_s": {"value": median(j["pace"]["paced_run_s"] for j in jobs), "unit": "s"},
        "peak_rss_mb": {"value": median(j["peak_rss_mb"] for j in jobs), "unit": "MB"},
    }


def wall_figures(jobs) -> dict:
    """Wall and CPU time of the timed section and the step times: printed, not gated."""
    tails = [j["pace"]["tail"] for j in jobs if j["pace"]["tail"]]
    step_tail = {}
    if tails:  # the job with the slowest tail, at its percentile
        pct, ms, beyond = max(tails, key=lambda t: t[1])
        step_tail = {f"p{pct:g}_step_ms": {"value": ms, "unit": "ms"},
                     f"p{pct:g}_steps_beyond": {"value": beyond, "unit": "count"}}
    return {
        "run_s": {"value": median(j["run_s"] for j in jobs), "unit": "s"},
        "cpu_s": {"value": median(j["cpu_s"] for j in jobs), "unit": "s"},
        "median_step_ms": {"value": median(j["pace"]["median_ms"] for j in jobs), "unit": "ms"},
        **step_tail,
        "steps": {"value": median(j["pace"]["steps"] for j in jobs), "unit": "count"},
    }


_EMPTY_SPAN = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "ms": []}

# span name -> statistics reported for it (see README.md for the map from
# each to the end-to-end metric it should move)
LAYER_SPANS = {
    "qbvar.run_chain": ("calls", "self_s", "us_per_call", "p50_ms", "tail_ms"),
    "qbvar.step_coefficients": ("calls", "self_s", "us_per_call"),
    "qbvar.step_loadings": ("calls", "self_s", "us_per_call"),
    "qbvar.step_factors": ("calls", "self_s", "us_per_call"),
    "qbvar.step_latent": ("calls", "self_s", "us_per_call"),
    "qbvar.step_scales": ("calls", "self_s", "us_per_call"),
    "qbvar.step_shrinkage": ("calls", "self_s", "us_per_call"),
    "bvar.run_bvar_chain": ("calls", "self_s", "us_per_call", "p50_ms"),
    "bvar.step_scales_gaussian": ("calls", "self_s", "us_per_call"),
    "dist.draw_from_precision_system": ("calls", "us_per_call"),
    "dist.draw_gig_half": ("calls", "us_per_call"),
    "dist.update_horseshoe": ("calls", "us_per_call"),
    "dist.draw_inverse_gamma": ("calls", "us_per_call"),
    "forecast.simulate_paths": ("calls", "us_per_call"),
    "forecast.write_forecasts": ("s",),
    "forecast.read_forecasts": ("s",),
    "evaluation.average_qs": ("calls", "s"),
    "combine.optimal_weight": ("calls", "us_per_call"),
    "combine.performance_weight": ("calls", "us_per_call"),
    "combine.weight_curve": ("s",),
    "combine.combine_weighted": ("s",),
    "data.read_panel": ("s",),
    "data.transform_panel": ("s",),
    "data.build_lag_design": ("calls",),
    "cli.origin": ("calls", "p50_ms"),
    "cli.run_recursive": ("self_s",),
    "cli.combine": ("calls", "self_s"),
}
_UNITS = {"calls": "count", "self_s": "s", "s": "s", "us_per_call": "us", "p50_ms": "ms", "tail_ms": "ms"}


def layer_metrics(summary, warmup_share, overhead_s) -> tuple[dict, dict]:
    """Per-layer metrics from a traced job, and the tail percentiles behind them.

    ``overhead_s`` is the traced job's run_s less its untraced twin's.
    """
    m, tails = {}, {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for span, stats in LAYER_SPANS.items():
        s = summary["spans"].get(span, _EMPTY_SPAN)
        for stat in stats:
            if stat == "calls":
                value = s["calls"]
            elif stat == "self_s":
                value = s["self_s"]
            elif stat == "s":
                value = s["incl_s"]
            elif stat == "us_per_call":
                value = 1e6 * s["incl_s"] / s["calls"] if s["calls"] else 0.0
            elif stat == "p50_ms":
                value = median(s["ms"]) if s["ms"] else 0.0
            else:  # tail_ms: 0 when no percentile has 10 samples beyond it
                tail = tail_percentile(s["ms"])
                tails[span] = {"percentile": tail[0], "value_ms": tail[1], "beyond": tail[2],
                               "samples": len(s["ms"])} if tail else None
                value = tail[1] if tail else 0.0
            put(f"{span}.{stat}", value, _UNITS[stat])
    totals, counts = summary["totals"], summary["counts"]
    coef = summary["spans"].get("qbvar.step_coefficients", _EMPTY_SPAN)
    flops = totals.get("qbvar.step_coefficients.flops", 0.0)
    put("qbvar.step_coefficients.gflops", flops / coef["incl_s"] / 1e9 if coef["incl_s"] else 0.0, "GFLOP/s")
    put("qbvar.ess_ratio", median(summary["ess_ratio"]) if summary["ess_ratio"] else 0.0, "ratio")
    paths = totals.get("forecast.paths", 0.0)
    put("forecast.bad_path_share", totals.get("forecast.bad_paths", 0.0) / paths if paths else 0.0, "share")
    put("forecast.write_forecasts.bytes", totals.get("forecast.write_bytes", 0.0), "bytes")
    put("forecast.read_forecasts.bytes", totals.get("forecast.read_bytes", 0.0), "bytes")
    put("evaluation.realized_value.calls", counts.get("evaluation.realized_value", 0), "count")
    put("data.month_index.calls", counts.get("data.month_index", 0), "count")
    put("combine.warmup_share", warmup_share, "share")
    put("trace.overhead_s", overhead_s, "s")
    put("trace.wrapper_s", summary["wrapper_s"], "s")
    return m, tails


def projection(wl, run_s):
    """Paper-scale serial sampling time from this run's time per sweep."""
    if not wl.chains_per_origin or wl.env.get("QUANTVAR_THREADS") != "1":
        return None
    sweeps = wl.n_origins * wl.chains_per_origin * wl.iterations
    per_sweep = run_s / sweeps
    total = per_sweep * PAPER_SCALE["origins"] * PAPER_SCALE["chains"] * PAPER_SCALE["sweeps"]
    return {"ms_per_sweep": 1e3 * per_sweep, "sweeps_measured": sweeps, "paper_scale_hours": total / 3600.0}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=workloads.DEMO_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=os.path.dirname(HERE), help="source tree to benchmark")
    ap.add_argument("--out", default=os.path.join(HERE, ".results"), help="where result records go")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(root, "src", "quantvar", "__init__.py")):
        print(f"error: no quantvar sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    machine = machine_block(root, args.seed)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _run(args, root, machine, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root, machine, workdir) -> int:
    wl = workloads.build(args.workload, args.seed, workdir)
    problems, setups, jobs = [], [], []
    if args.trace:
        # an untraced twin, then the traced job: the difference of their
        # run_s is trace.overhead_s, measured back to back on the same inputs
        for tag, traced in (("plain", False), ("traced", True)):
            if not problems:
                jobs.append(run_and_check(wl, root, traced, tag, workdir))
                problems += jobs[-1]["problems"]
    else:
        setups = [spawn_job(wl, root, "setup", False, f"setup{i}", workdir) for i in range(SETUP_PROBES)]
        problems += [f"set-up probe exit {s['returncode']}: {s['stderr'][-400:]}" for s in setups if s["returncode"]]
        # jobs back to back until --seconds have passed, at least one
        t0 = time.monotonic()
        while not problems and (not jobs or time.monotonic() - t0 < args.seconds):
            jobs.append(run_and_check(wl, root, False, f"job{len(jobs)}", workdir))
            problems += jobs[-1]["problems"]
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)

    hashes = {}
    if not problems:
        hashes = jobs[0]["hashes"]
        if any(j["hashes"] != hashes for j in jobs[1:]):
            problems.append("forecast hashes differ between jobs of one run")
        problems += cross_check_hashes(args.out, wl, machine["src_sha256"], hashes)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "jobs": len(jobs),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "problems": problems,
        "forecast_sha256": hashes,
    }
    metrics = {}
    if not problems and args.trace:
        plain, job = jobs
        metrics, record["tails"] = layer_metrics(job["trace"], job["warmup_share"], job["run_s"] - plain["run_s"])
        record["per_layer"] = metrics
        spans = job["trace"]["spans"]
        chains = sum(spans.get(n, {}).get("incl_s", 0.0) for n in ("qbvar.run_chain", "bvar.run_bvar_chain"))
        record["chain_share_of_traced_run"] = chains / job["run_s"]
        record["traced_run_s"], record["untraced_run_s"] = job["run_s"], plain["run_s"]
        record["wrapper_cost_us"] = dict(zip(("span", "counted_call"), (1e6 * c for c in job["trace"]["wrapper_costs_s"])))
    elif not problems:
        setup_samples = [s["setup_s"] for s in setups] + [j["setup_s"] for j in jobs]
        metrics = record["end_to_end"] = end_to_end_metrics(jobs, setup_samples)
        record["wall"] = wall_figures(jobs)
        record["projection"] = projection(wl, record["wall"]["run_s"]["value"])

    _print_report(record)
    os.makedirs(os.path.join(args.out, wl.name), exist_ok=True)
    stamp = f"seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    with open(os.path.join(args.out, wl.name, f"{stamp}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    spans = os.path.join(workdir, "traced.spans.npz")
    if os.path.exists(spans):
        shutil.move(spans, os.path.join(args.out, wl.name, f"{stamp}.spans.npz"))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _print_report(record) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  jobs {record['jobs']}")
    for key, value in record["machine"].items():
        print(f"  machine.{key}: {value}")
    print(f"  operations: {record['attempted']} attempted, {record['failed']} failed "
          f"(failed_share {record['failed_share']:.4g})")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for name, sha in sorted(record["forecast_sha256"].items()):
        print(f"  sha256 {name}: {sha}")
    for section in ("end_to_end", "per_layer", "wall"):
        if section == "wall" and section in record:
            print("  not gated (wall time moves by a quarter between runs of the same code):")
        for name, m in record.get(section, {}).items():
            print(f"  {name}: {m['value']:.6g} {m['unit']}")
    for span, tail in sorted(record.get("tails", {}).items()):
        if tail:
            print(f"  {span}: p{tail['percentile']:g} = {tail['value_ms']:.6g} ms "
                  f"({tail['beyond']} of {tail['samples']} samples beyond)")
        else:
            print(f"  {span}: too few samples for a tail percentile")
    if "wrapper_cost_us" in record:
        cost = record["wrapper_cost_us"]
        print(f"  trace.overhead_s: traced run_s {record['traced_run_s']:.6g} s less untraced "
              f"{record['untraced_run_s']:.6g} s; trace.wrapper_s: spans x {cost['span']:.3g} us + "
              f"counted calls x {cost['counted_call']:.3g} us (costs timed on no-ops in the traced job)")
    if "chain_share_of_traced_run" in record:
        print(f"  sampler chains (inclusive) / traced run_s: {record['chain_share_of_traced_run']:.2%}")
    proj = record.get("projection")
    if proj:
        print(f"  projection (derived, not gated): {proj['ms_per_sweep']:.4g} ms per sweep over "
              f"{proj['sweeps_measured']} sweeps -> {PAPER_SCALE['origins']} origins x "
              f"{PAPER_SCALE['chains']} chains x {PAPER_SCALE['sweeps']} sweeps = "
              f"{proj['paper_scale_hours']:.3g} h serial")


if __name__ == "__main__":
    sys.exit(main())
