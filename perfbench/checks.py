"""Output checks that fail a benchmark run instead of reporting a number.

Each check raises :class:`CheckFailed` with a reason. The readers here parse
quantvar's CSV layouts directly, so a check does not trust the code it
checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from statistics import median


class CheckFailed(AssertionError):
    pass


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def read_cells(path) -> dict:
    """(model, origin, horizon, quantile, variable) -> value from a forecast CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["model_id", "origin", "horizon", "quantile", "variable", "value"]:
        raise CheckFailed(f"{os.path.basename(path)}: not a forecast file")
    cells = {}
    for row in rows[1:]:
        if len(row) != 6:
            raise CheckFailed(f"{os.path.basename(path)}: malformed row {row}")
        model, origin, h, q, var, value = row
        cells[(model, origin, int(h), round(float(q), 10), var)] = float(value)
    return cells


def check_complete(cells, model, origins, horizons, quantiles, variables, where) -> None:
    """Every expected (origin, horizon, quantile, variable) cell is present and finite."""
    for o in origins:
        for h in horizons:
            for q in quantiles:
                for v in variables:
                    key = (model, o, h, round(q, 10), v)
                    if key not in cells:
                        raise CheckFailed(f"{where}: missing cell {key}")
                    if not math.isfinite(cells[key]):
                        raise CheckFailed(f"{where}: non-finite cell {key}")
    expected = len(origins) * len(horizons) * len(quantiles) * len(variables)
    if len(cells) != expected:
        raise CheckFailed(f"{where}: {len(cells)} cells, expected {expected}")


def check_monotone(cells, model, quantiles, where) -> None:
    """Predictive quantiles are non-decreasing in q in every cell."""
    qs = sorted(round(q, 10) for q in quantiles)
    groups: dict = {}
    for (m, o, h, q, v), value in cells.items():
        if m == model:
            groups.setdefault((o, h, v), {})[q] = value
    for key, by_q in groups.items():
        vals = [by_q[q] for q in qs]
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise CheckFailed(f"{where}: quantiles decrease in q at {key}: {vals}")


def check_spread(cells, model, lo, hi, where) -> float:
    """Median over cells of the (hi - lo) quantile gap must be positive."""
    gaps = []
    for (m, o, h, q, v), value in cells.items():
        if m == model and q == round(hi, 10):
            gaps.append(value - cells[(m, o, h, round(lo, 10), v)])
    if not gaps:
        raise CheckFailed(f"{where}: no cells at q={hi}")
    gap = median(gaps)
    if not gap > 0.0:
        raise CheckFailed(f"{where}: median q{hi}-q{lo} gap is {gap}, not positive")
    return gap


def check_manifest(run_dir) -> dict:
    """Every file in the manifest exists and hashes to the recorded value."""
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    for rel, digest in manifest["files"].items():
        path = os.path.join(run_dir, rel)
        if not os.path.exists(path):
            raise CheckFailed(f"manifest lists missing file {rel}")
        if sha256_file(path) != digest:
            raise CheckFailed(f"manifest hash mismatch for {rel}")
    return manifest


def read_weights(path) -> dict:
    """(origin, quantile, horizon) -> (lambda, warmup) from a weight file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["strategy", "window", "origin", "quantile", "horizon", "lambda", "warmup"]:
        raise CheckFailed(f"{os.path.basename(path)}: not a weight file")
    out = {}
    for _, _, origin, q, h, lam, warm in rows[1:]:
        lam = float(lam)
        if not 0.0 <= lam <= 1.0:
            raise CheckFailed(f"{os.path.basename(path)}: lambda {lam} outside [0, 1]")
        out[(origin, round(float(q), 10), int(h))] = (lam, warm == "1")
    return out


def check_combination(comb, a, b, weights, where) -> None:
    """Each combined value equals lambda * a + (1 - lambda) * b for its weight."""
    a_by = {k[1:]: v for k, v in a.items()}
    b_by = {k[1:]: v for k, v in b.items()}
    if len(comb) != len(a_by):
        raise CheckFailed(f"{where}: {len(comb)} combined cells, expected {len(a_by)}")
    for (_, o, h, q, v), value in comb.items():
        key = (o, h, q, v)
        if key not in a_by or key not in b_by or (o, q, h) not in weights:
            raise CheckFailed(f"{where}: cell {key} has no inputs or weight")
        lam = weights[(o, q, h)][0]
        want = lam * a_by[key] + (1.0 - lam) * b_by[key]
        if not abs(value - want) <= 1e-12 * max(1.0, abs(want)):
            raise CheckFailed(f"{where}: cell {key} is {value}, want {want}")


def check_run(workload) -> dict:
    """All checks on a finished `run` directory; returns the forecast hashes."""
    run_dir = workload.run_dir
    check_manifest(run_dir)
    with open(os.path.join(run_dir, "config.json")) as fh:
        config = json.load(fh)
    start, end = config["origins"]["start"], config["origins"]["end"]
    fdir = os.path.join(run_dir, "forecasts")
    files = sorted(os.listdir(fdir))
    if files != sorted(f"{m}.csv" for m in workload.models):
        raise CheckFailed(f"forecast files {files}, expected models {workload.models}")
    hashes = {}
    for name in files:
        path = os.path.join(fdir, name)
        model = name[: -len(".csv")]
        cells = read_cells(path)
        origins = sorted({k[1] for k in cells})
        if len(origins) != workload.n_origins or origins[0] != start or origins[-1] != end:
            raise CheckFailed(f"{name}: origins {origins[:1]}..{origins[-1:]}, expected {start}..{end}")
        check_complete(cells, model, origins, workload.horizons, workload.quantiles, workload.variables, name)
        if model == "bvar":
            check_monotone(cells, "bvar", workload.quantiles, name)
        if model == "qbvar":
            check_spread(cells, "qbvar", min(workload.quantiles), max(workload.quantiles), name)
        hashes[name] = sha256_file(path)
    return hashes


def check_rescore(workload) -> tuple[dict, float]:
    """Combined values follow the written weights; score tables are complete.

    Returns (hashes of the combined forecast files, warm-up weight share).
    """
    out = workload.outputs
    a, b = read_cells(out["qbvar"]), read_cells(out["bvar"])
    origins = sorted({k[1] for k in a})
    hashes, warm, total = {}, 0, 0
    for tag in ("perf", "opt"):
        path = out[f"comb_{tag}"]
        comb = read_cells(path)
        check_complete(comb, f"comb_{tag}", origins, workload.horizons, workload.quantiles,
                       workload.variables, f"comb_{tag}.csv")
        weights = read_weights(out[f"weights_{tag}"])
        check_combination(comb, a, b, weights, f"comb_{tag}.csv")
        warm += sum(w for _, w in weights.values())
        total += len(weights)
        hashes[os.path.basename(path)] = sha256_file(path)
    for label in ("full", "main", "recent"):
        path = os.path.join(out["tables"], f"scores__{label}.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        want = len(workload.models) * len(workload.quantiles) * len(workload.horizons)
        if len(rows) != want:
            raise CheckFailed(f"scores__{label}.csv has {len(rows)} rows, expected {want}")
        for row in rows:
            if not all(math.isfinite(float(x)) for x in row[1:]):
                raise CheckFailed(f"scores__{label}.csv: non-finite entry {row}")
        hashes[os.path.basename(path)] = sha256_file(path)
    return hashes, warm / total
