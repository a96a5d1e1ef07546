"""Checks on the files one repeat wrote, counting failed seed-runs.

A seed-run fails when its trace rows are missing or hold a non-finite
value, when the manifest lists it as halted, when ``f_sub`` or
``f_sub_avg_iterate`` falls below minus the reference tolerance (scaled by
|f*|), when a ``decsps``/``decsps_ns`` stepsize rises between recorded rows
(exact comparison: the library claims exact monotonicity), or, for a grid,
when its config has no ``sweep_summary.csv`` row.

The traces are parsed here, not through the library's reader, so a reader
bug cannot hide a writer bug.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

COLUMNS = ("seed", "k", "f_sub", "f_sub_avg_iterate", "dist_sq", "gamma")
MONOTONE = ("decsps", "decsps_ns")


@dataclass
class CheckResult:
    ops: int = 0
    failed: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def trace_path(cfg) -> str:
    ext = "csv" if cfg.trace_format == "csv" else "jsonl"
    return os.path.join(cfg.out_dir, f"{cfg.label}.{ext}")


def read_rows(path: str, fmt: str) -> list[tuple]:
    """Trace rows as (seed, k, f_sub, f_sub_avg_iterate, dist_sq, gamma)."""
    rows = []
    with open(path, newline="") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            if tuple(next(reader)) != COLUMNS:
                raise ValueError(f"{path}: unexpected header")
            for r in reader:
                rows.append((int(r[0]), int(r[1]), *map(float, r[2:])))
        else:
            for line in fh:
                d = json.loads(line)
                rows.append((int(d["seed"]), int(d["k"]),
                             *(float(d[c]) for c in COLUMNS[2:])))
    return rows


def expected_ks(K: int, record_every: int) -> list[int]:
    return sorted(set(range(0, K, record_every)) | {K - 1})


def seed_problem(cfg, rows, floor: float) -> str | None:
    """Why the rows of one seed-run fail, or None if they pass."""
    rows = sorted(rows, key=lambda r: r[1])
    if [r[1] for r in rows] != expected_ks(cfg.K, cfg.record_every):
        return "missing or extra rows"
    for r in rows:
        if not all(math.isfinite(v) for v in r[2:]):
            return f"non-finite value at k={r[1]}"
        if r[2] < floor or r[3] < floor:
            return f"suboptimality below {floor:.3g} at k={r[1]}"
    if cfg.optimizer in MONOTONE:
        for prev, cur in zip(rows, rows[1:]):
            if cur[5] > prev[5]:
                return f"gamma rises at k={cur[1]}"
    return None


def summary_labels(out_dir: str) -> set[str]:
    path = os.path.join(out_dir, "sweep_summary.csv")
    if not os.path.exists(path):
        return set()
    with open(path, newline="") as fh:
        return {row["label"] for row in csv.DictReader(fh)}


def check_outputs(cfgs, grid: bool) -> CheckResult:
    """Check every seed-run of ``cfgs`` (RunConfig-like objects that wrote
    into their ``out_dir``)."""
    res = CheckResult()
    digest = hashlib.sha256()
    labels = summary_labels(cfgs[0].out_dir) if grid else set()
    for cfg in cfgs:
        res.ops += len(cfg.seeds)
        path = trace_path(cfg)
        manifest_path = os.path.join(cfg.out_dir, f"{cfg.label}_manifest.json")
        try:
            with open(path, "rb") as fh:
                digest.update(fh.read())
            rows = read_rows(path, cfg.trace_format)
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        except (OSError, ValueError, KeyError, IndexError) as e:
            res.failed += len(cfg.seeds)
            res.problems.append(f"{cfg.label}: unreadable output ({e})")
            continue
        if grid and cfg.label not in labels:
            res.failed += len(cfg.seeds)
            res.problems.append(f"{cfg.label}: no sweep_summary.csv row")
            continue
        floor = -cfg.reference_tol * max(1.0, abs(manifest["f_star"]))
        halted = {d["seed"] for d in manifest["diagnostics"]}
        by_seed: dict[int, list] = {s: [] for s in cfg.seeds}
        for r in rows:
            by_seed.setdefault(r[0], []).append(r)
        for seed in cfg.seeds:
            why = "halted" if seed in halted else seed_problem(cfg, by_seed[seed], floor)
            if why is not None:
                res.failed += 1
                res.problems.append(f"{cfg.label} seed {seed}: {why}")
    res.digest = digest.hexdigest()
    return res
