"""Benchmark workloads: the inputs each one generates from its seed and the
library calls one repeat makes.

Every workload goes through the public API only: ``runner.build_problem``,
``objectives.solve_reference``, ``runner.run_experiment`` and
``runner.compare_grid``. The program sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("seeds_1d", "logistic_libsvm", "quadratic_grid")

SEEDS_1D_K = 300
SEEDS_1D_RUNS = 100
LOGISTIC_K = 6000
LOGISTIC_N, LOGISTIC_D = 5000, 100
GRID_K = 600
GRID_N, GRID_D = 100, 20
GRID_OPTIMIZERS = (
    "sps_max", "decsps", "decsps_ns", "sgd_constant",
    "sgd_decreasing", "adagrad_norm", "adam", "amsgrad",
)
BASELINE_ETA = 0.05

# set-ups per child process; setup_s is their median
SETUP_REPEATS = {"seeds_1d": 25, "logistic_libsvm": 1, "quadratic_grid": 10}


class MissingProgram(RuntimeError):
    """The checkout holds no polystep sources to benchmark."""


def import_polystep():
    """Import polystep from this checkout's ``src``, never from elsewhere."""
    pkg = SRC / "polystep"
    if not (pkg / "__init__.py").is_file():
        raise MissingProgram(f"no polystep package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polystep

    if Path(polystep.__file__).resolve().parent != pkg.resolve():
        raise MissingProgram(f"polystep imported from {polystep.__file__}, not {pkg}")
    return polystep


@contextlib.contextmanager
def work_dir(tag: str):
    """A fresh directory under ``.bench_work``, removed with its contents
    (and ``.bench_work`` itself, once empty) on exit."""
    path = WORK / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


@dataclass(frozen=True)
class Plan:
    """What one repeat of a workload runs."""

    cfgs: tuple  # runner.RunConfig, one per optimizer, sharing one problem
    grid: bool
    setup_repeats: int

    @property
    def seed_steps(self) -> int:
        return sum(len(c.seeds) * c.K for c in self.cfgs)

    @property
    def ops(self) -> int:
        """One operation is one seed-run."""
        return sum(len(c.seeds) for c in self.cfgs)


def write_libsvm(seed: int, path: Path, n: int = LOGISTIC_N, d: int = LOGISTIC_D) -> None:
    """Dense LIBSVM file of correlated Gaussian features with labels drawn
    from a logistic model. Columns are scaled over six decades, so the
    standardization step has real work to do."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    spectrum = 0.15 ** (np.arange(d) / (d - 1))
    Z = (rng.standard_normal((n, d)) * spectrum) @ Q.T
    # the true weights load every principal direction equally, so the
    # conditioning of the reference solve barely depends on the seed
    w = Q @ (rng.choice([-1.0, 1.0], d) * 2.0 / np.sqrt(d))
    p = 1.0 / (1.0 + np.exp(-(Z @ w)))
    y = np.where(rng.random(n) < p, 1, -1)
    X = Z * 10.0 ** rng.uniform(-3.0, 3.0, d)
    with open(path, "w") as fh:
        for label, row in zip(y, X):
            fh.write(f"{label:d} " + " ".join(f"{j}:{v:.6g}" for j, v in enumerate(row, 1)) + "\n")


def make_inputs(name: str, seed: int, work_dir: Path) -> str | None:
    """Generate the workload's input files; returns the dataset path, if any."""
    if name != "logistic_libsvm":
        return None
    path = work_dir / f"logistic_{seed}.svm"
    write_libsvm(seed, path)
    return str(path)


def plan(name: str, seed: int, out_dir: str, dataset: str | None = None) -> Plan:
    from polystep import runner
    from polystep.steppers import StepperConfig

    if name == "seeds_1d":
        problem = runner.ProblemSpec("counterexample")
        base = SEEDS_1D_RUNS * seed
        cfgs = (runner.RunConfig(
            problem=problem, optimizer="decsps", B=1, K=SEEDS_1D_K,
            seeds=tuple(range(base, base + SEEDS_1D_RUNS)), out_dir=out_dir,
            label="seeds_1d_decsps",
        ),)
        return Plan(cfgs, False, SETUP_REPEATS[name])
    if name == "logistic_libsvm":
        if dataset is None:
            raise ValueError("logistic_libsvm needs its generated dataset")
        problem = runner.ProblemSpec("dataset", lam=1e-3, dataset_path=dataset)
        cfgs = (runner.RunConfig(
            problem=problem, optimizer="decsps", B=20, K=LOGISTIC_K,
            seeds=(2 * seed, 2 * seed + 1), out_dir=out_dir,
            trace_format="json-lines", record_every=100, label="logistic_decsps",
        ),)
        return Plan(cfgs, False, SETUP_REPEATS[name])
    if name == "quadratic_grid":
        problem = runner.ProblemSpec("fig1", n=GRID_N, d=GRID_D, gen_seed=seed)
        cfgs = []
        for opt in GRID_OPTIMIZERS:
            stepper = StepperConfig(eta=BASELINE_ETA)
            if opt == "sps_max":
                stepper = StepperConfig(f_star_policy="exact")
            cfgs.append(runner.RunConfig(
                problem=problem, optimizer=opt, stepper=stepper, B=1, K=GRID_K,
                seeds=(2 * seed, 2 * seed + 1), out_dir=out_dir, label=f"grid_{opt}",
            ))
        return Plan(tuple(cfgs), True, SETUP_REPEATS[name])
    raise ValueError(f"unknown workload {name!r}")


def run_repeat(p: Plan, section=None) -> dict:
    """Run one repeat and time it.

    ``setup_s`` is the median of ``p.setup_repeats`` set-ups (problem build
    plus reference solve). ``wall_s`` times the section a user waits for:
    one set-up plus ``run_experiment``, or the whole ``compare_grid`` call,
    which sets up internally. ``section`` is entered around exactly that
    part, so a tracer sees the same work that ``wall_s`` times.
    """
    from polystep import objectives, runner

    tol = p.cfgs[0].reference_tol

    def setup():
        t0 = perf_counter()
        obj = runner.build_problem(p.cfgs[0].problem)
        ref = objectives.solve_reference(obj, tol)
        return obj, ref, perf_counter() - t0

    setup_times = [setup()[2] for _ in range(p.setup_repeats - (0 if p.grid else 1))]
    with section if section is not None else contextlib.nullcontext():
        t0 = perf_counter()
        if p.grid:
            runner.compare_grid(list(p.cfgs))
        else:
            obj, ref, dt = setup()
            setup_times.append(dt)
            runner.run_experiment(p.cfgs[0], obj=obj, reference=ref)
        wall = perf_counter() - t0
    return {"setup_s": statistics.median(setup_times), "wall_s": wall}
