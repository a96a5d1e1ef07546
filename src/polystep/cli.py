"""Command-line interface.

Subcommands:
  run        one (problem, optimizer) experiment over a seed set
  sweep      grid of runs varying one stepper hyperparameter
  reference  solve the full-batch problem and print x*, f* and ||grad f(x*)||
             to stdout as one JSON object; it takes only the problem flags,
             --reference-tol and --config

Exit codes: 0 success; 2 a bad config or input, before any work; 3 a run that
recorded inf or nan or took a negative stepsize, after writing every output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import data_io, objectives, runner, steppers
from .steppers import ConfigurationError, StepperConfig


def _add_problem(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--problem", default="synthetic",
                   choices=["counterexample", "fig1", "synthetic", "dataset"])
    p.add_argument("--dataset", type=str, help="path for --problem dataset")
    p.add_argument("--dataset-format", default="libsvm", choices=runner.DATASET_FORMATS)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--label-sign", default="standard", choices=["standard", "as_printed"])
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--d", type=int, default=100)
    p.add_argument("--interpolated", action="store_true")
    p.add_argument("--f-floor", type=float, default=1.0)
    p.add_argument("--gen-seed", type=int, default=0)
    p.add_argument("--reference-tol", type=float, default=1e-10)


def _add_run(p: argparse.ArgumentParser) -> None:
    p.add_argument("--optimizer", default="decsps", choices=sorted(steppers.STEPPERS))
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seeds", default="5",
                   help="seed count N (seeds 0..N-1) or comma-separated list")
    p.add_argument("--gamma-b", type=float, default=10.0)
    p.add_argument("--gamma-ell", type=float, default=0.01)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--c-schedule", default="sqrt", choices=steppers.C_SCHEDULES)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--b0", type=float, default=0.1)
    p.add_argument("--beta2", type=float, default=0.99)
    p.add_argument("--f-star-policy", default="lower_bound", choices=steppers.F_STAR_POLICIES)
    p.add_argument("--lower-bound", default="zero", choices=steppers.LOWER_BOUND_POLICIES)
    p.add_argument("--lower-bound-value", type=float, default=0.0)
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--format", default="csv", choices=data_io.TRACE_FORMATS)


def _parse_seeds(spec) -> tuple[int, ...]:
    try:
        if isinstance(spec, list):  # a JSON list, each entry read as the flag reads it
            return tuple(int(str(s)) for s in spec)
        text = str(spec)
        parts = [s for s in text.split(",") if s]
        if len(parts) == 1 and "," not in text:
            return tuple(range(int(parts[0])))
        return tuple(int(s) for s in parts)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"seeds must be a count or a list of integers, got {spec!r}") from None


def _config_value(action: argparse.Action, key: str, val):
    """A config-file value checked as its flag would check it: a ``store_true``
    flag takes only a JSON bool; otherwise the flag's ``type`` converts a
    string and must give back any other value unchanged (so 2.5 is no int),
    and the result must be one of the flag's ``choices``."""
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(val, bool):
            raise ConfigurationError(f"config key {key!r} must be true or false, got {val!r}")
        return val
    if action.type is not None:
        try:
            converted = action.type(val)
            if isinstance(val, bool) or not isinstance(val, str) and converted != val:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"config key {key!r} expects {action.type.__name__}, got {val!r}") from None
        val = converted
    if action.choices is not None and val not in action.choices:
        raise ConfigurationError(
            f"unknown {action.dest.replace('_', ' ')} {val!r}; "
            f"expected one of {', '.join(map(str, action.choices))}")
    return val


def _parse_args(parser: argparse.ArgumentParser, subcommands, argv) -> argparse.Namespace:
    """Parse argv. The values of a --config file, checked like the flags they
    stand for, become the subcommand's defaults and argv is parsed again, so
    argparse lets every flag given on the command line win over the file."""
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    sub = subcommands.choices[args.command]
    try:
        with open(args.config) as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigurationError(f"config file {args.config}: {e}") from e
    if not isinstance(values, dict):
        raise ConfigurationError(
            f"config file {args.config}: expected a JSON object, got {type(values).__name__}")
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, val in values.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ConfigurationError(
                f"unknown config key {key!r} for polystep {args.command}")
        defaults[attr] = _config_value(actions[attr], key, val)
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _problem_spec(args) -> runner.ProblemSpec:
    return runner.ProblemSpec(
        name=args.problem,
        lam=args.lam,
        label_sign=args.label_sign,
        dataset_path=args.dataset,
        dataset_format=args.dataset_format,
        n=args.n,
        d=args.d,
        interpolated=args.interpolated,
        f_floor=args.f_floor,
        gen_seed=args.gen_seed,
    )


def _build_run_config(args) -> runner.RunConfig:
    stepper = StepperConfig(
        gamma_b=args.gamma_b,
        gamma_ell=args.gamma_ell,
        c0=args.c0,
        c_schedule=args.c_schedule,
        eta=args.eta,
        b0=args.b0,
        beta2=args.beta2,
        f_star_policy=args.f_star_policy,
        lower_bound_policy=args.lower_bound,
        lower_bound_value=args.lower_bound_value,
    )
    return runner.RunConfig(
        problem=_problem_spec(args),
        optimizer=args.optimizer,
        stepper=stepper,
        B=args.batch_size,
        K=args.iters,
        seeds=_parse_seeds(args.seeds),
        reference_tol=args.reference_tol,
        out_dir=args.out,
        trace_format=args.format,
        record_every=args.record_every,
    )


def _report_divergence(runs) -> int:
    """3 after one stderr line naming, for each kind of entry, the label and
    seeds of every (label, diagnostics) pair that lists one, else 0."""
    kinds: dict[str, dict[str, list]] = {}  # headline -> label -> seeds
    for label, diagnostics in runs:
        for d in diagnostics:
            head = ("negative stepsizes taken" if d["reason"] == runner.NEGATIVE_STEPSIZE
                    else "non-finite values recorded")
            kinds.setdefault(head, {}).setdefault(label, []).append(d["seed"])
    if not kinds:
        return 0
    named = [f"{head} in " + "; ".join(f"{label} seeds {','.join(map(str, seeds))}"
                                       for label, seeds in labels.items())
             for head, labels in kinds.items()]
    print(f"error: {'; '.join(named)} (see the manifest diagnostics)", file=sys.stderr)
    return 3


def _cmd_run(args) -> int:
    out = runner.run_experiment(_build_run_config(args))
    print(f"trace: {out.trace_path}")
    print(f"aggregate: {out.aggregate_path}")
    print(f"manifest: {out.manifest_path}")
    return _report_divergence([(out.aggregate.label, out.diagnostics)])


def _cmd_sweep(args) -> int:
    missing = [flag for flag, value in (("--sweep-param", args.sweep_param),
                                        ("--sweep-values", args.sweep_values)) if value is None]
    if missing:
        raise ConfigurationError(f"polystep sweep needs {' and '.join(missing)}")
    try:
        values = [float(v) for v in args.sweep_values.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"sweep values must be comma-separated numbers, got {args.sweep_values!r}") from None
    base = _build_run_config(args)
    cfgs = []
    for v in values:
        stepper = dataclasses.replace(base.stepper, **{args.sweep_param: v})
        label = f"{base.problem.name}_{base.optimizer}_{args.sweep_param}_{v:g}"
        cfgs.append(dataclasses.replace(base, stepper=stepper, label=label))
    table = runner.compare_grid(cfgs)
    print(f"{'label':<45} {'final f_sub_avg':>18} {'2*std':>12}")
    for row in table:
        print(f"{row['label']:<45} {row['final_f_sub_avg_mean']:>18.6e} "
              f"{row['final_f_sub_avg_2std']:>12.3e}")
    return _report_divergence([(row["label"], row["diagnostics"]) for row in table])


def _cmd_reference(args) -> int:
    ref = objectives.solve_reference(runner.build_problem(_problem_spec(args)),
                                     args.reference_tol)
    print(json.dumps({
        "f_star": ref.f_star,
        "grad_norm": ref.grad_norm,
        "tol": ref.tol,
        "x_star": ref.x_star.tolist(),
    }))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(prog="polystep")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_problem(p_run)
    _add_run(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="hyperparameter sweep")
    _add_problem(p_sweep)
    _add_run(p_sweep)
    p_sweep.add_argument("--sweep-param",
                         choices=["c0", "gamma_b", "gamma_ell", "eta", "b0", "beta2"])
    p_sweep.add_argument("--sweep-values", type=str, help="comma-separated values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ref = sub.add_parser("reference", help="print the reference solution as JSON")
    _add_problem(p_ref)
    p_ref.set_defaults(func=_cmd_reference)

    try:
        args = _parse_args(parser, sub, argv)
        return args.func(args)
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
