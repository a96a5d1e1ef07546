"""Command-line interface.

Subcommands:
  run        one (problem, optimizer) experiment over a seed set
  sweep      grid of runs varying one stepper hyperparameter
  reference  solve the full-batch problem and print x*, f* and ||grad f(x*)||
             to stdout as one JSON object; it takes only the problem flags,
             --reference-tol and --config

Each flag that sets a config field takes its default, type and choices from
it. The library checks the configs built from the flags, each setting that
needs no problem before any dataset is read. The CLI declares the flags not
named after their field (``_KEYS``), the fields with no flag (``_NO_FLAG``),
what no field states (``_FLAG_ARGS``) and --seeds, --config and the sweep flags.

Exit codes: 0 success; 2 a bad config or input, before any work; 3 a run that
recorded inf or nan or took a negative stepsize, after writing every output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import objectives, runner
from .core import ConfigurationError
from .runner import ProblemSpec, RunConfig
from .steppers import StepperConfig

# field -> config-file key (the flag's dest) where the flag is not named after
# its field; the flag is the key with "-" for "_", but lam's flag is --lambda
_KEYS = {"name": "problem", "dataset_path": "dataset", "B": "batch_size", "K": "iters",
         "lower_bound_policy": "lower_bound", "out_dir": "out", "trace_format": "format"}
# the nested configs, the seeds (--seeds) and the fields left at their defaults
_NO_FLAG = {"problem", "stepper", "seeds", "eps_adam", "x0_scale", "label", "f_star_policy"}
# what a field does not state: a default where it has none, help
_FLAG_ARGS = {
    "name": dict(default="synthetic"),
    "dataset_path": dict(help="path for --problem dataset"),
    "optimizer": dict(default="decsps"),
}
_SWEEP_PARAMS = ("c0", "gamma_b", "gamma_ell", "eta", "b0", "beta2")
# the flags of reference, besides --config
_PROBLEM_FIELDS = {f.name for f in dataclasses.fields(ProblemSpec)} | {"reference_tol"}


def _add_fields(p: argparse.ArgumentParser, cls, problem: bool) -> None:
    """A flag, with the field's default, for each field of ``cls`` that has
    one and is, or is not, a problem field, as ``problem`` says. A bool field
    gets an on/off flag, a field with choices takes one of its strings as it
    is, and any other converts to the type its annotation names (float, int or
    else str)."""
    for f in dataclasses.fields(cls):
        if f.name in _NO_FLAG or (f.name in _PROBLEM_FIELDS) != problem:
            continue
        key = _KEYS.get(f.name, f.name)
        kw = {"default": f.default, **_FLAG_ARGS.get(f.name, {})}
        if f.type == "bool":
            kw["action"] = "store_true"
        elif "choices" in f.metadata:
            kw["choices"] = f.metadata["choices"]
        else:
            kw["type"] = {"float": float, "int": int}.get(f.type, str)
        p.add_argument("--lambda" if key == "lam" else "--" + key.replace("_", "-"),
                       dest=key, **kw)


def _add_problem(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_fields(p, ProblemSpec, problem=True)
    _add_fields(p, RunConfig, problem=True)


def _add_run(p: argparse.ArgumentParser) -> None:
    _add_fields(p, RunConfig, problem=False)
    p.add_argument("--seeds", default=str(len(RunConfig.seeds)),  # the default 0..4 as its count
                   help="seed count N (seeds 0..N-1) or comma-separated list")
    _add_fields(p, StepperConfig, problem=False)


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
    string and must give back any other value unchanged (so 2.5 is no int).
    The library and ``_cmd_sweep`` check a choice, whose flag has no type."""
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(val, bool):
            raise ConfigurationError(f"config key {key!r} must be true or false, got {val!r}")
        return val
    if action.type is None:
        return val
    try:
        converted = action.type(val)
        if isinstance(val, bool) or not isinstance(val, str) and converted != val:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"config key {key!r} expects {action.type.__name__}, got {val!r}") from None
    return converted


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


def _from_flags(cls, args, **given):
    """A ``cls`` whose fields with a flag take the flag's value in ``args``, the
    others ``given`` or their defaults."""
    return cls(**{f.name: getattr(args, _KEYS.get(f.name, f.name))
                  for f in dataclasses.fields(cls) if f.name not in _NO_FLAG}, **given)


def _run_config(args) -> RunConfig:
    return _from_flags(RunConfig, args, problem=_from_flags(ProblemSpec, args),
                       stepper=_from_flags(StepperConfig, args), seeds=_parse_seeds(args.seeds))


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
    out = runner.run_experiment(_run_config(args))
    print(f"trace: {out.trace_path}")
    print(f"aggregate: {out.aggregate_path}")
    print(f"manifest: {out.manifest_path}")
    return _report_divergence([(out.aggregate.label, out.diagnostics)])


def _cmd_sweep(args) -> int:
    missing = [flag for flag, value in (("--sweep-param", args.sweep_param),
                                        ("--sweep-values", args.sweep_values)) if value is None]
    if missing:
        raise ConfigurationError(f"polystep sweep needs {' and '.join(missing)}")
    if args.sweep_param not in _SWEEP_PARAMS:  # a config-file value; argparse checks the flag
        raise ConfigurationError(f"unknown sweep param {args.sweep_param!r}; "
                                 f"expected one of {', '.join(_SWEEP_PARAMS)}")
    read_by = {f.name: f.metadata["read_by"] for f in dataclasses.fields(StepperConfig)}
    reads = [p for p in _SWEEP_PARAMS if args.optimizer in read_by[p]]
    # every run would be the same; an unknown optimizer reads none, and the library names it
    if reads and args.sweep_param not in reads:
        raise ConfigurationError(f"optimizer {args.optimizer} does not read {args.sweep_param}; "
                                 f"sweep one of {', '.join(reads)}")
    try:
        values = [float(v) for v in args.sweep_values.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"sweep values must be comma-separated numbers, got {args.sweep_values!r}") from None
    base = _run_config(args)
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
    objectives._check_tol(args.reference_tol)  # before the problem, as a run checks it
    ref = objectives.solve_reference(runner.build_problem(_from_flags(ProblemSpec, args)),
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
    p_sweep.add_argument("--sweep-param", choices=_SWEEP_PARAMS)
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
