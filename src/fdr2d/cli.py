"""Command-line front end.

Four subcommands: analyze (threshold selection on real data files),
simulate (synthetic factor grids), grid-dump (the full decision
surface for plotting), preprocess (count-matrix preparation). All
outputs are plain text written atomically; exit codes are 0 on
success, 1 for validation problems, 2 for runtime failures.
"""

import argparse
import dataclasses
import functools
import json
import os
import shutil
import sys
import time

import numpy as np

from . import engine, glm, io, preprocess, samplers, sim, stats

# namespace entries that are not settings of a run: a config file may
# not hold them and result.json does not echo them
_NOT_SETTINGS = ("command", "config", "out")


def _add_run_flags(p, stat, sampler, data):
    """Flags that set one run of the procedure; data adds the input files
    and the binned-perm bins. Each flag's default is declared here only."""
    if data:
        p.add_argument("--x", help="exposure matrix file")
        p.add_argument("--y", help="outcome/feature matrix file")
        p.add_argument("--z", help="confounder matrix file")
    kinds = ("glm:<family>" if kind == "glm" else kind for kind in stats._EVALUATORS)
    p.add_argument("--stat", default=stat, help="|".join(kinds))
    p.add_argument("--sampler", default=sampler, help="|".join(samplers._SAMPLERS))
    p.add_argument("--b", type=int, default=100, help="number of resampling draws")
    p.add_argument("--q", type=float, default=engine.ProcedureConfig.q, help="target error level")
    p.add_argument("--method", default="mf2d-fdr", help="|".join(engine.METHODS))
    p.add_argument("--pi0-lambda", dest="pi0_lambda", help="'auto' or a threshold")
    p.add_argument("--spline-df", dest="spline_df", type=int)
    p.add_argument("--epsilon", type=float, default=engine.StatisticSpec.epsilon,
                   help="conditional-kernel ridge")
    p.add_argument("--grid", default=engine.ProcedureConfig.grid, help="quantile:<G>|observed")
    if data:
        p.add_argument("--bin-col", dest="bin_col", type=int, default=0,
                       help="confounder column index for binned-perm")
        p.add_argument("--bin-edges", dest="bin_edges",
                       help="comma-separated bin edges for binned-perm")
    p.add_argument("--nb-size", dest="nb_size", type=float, default=3.0,
                   help="negative binomial size parameter")
    p.add_argument("--path-steps", dest="path_steps", type=int,
                   default=engine.ProcedureConfig.path_steps)


def _add_common_flags(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", required=True, help="output file path")


def _add_data_command_flags(p):
    _add_run_flags(p, "glm:gaussian", "residual-perm", data=True)
    _add_common_flags(p)


def _add_simulate_flags(p):
    # --stat/--sampler default to None: each dgp's own statistic and sampler
    _add_run_flags(p, None, None, data=False)
    _add_common_flags(p)
    p.add_argument("--dgp", type=int, default=1)
    p.add_argument("--n", type=int, default=sim.SimConfig.n)
    p.add_argument("--m", type=int, default=sim.SimConfig.m)
    p.add_argument("--rho", default="1.0", help="comma-separated confounding degrees")
    p.add_argument("--pi", default="0.1", help="comma-separated signal densities")
    p.add_argument("--l", default="0.3", help="comma-separated effect sizes")
    p.add_argument("--reps", type=int, default=sim.SimConfig.reps)
    p.add_argument("--ar1", type=float, help="AR(1) error coefficient")
    p.add_argument("--pi-alpha", dest="pi_alpha", type=float)
    p.add_argument("--pi-beta", dest="pi_beta", type=float)
    p.add_argument("--global-null", dest="global_null", action="store_true")


def _add_preprocess_flags(p):
    p.add_argument("--y", help="count matrix file")
    p.add_argument("--prevalence-min", dest="prevalence_min", type=float, default=0.0)
    p.add_argument("--rarefy", action="store_true")
    p.add_argument("--clr", action="store_true")
    p.add_argument("--binarize", action="store_true")
    p.add_argument("--pseudocount", type=float, default=0.5)
    _add_common_flags(p)


def _build_parser(command):
    """(parser, {command: subparser}). Every subcommand is listed, but only
    the named one gets its flags and its -h: each add_argument builds a
    help formatter, so flags nobody parses are not built. Every parser's
    formatter takes the width argparse would probe for, probed once
    here, not once per formatter."""
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = argparse.ArgumentParser(
        prog="fdr2d",
        description="Joint marginal/conditional threshold selection with FDR control",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=text, add_help=name == command, formatter_class=formatter)
    if command in _SUBCOMMANDS:
        _SUBCOMMANDS[command][1](sub.choices[command])
    return parser, sub.choices


def _settings(cfg):
    return {k: v for k, v in cfg.items() if k not in _NOT_SETTINGS}


def _with_config(parser, command, args, argv):
    """Parse again with the --config file's settings as the command's
    defaults, so defaults < config file < explicit flags. A leading UTF-8
    byte-order mark in the file is dropped."""
    path = args.config
    if not os.path.exists(path):
        raise ValueError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            fromfile = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path}: {exc}") from None
    if not isinstance(fromfile, dict):
        raise ValueError(f"config file {path}: expected a JSON object")
    unknown = sorted(set(fromfile) - set(_settings(vars(args))))
    if unknown:
        raise ValueError(f"config file {path}: unknown keys {', '.join(unknown)}")
    actions = {action.dest: action for action in command._actions}
    for key, value in fromfile.items():
        try:
            fromfile[key] = _config_value(actions[key], value)
        except ValueError as exc:
            raise ValueError(f"config file {path}: {key}: {exc}") from None
    command.set_defaults(**fromfile)
    return parser.parse_args(argv)


def _config_value(action, value):
    """A config file's value for one flag, as the flag would parse it: a
    bool for a store_true flag, null where the flag defaults to None, and
    otherwise text or a number that the flag's type takes exactly."""
    if isinstance(action, argparse._StoreTrueAction):
        if isinstance(value, bool):
            return value
        raise ValueError(f"expected true or false, got {json.dumps(value)}")
    if value is None and action.default is None:
        return None
    kind = action.type or str
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            typed = kind(value)
        except (ValueError, OverflowError):
            pass
        else:
            # a number must come through unchanged: 2.5 is no int
            if isinstance(value, str) or kind is str or typed == value:
                return typed
    raise ValueError(f"expected {kind.__name__}, got {json.dumps(value)}")


def _require_files(cfg, keys):
    for key in keys:
        path = cfg.get(key)
        if not path:
            raise ValueError(f"--{key} is required for this command")
        if not os.path.exists(path):
            raise ValueError(f"{key} file not found: {path}")


def _statistic_from(cfg):
    token = cfg["stat"]
    spline_df = cfg["spline_df"] if cfg["spline_df"] is not None else engine.StatisticSpec.spline_df
    size = cfg["nb_size"] if token.strip() == "glm:negbinom" else None
    return engine.StatisticSpec.from_token(
        token, size=size, spline_df=spline_df, epsilon=cfg["epsilon"]
    )


def _procedure_from(cfg):
    # each field of ProcedureConfig is set by the flag of its name
    fields = dataclasses.fields(engine.ProcedureConfig)
    return engine.ProcedureConfig(**{f.name: cfg[f.name] for f in fields})


def _check_settings(cfg):
    """Refuse an invalid statistic, sampler or seed setting whether or
    not the run reads it: result.json echoes every setting."""
    for key in ("epsilon", "nb_size"):
        if not (np.isfinite(cfg[key]) and cfg[key] > 0.0):
            raise ValueError(f"--{key.replace('_', '-')} must be a finite positive number")
    _check_seed(cfg)
    if cfg.get("bin_edges") is not None:
        _bin_edges(cfg["bin_edges"])


def _check_seed(cfg):
    # every command's streams derive from the seed's words
    if cfg["seed"] < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {cfg['seed']}")


def _bin_edges(raw):
    try:
        edges = np.array(_floats(raw))
    except ValueError:
        raise ValueError(f"--bin-edges {raw!r} is not a comma-separated list of numbers") from None
    if not np.all(np.diff(edges) > 0.0):
        raise ValueError("--bin-edges must be strictly increasing")
    return edges


def _needs_bins(cfg):
    sampler = samplers._SAMPLERS.get(cfg["sampler"])
    return sampler is not None and sampler.binned


def _plan_from(cfg, dataset=None):
    # a sampler that needs bins reads --bin-col and --bin-edges, and
    # ResamplePlan refuses it without them
    bins = {}
    if _needs_bins(cfg) and cfg["bin_edges"]:
        column = int(cfg["bin_col"])
        if dataset is not None and not 0 <= column < dataset.d:
            raise ValueError(f"bin-col {column} out of range for {dataset.d} confounders")
        bins = {"bin_column": column, "bin_edges": _bin_edges(cfg["bin_edges"])}
    return engine.ResamplePlan(
        cfg["sampler"], b_count=cfg["b"], seed=cfg["seed"], spline_df=cfg["spline_df"], **bins
    )


def _load_analysis_dataset(cfg):
    # the statistic and the method are refused before any file is read
    spec = _statistic_from(cfg)
    engine.check_methods([cfg["method"]], spec)
    _require_files(cfg, ("x", "y", "z"))
    y_kind = glm.FAMILIES[spec.family].y_kind if spec.kind == "glm" else None
    dataset = io.load_dataset(cfg["x"], cfg["y"], cfg["z"], y_kind=y_kind)
    return dataset, spec


def _cmd_analyze(cfg):
    # every echoed setting is checked, also those the run does not read
    _check_settings(cfg)
    procedure = _procedure_from(cfg)
    dataset, spec = _load_analysis_dataset(cfg)
    started = time.perf_counter()
    answer = _tensor_answer if engine.reads_tensor(cfg["method"]) else _pvalue_answer
    rejected, thresholds, set_aside, columns = answer(cfg, dataset, spec, procedure)
    names = dataset.feature_names
    doc = {
        "method": cfg["method"],
        "config": _settings(cfg),
        "n": dataset.n,
        "m": dataset.m,
        "q": cfg["q"],
        **thresholds,
        "n_rejected": int(rejected.size),
        "rejected_features": [names[j] for j in rejected],
        **set_aside,
        "runtime_seconds": time.perf_counter() - started,
    }
    rows = zip(names, *columns.values(), np.isin(np.arange(dataset.m), rejected))
    io.save_table(_features_path(cfg["out"]), ("feature", *columns, "rejected"), rows)
    _write_json(cfg["out"], doc)
    return 0


def _pvalue_answer(cfg, dataset, spec, procedure):
    # (rejected, {}, {}, features.tsv's p-value column) of a method that
    # reads model p-values
    pvalues, rejected = engine.bh_rejections(dataset, spec, procedure.q)
    return rejected, {}, {}, {"pvalue": pvalues}


def _tensor_answer(cfg, dataset, spec, procedure):
    # (rejected, result.json's thresholds, its zero-variance features,
    # features.tsv's observed statistics and fbar shares) of a search
    tensor = engine.build_tensor(dataset, _plan_from(cfg, dataset), spec)
    result = engine.apply_method(tensor, procedure, cfg["method"])
    keys = ("t1", "t2", "fdp_estimate", "pi0", "pi0_lambda")
    thresholds = {key: getattr(result, key) for key in keys}
    zero_variance = [dataset.feature_names[j] for j in np.flatnonzero(tensor.zero_variance)]
    columns = {
        "t_marginal": tensor.pairs[0, :, 0],
        "t_conditional": tensor.pairs[0, :, 1],
        "fbar": engine.fbar(tensor, np.arange(dataset.m), result.t1, result.t2),
    }
    return result.rejected, thresholds, {"zero_variance_features": zero_variance}, columns


def _features_path(out):
    root, ext = os.path.splitext(out)
    return f"{root}.features.tsv"


def _write_json(path, doc):
    # strict JSON (RFC 8259) has no number for a non-finite float, so
    # each is written as its string: "inf", "-inf" or "nan"
    def clean(v):
        if isinstance(v, dict):
            return {k: clean(e) for k, e in v.items()}
        if isinstance(v, list):
            return [clean(e) for e in v]
        return str(v) if isinstance(v, float) and not np.isfinite(v) else v

    io._atomic_write(path, [json.dumps(clean(doc), indent=2, allow_nan=False) + "\n"])


def _cmd_grid_dump(cfg):
    _check_settings(cfg)
    dataset, spec = _load_analysis_dataset(cfg)
    procedure = _procedure_from(cfg)
    plan = _plan_from(cfg, dataset)
    tensor = engine.build_tensor(dataset, plan, spec)
    # the grid, pi0 and counts of the search analyze makes
    found = engine.search(tensor, procedure, ["mf2d-fdr"])
    sumf, robs, crit = found.surface
    t2s = found.grid.t2_values.tolist()
    # rows are made as the table is written, one grid row of floats at a time
    rows = (
        (t1, t2, s, r, c)
        for a, t1 in enumerate(found.grid.t1_values.tolist())
        for t2, s, r, c in zip(t2s, sumf[a].tolist(), robs[a].tolist(), crit[a].tolist())
    )
    io.save_table(cfg["out"], ("t1", "t2", "sum_fbar", "rejections", "fdp_tilde"), rows)
    return 0


def _floats(raw):
    return [float(v) for v in str(raw).split(",")]


def _cmd_simulate(cfg):
    methods = [m.strip() for m in str(cfg["method"]).split(",")]
    _check_settings(cfg)
    if _needs_bins(cfg):
        raise ValueError(f"simulate cannot use the {cfg['sampler']} sampler: it takes no bin edges")
    if cfg["spline_df"] is not None and not (cfg["stat"] or cfg["sampler"]):
        # each dgp's default statistic and sampler carry their own spline df
        raise ValueError("--spline-df needs --stat or --sampler in simulate")
    procedure = _procedure_from(cfg)
    statistic = _statistic_from(cfg) if cfg["stat"] else None
    # each replication reseeds the plan from its own substream
    plan = _plan_from(cfg) if cfg["sampler"] else None
    rows = []
    for rho in _floats(cfg["rho"]):
        for pi in _floats(cfg["pi"]):
            for l in _floats(cfg["l"]):
                scenario = sim.SimConfig(
                    dgp=cfg["dgp"],
                    n=cfg["n"],
                    m=cfg["m"],
                    rho=rho,
                    pi=pi,
                    l=l,
                    reps=cfg["reps"],
                    seed=cfg["seed"],
                    procedure=procedure,
                    statistic=statistic,
                    sampler=plan,
                    pi_alpha=cfg["pi_alpha"],
                    pi_beta=cfg["pi_beta"],
                    ar1_errors=cfg["ar1"],
                    global_null=cfg["global_null"],
                )
                # a new plan, so its checks refuse a bad --b before any data;
                # a statistic with a size, the dgp's default too, reads --nb-size
                scenario.sampler = dataclasses.replace(scenario.sampler, b_count=cfg["b"])
                spec = scenario.statistic
                if spec.size is not None:
                    scenario.statistic = dataclasses.replace(spec, size=cfg["nb_size"])
                table = sim.run_method_comparison(scenario, methods)
                for method in methods:
                    s = table[method]
                    rows.append(
                        (cfg["dgp"], rho, pi, l, method, s.fdr, s.fdr_se,
                         s.power, s.power_se, s.reps_completed, s.reps_failed)
                    )
    io.save_table(
        cfg["out"],
        ("dgp", "rho", "pi", "l", "method", "fdr", "fdr_se", "power", "power_se",
         "reps_completed", "reps_failed"),
        rows,
    )
    return 0


def _cmd_preprocess(cfg):
    _check_seed(cfg)
    _require_files(cfg, ("y",))
    counts, names = io.load_matrix(cfg["y"])
    out, kept = preprocess.preprocess_counts(
        counts,
        prevalence_min=cfg["prevalence_min"],
        rarefy=cfg["rarefy"],
        clr=cfg["clr"],
        binarize=cfg["binarize"],
        seed=cfg["seed"],
        pseudocount=cfg["pseudocount"],
    )
    io.save_matrix(cfg["out"], out, [names[j] for j in kept])
    return 0


# subcommand: (help line, the function that adds its flags, the command)
_SUBCOMMANDS = {
    "analyze": ("threshold selection on data files", _add_data_command_flags, _cmd_analyze),
    "grid-dump": ("decision surface as a long table", _add_data_command_flags, _cmd_grid_dump),
    "simulate": ("synthetic factor-grid experiments", _add_simulate_flags, _cmd_simulate),
    "preprocess": ("count-matrix preparation", _add_preprocess_flags, _cmd_preprocess),
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option but -h, so the first word
    # that is not an option names the subcommand
    parser, commands = _build_parser(next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = _with_config(parser, commands[args.command], args, argv)
        return _SUBCOMMANDS[args.command][2](vars(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - contract: runtime failures exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
