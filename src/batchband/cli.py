"""Command-line entry point for simulations, checks, replay, and plots.

Subcommands
-----------
simulate
    Sweep (env x policy x batch size) cells and write results.csv,
    curves.csv, and optionally plot.svg.
check-bounds
    Monte-Carlo check of the regret sandwich for one (policy, env, b);
    exit 1 when a gated inequality fails.
check-assumptions
    Run the assumption verifiers and write assumptions.csv; exit 1 when a
    gated verdict is violated.
replay
    Offline replay evaluation of policies on a logged-data CSV.
presets
    List the bundled Bernoulli environments.
plot
    Render a curves.csv file to plot.svg.

Every flag can also come from a flat key=value config file with one
section per subcommand; explicit flags override file values, which
override defaults.  All runs echo their fully-resolved configuration as
``# key = value`` lines.  Exit codes: 0 success, 1 gated-check failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, replace

from .assumptions import (
    UnsupportedPolicyError,
    check_lemma31,
    check_monotone_envelope,
    check_negated_sublinearity,
    check_sublinearity,
    mean_rule_trace,
    probe_informativeness,
)
from .core import _interval, derive_seed, make_grid, write_csv
from .environments import PRESETS, DataError, parse_env, read_logged_csv
from .harness import (
    ConfigError,
    ExperimentConfig,
    _cell_policy,
    _cell_seeds,
    _reject_repeats,
    check_theorem_bounds,
    resolve_threads,
    run_experiment,
)
from .meta import MonotoneBound
from .plotting import curves_csv_to_plot_data, table_to_plot_data, write_plot_svg
from .policies import POLICY_NAMES, make_policy
from .replay import check_uniform_log, relative_cr, replay_evaluate, write_replay_csv
from .specifications import Readings, run_online

ASSUMPTIONS_CSV_HEADER = ["check", "subject", "verdict", "statistic", "ci_low", "ci_high"]
BOUNDS_CSV_HEADER = [
    "inequality", "lhs_label", "rhs_label", "lhs", "rhs", "stderr", "verdict", "gate",
]


def _strs(s: str, sep: str = ","):
    out = tuple(x.strip() for x in s.split(sep) if x.strip())
    if not out:
        raise ConfigError(f"empty list value {s!r}")
    return out


def _envs(s: str):
    """Environment list: ';' separates envs, each a preset or inline means.

    Without a ';', a comma list made only of presets is a preset list and
    anything else is one inline mean vector.
    """
    if ";" in s:
        return _strs(s, ";")
    names = _strs(s)
    return names if all(x in PRESETS for x in names) else (s.strip(),)


def _ints(s: str):
    try:
        return tuple(int(x) for x in _strs(s))
    except ValueError as exc:
        raise ConfigError(f"bad integer list {s!r}") from exc


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {s!r}")


def _int(s: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise ConfigError(f"bad integer {s!r}") from exc


def _float(s: str) -> float:
    try:
        return float(s)
    except ValueError as exc:
        raise ConfigError(f"bad number {s!r}") from exc


@dataclass(frozen=True)
class Field:
    """One resolvable option: flag value > config-file value > default."""

    name: str
    conv: object
    default: object
    help_text: str

    def add_to(self, parser):
        option = "--" + self.name.replace("_", "-")
        if self.conv is _bool:
            parser.add_argument(
                option, action="store_true", default=None,
                help=f"{self.help_text} (default: {self.default})",
            )
        else:
            parser.add_argument(
                option, type=str, default=None, metavar=self.name.upper(),
                help=f"{self.help_text} (default: {self.default})",
            )


SIMULATE_FIELDS = [
    Field("env", _envs, ("env1",),
          "presets separated by ',' (env1,env6), or envs separated by ';', "
          "each a preset or inline means (0.7,0.5;env3)"),
    Field("policy", _strs, ("ucb",), f"comma-separated policies from {', '.join(POLICY_NAMES)}"),
    Field("n", _int, 2000, "horizon before grid truncation"),
    Field("b", _ints, (1, 2, 4, 8, 16, 32, 64), "comma-separated batch sizes"),
    Field("reps", _int, 500, "repetitions per cell"),
    Field("seed", _int, 0, "master seed for all derived streams"),
    Field("mode", str, "plain", "plain | delayed_start | approx_delayed_start"),
    Field("delta", _float, 0.01, "certification failure budget (approx mode)"),
    Field("bound", str, "instance", "certify from 'instance' estimates or 'oracle' means"),
    Field("ucb_c", _float, None, "UCB exploration constant override"),
    Field("switch_t", _int, None, "two_phase switch step override"),
    Field("threads", _int, None, "working processes, caller included (or BATCHBAND_THREADS)"),
    Field("out_dir", str, ".", "output directory"),
    Field("plot", _bool, False, "also write plot.svg"),
]

BOUNDS_FIELDS = [
    Field("policy", str, "ucb", "single policy name"),
    Field("env", str, "env1", "preset or inline means"),
    Field("n", _int, 1000, "horizon before grid truncation"),
    Field("b", _int, 10, "batch size (must be >= 2)"),
    Field("reps", _int, 200, "repetitions per estimated quantity"),
    Field("seed", _int, 0, "master seed"),
    Field("ucb_c", _float, None, "UCB exploration constant override"),
    Field("switch_t", _int, None, "two_phase switch step override"),
    Field("threads", _int, None, "working processes, caller included (or BATCHBAND_THREADS)"),
    Field("out_dir", str, ".", "output directory for bounds.csv"),
]

ASSUMPTIONS_FIELDS = [
    Field("policy", str, "ucb", "single finite-armed policy name"),
    Field("env", str, "env1", "preset or inline means"),
    Field("n", _int, 400, "horizon for curve-based checks"),
    Field("b", _int, 8, "batch size for the reversal check"),
    Field("reps", _int, 100, "repetitions per check"),
    Field("seed", _int, 0, "master seed"),
    Field("min_t", _int, 50, "first step judged by the regret-rate check"),
    Field("probe_t", _int, 10, "history length for the informativeness probe"),
    Field("ucb_c", _float, None, "UCB exploration constant override"),
    Field("switch_t", _int, None, "two_phase switch step override"),
    Field("out_dir", str, ".", "output directory for assumptions.csv"),
]

REPLAY_FIELDS = [
    Field("data", str, None, "logged-data CSV path (required)"),
    Field("policy", _strs, ("ucb",), "comma-separated target policies"),
    Field("b", _ints, (1,), "comma-separated batch sizes"),
    Field("seed", _int, 0, "master seed"),
    Field("baseline", str, "uniform", "baseline policy for relative CR, or 'none'"),
    Field("ucb_c", _float, None, "UCB exploration constant override"),
    Field("out_dir", str, ".", "output directory for replay.csv"),
]

PLOT_FIELDS = [
    Field("curves", str, "curves.csv", "input curves.csv path"),
    Field("out", str, "plot.svg", "output SVG path"),
]


def _resolve(args, fields, section: str) -> dict:
    """Merge flag, config-file, and default values; echo the result."""
    file_vals: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        cp = configparser.ConfigParser()
        if not cp.read(config_path):
            raise ConfigError(f"config file {config_path!r} not found")
        known = {f.name for f in fields}
        if cp.has_section(section):
            for key, val in cp.items(section):
                key = key.replace("-", "_")
                if key not in known:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                file_vals[key] = val
    resolved = {}
    for f in fields:
        flag_val = getattr(args, f.name)
        if flag_val is not None:
            resolved[f.name] = f.conv(flag_val) if isinstance(flag_val, str) else flag_val
        elif f.name in file_vals:
            resolved[f.name] = f.conv(file_vals[f.name])
        else:
            resolved[f.name] = f.default
    for f in fields:
        val = resolved[f.name]
        if isinstance(val, tuple):
            items = [str(v) for v in val]
            val = (";" if any("," in v for v in items) else ",").join(items)
        print(f"# {f.name} = {val}")
    return resolved


def _write(out_dir: str, name: str, write) -> None:
    """Write ``out_dir/name`` with ``write(path)`` and say so on stdout."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    write(path)
    print(f"wrote {path}")


def _hyper_params(opts: dict, policies) -> dict:
    params: dict = {}
    for key, name in (("ucb_c", "ucb"), ("switch_t", "two_phase")):
        if opts.get(key) is not None:
            if name not in policies:
                raise ConfigError(f"--{key.replace('_', '-')} applies to {name} only")
            params[name] = {key: opts[key]}
    return params


def cmd_simulate(args) -> int:
    opts = _resolve(args, SIMULATE_FIELDS, "simulate")
    cfg = ExperimentConfig(
        envs=opts["env"],
        policies=opts["policy"],
        n=opts["n"],
        batch_sizes=opts["b"],
        reps=opts["reps"],
        master_seed=opts["seed"],
        mode=opts["mode"],
        delta=opts["delta"],
        bound_from=opts["bound"],
        policy_params=_hyper_params(opts, opts["policy"]),
    )
    threads = resolve_threads(opts["threads"])
    print(f"# threads_resolved = {threads}")
    table = run_experiment(cfg, threads=threads)
    _write(opts["out_dir"], "results.csv", table.to_results_csv)
    _write(opts["out_dir"], "curves.csv", table.to_curves_csv)
    if opts["plot"]:
        _write(opts["out_dir"], "plot.svg",
               lambda path: write_plot_svg(table_to_plot_data(table), path))
    return 0


def cmd_check_bounds(args) -> int:
    opts = _resolve(args, BOUNDS_FIELDS, "check-bounds")
    threads = resolve_threads(opts["threads"])
    print(f"# threads_resolved = {threads}")
    params = _hyper_params(opts, (opts["policy"],)).get(opts["policy"], {})
    report = check_theorem_bounds(
        opts["policy"], opts["env"], opts["n"], opts["b"], opts["reps"],
        master_seed=opts["seed"], policy_params=params, threads=threads,
    )
    rows = []
    for iq in report.inequalities:
        gate = "pass" if iq.gate_pass else "fail"
        print(
            f"{iq.name}: {iq.lhs_label} = {iq.lhs:.4f} <= {iq.rhs_label} = "
            f"{iq.rhs:.4f} | verdict {iq.verdict} | gate {gate}"
        )
        rows.append([iq.name, iq.lhs_label, iq.rhs_label, iq.lhs, iq.rhs, iq.stderr,
                     iq.verdict, gate])
    _write(opts["out_dir"], "bounds.csv",
           lambda path: write_csv(path, BOUNDS_CSV_HEADER, [zip(*rows)]))
    return 0 if report.gate_pass else 1


def _norm_verdict(v: str) -> str:
    return {"holds": "consistent", "fails": "violated"}.get(v, v)


def cmd_check_assumptions(args) -> int:
    opts = _resolve(args, ASSUMPTIONS_FIELDS, "check-assumptions")
    env_spec = opts["env"]
    env = parse_env(env_spec)
    name = opts["policy"]
    params = _hyper_params(opts, (name,)).get(name, {})
    n, reps, seed = opts["n"], opts["reps"], opts["seed"]
    for flag, ok, need in (
        ("reps", reps >= 2, ">= 2 for standard errors"),
        ("n", n > env.k, f"above the arm count {env.k} for the averaging check"),
        ("b", 1 <= opts["b"] <= n, f"in 1..{n}"),
        ("min_t", 1 <= opts["min_t"] <= n, f"in 1..{n}"),
        ("probe_t", opts["probe_t"] >= 2, ">= 2"),
        *((flag, opts[flag] <= sys.maxsize,
           f"at most {sys.maxsize}, the largest size numpy indexes")
          for flag in ("n", "reps", "probe_t")),
    ):
        if not ok:
            flag_name = "--" + flag.replace("_", "-")
            raise ConfigError(f"check-assumptions needs {flag_name} {need}, got {opts[flag]}")
    if name == "ucb":
        MonotoneBound(env.means)  # the envelope check needs a unique best arm
    policy = _cell_policy(name, env, n, params)
    grid, trace_n = make_grid(n, opts["b"]), min(n, 200)
    rows = []

    # every simulated row reads the online cell of simulate and check-bounds
    # at these flags, from one run on that cell's seeds
    config = ExperimentConfig((env_spec,), (name,), n, (1,), reps, seed)
    cell = run_online(policy, env, n, _cell_seeds(config, env_spec, name, 1, policy.draws),
                      keep=Readings(reps, min(n, 500), (grid.n - 1, grid.M - 1)))
    actions, mean, stderr = cell.actions[:reps], cell.mean[0], cell.stderr[0]
    sub = check_sublinearity(mean, stderr, min_t=opts["min_t"])
    verdict = "consistent" if sub.holds else "violated"
    rate, rate_se = float(mean[-1]) / n, float(stderr[-1]) / n
    rows.append(
        ("sublinearity", f"{name}|{env_spec}|online|n={n}|t>={opts['min_t']}",
         verdict, rate, *_interval(rate, rate_se))
    )

    lem = check_lemma31(mean_rule_trace(policy, actions[:, :trace_n])[env.k :], env.instance())
    rows.append(
        ("averaging-prefix", f"{name}|{env_spec}|online|n={trace_n}|t>{env.k}",
         _norm_verdict(lem.prefix_verdict), float(lem.prefix_values[-1]), None, None)
    )
    rows.append(
        ("averaging-pointwise", f"{name}|{env_spec}|online|n={trace_n}|t>{env.k}",
         _norm_verdict(lem.pointwise_verdict), float(lem.values[-1]), None, None)
    )

    probe = probe_informativeness(
        policy, env, t=opts["probe_t"], reps=max(reps, 200),
        master_seed=derive_seed(seed, "probe"),
    )
    rows.append(
        ("informativeness", f"{name}|{env_spec}|t={opts['probe_t']}",
         probe.verdict, probe.mean_diff, probe.ci_low, probe.ci_high)
    )

    if name == "ucb":
        envl = check_monotone_envelope(policy, env, actions)
        rows.append(
            ("monotone-envelope", f"{name}|{env_spec}|t<={envl.t_max}",
             envl.verdict, len(envl.violations), None, None)
        )

    neg = check_negated_sublinearity(*cell.regret[:reps].T, grid.b)
    rows.append(
        ("sublinearity-reversal", f"{name}|{env_spec}|b={opts['b']}",
         _norm_verdict(neg.verdict), neg.d, *_interval(neg.d, neg.stderr))
    )

    gated = {"sublinearity", "monotone-envelope"}
    # the probe's direction is only a stated property for posterior-sampling
    # policies; index policies can reverse it through the exploration bonus,
    # so for them the row is advisory
    if name == "ts":
        gated.add("informativeness")
    for row in rows:
        marker = "gated" if row[0] in gated else "advisory"
        print(f"{row[0]}: {row[2]} [{marker}] ({row[1]})")
    _write(opts["out_dir"], "assumptions.csv",
           lambda path: write_csv(path, ASSUMPTIONS_CSV_HEADER, [zip(*rows)]))
    return int(any(row[0] in gated and row[2] == "violated" for row in rows))


def cmd_replay(args) -> int:
    opts = _resolve(args, REPLAY_FIELDS, "replay")
    if not opts["data"]:
        raise ConfigError("replay needs --data pointing at a logged-data CSV")
    data = read_logged_csv(opts["data"])
    # a uniform log over k arms logs every action with probability 1/k
    k = round(1.0 / data.probs[0])
    if k < 2:
        raise DataError(f"line 2: logging_prob {data.probs[0]} is not 1/k for any k >= 2")
    hyper = _hyper_params(opts, (*opts["policy"], opts["baseline"]))
    _reject_repeats("policy", opts["policy"])
    _reject_repeats("batch size", opts["b"])
    if min(opts["b"]) < 1:
        raise ConfigError(f"batch size {min(opts['b'])} must be >= 1")

    def mk(name):
        policy = make_policy(name, k, data.contexts.shape[1] or None, hyper.get(name, {}))
        check_uniform_log(data, policy)
        return policy

    # every policy is built and checked against the log before the first
    # replay, so a policy or log that cannot be replayed fails before any work
    base_name = opts["baseline"]
    runs = [] if base_name == "none" else [(base_name, 1, mk(base_name))]
    for name in opts["policy"]:
        policy = mk(name)
        runs += [(name, b, policy) for b in opts["b"]]
    results = [
        replay_evaluate(policy, data, b, derive_seed(opts["seed"], "replay", name, b))
        for name, b, policy in runs
    ]
    if base_name != "none":
        base = results[0] = replace(results[0], policy=f"baseline({base_name})")
        if base.defined and base.cr > 0:
            results = [replace(r, relative_cr=relative_cr(r, base)) if r.defined else r
                       for r in results]
    for r in results:
        cr = "undefined" if r.cr is None else f"{r.cr:.4f}"
        rel = "" if r.relative_cr is None else f" relative={r.relative_cr:.4f}"
        print(f"{r.policy} b={r.b}: matched={r.matched} cr={cr}{rel}")
    _write(opts["out_dir"], "replay.csv", lambda path: write_replay_csv(results, path))
    return 0


def cmd_presets(args) -> int:
    for name, means in PRESETS.items():
        env = parse_env(name)
        gap = env.gap_vector()
        means_s = ",".join(repr(float(m)) for m in means)
        gaps_s = ",".join(repr(float(g)) for g in gap)
        print(f"{name}: means=[{means_s}] gaps=[{gaps_s}] optimal_arm={env.optimal_arm}")
    return 0


def cmd_plot(args) -> int:
    opts = _resolve(args, PLOT_FIELDS, "plot")
    groups = curves_csv_to_plot_data(opts["curves"])
    write_plot_svg(groups, opts["out"])
    print(f"wrote {opts['out']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchband",
        description="Batched-bandit simulations, bound checks, and replay evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("simulate", SIMULATE_FIELDS, cmd_simulate,
         "run the (env x policy x batch size) sweep"),
        ("check-bounds", BOUNDS_FIELDS, cmd_check_bounds,
         "Monte-Carlo check of the regret sandwich"),
        ("check-assumptions", ASSUMPTIONS_FIELDS, cmd_check_assumptions,
         "run the assumption verifier suite"),
        ("replay", REPLAY_FIELDS, cmd_replay,
         "offline replay evaluation on logged data"),
        ("plot", PLOT_FIELDS, cmd_plot,
         "render curves.csv to an SVG chart"),
    ]
    for name, fields, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        for f in fields:
            f.add_to(p)
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value config file with a "
                            f"[{name}] section (flags override)")
        p.set_defaults(func=func)
    p = sub.add_parser("presets", help="list bundled Bernoulli environments")
    p.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, UnsupportedPolicyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
