"""Command-line surface: data generation, training, local prediction,
learnability estimation, size estimation, self-verification, TSV sweep
emission, and the theory calculator's recommended run parameters.

Each subcommand declares only the options it reads.  Config precedence is
flags > config file (`key = value` lines) > defaults.  Seeds default to 0,
never to entropy.  Human output rounds to 6 decimal places; --machine, on the
subcommands that print floats, switches to full-precision repr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .core import (LabeledDataset, LabelOracle, Point, RandomnessTape, read_dataset,
                   sample_points, write_dataset, write_trace)
from .estimator import BudgetError, estimate_error, query_budget_report
from .exhaustive import (ConcentrationConfig, check_shallow_splits,
                         check_telescoping, empirical_concentration,
                         exact_size_expectation)
from .impurity import (TheoryParams, builtin_impurities, get_impurity,
                       recommended_params)
from .learners import minibatch_top_down, top_down_full, top_down_size_estimate
from .local import LocalLearnerSession, estimate_size, local_learner
from .targets import (parse_target, random_monotone_tree_target,
                      random_truth_table, sample_dataset)
from .trees import parse_tree, random_partial_tree, serialize_tree


def _fmt(x: float, machine: bool) -> str:
    return repr(float(x)) if machine else f"{float(x):.6f}"


def _parse_point(text: str, d: int) -> Point:
    if len(text) != d or any(c not in "+-" for c in text):
        raise ValueError(f"--x must be a length-{d} string of '+'/'-', got {text!r}")
    return Point.from_signs([1 if c == "+" else -1 for c in text])


def _read(path: str, labeled: bool = False):
    """The dataset in `path`: required to be labeled if `labeled`, else its
    unlabeled view."""
    with open(path, "r", encoding="utf-8") as fh:
        ds = read_dataset(fh)
    if isinstance(ds, LabeledDataset):
        return ds if labeled else ds.unlabeled()
    if labeled:
        raise ValueError(f"{path}: labeled dataset required")
    return ds


def _estimate(t, b, ds, target, test, impurity, tape):
    """The estimator's report and its session, whose global_size() is t'."""
    session = LocalLearnerSession(t, b, ds, LabelOracle(target, ds), impurity, tape)
    return estimate_error(session, test), session


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    target = parse_target(args.target, args.d)
    tape = RandomnessTape(args.seed)
    if args.unlabeled:
        ds = sample_points(target.d, args.n, tape, key="gen-data")
    else:
        ds = sample_dataset(target, args.n, tape, key="gen-data")
    with open(args.out, "w", encoding="utf-8") as fh:
        write_dataset(ds, fh)
    print(f"wrote {args.out} d={args.d} n={args.n} target={args.target}")
    return 0


def cmd_train(args) -> int:
    ds = _read(args.data, labeled=True)
    impurity = get_impurity(args.impurity)
    tape = RandomnessTape(args.seed)
    if args.algo == "full":
        result = top_down_full(args.t, ds, impurity)
    elif args.algo == "minibatch":
        result = minibatch_top_down(args.t, args.b, ds, impurity, tape)
    else:
        result = top_down_size_estimate(args.t, args.b, ds, impurity, tape)
    if args.out_tree:
        with open(args.out_tree, "w", encoding="utf-8") as fh:
            fh.write(serialize_tree(result.tree) + "\n")
    if args.out_trace:
        with open(args.out_trace, "w", encoding="utf-8") as fh:
            write_trace(result.trace, fh)
    line = f"size={result.tree.size} depth={result.tree.depth} splits={len(result.trace)}"
    if result.size_estimate is not None:
        line += f" e={_fmt(result.size_estimate, args.machine)}"
    print(line)
    return 0


def cmd_local_predict(args) -> int:
    ds = _read(args.unlabeled)
    target = parse_target(args.target, ds.d)
    x = _parse_point(args.x, ds.d)
    oracle = LabelOracle(target, ds)
    tape = RandomnessTape(args.seed)
    label = local_learner(args.t, args.b, ds, oracle, x, get_impurity(args.impurity), tape)
    line = f"label={label}"
    if args.report_queries:
        line += f" unique_labels={oracle.query_count} batches={oracle.batches_drawn}"
    print(line)
    return 0


def cmd_estimate(args) -> int:
    ds = _read(args.unlabeled)
    test = _read(args.test, labeled=True)
    target = parse_target(args.target, ds.d)
    report, session = _estimate(args.t, args.b, ds, target, test,
                                get_impurity(args.impurity), RandomnessTape(args.seed))
    # Checked before t' reveals labels; an over-budget run prints its line too.
    try:
        budget = query_budget_report(session.oracle, args.t, args.b, test.n)
    finally:
        t_prime = session.global_size()
        print(f"error={_fmt(report.error, args.machine)} "
              f"unique_labels={report.unique_labels} batches={report.batches_drawn} "
              f"t_prime={t_prime}")
    # Every record fetched is one of the global tree's 2t' - 1 nodes, b labels at most.
    labels, bound = session.oracle.query_count, min(ds.n, args.b * (2 * t_prime - 1))
    if labels > bound:
        raise BudgetError(f"unique labels {labels} exceed budget min(n, b(2t'-1)) = {bound}")
    if args.budget_report:
        with open(args.budget_report, "w", encoding="utf-8") as fh:
            json.dump({"unique_labels": budget.unique_labels,
                       "batches_drawn": budget.batches_drawn,
                       "bound": budget.bound,
                       "phases": budget.phase_counts}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_size_estimate(args) -> int:
    with open(args.tree, "r", encoding="utf-8") as fh:
        tree = parse_tree(fh.read(), args.d)
    tape = RandomnessTape(args.seed)
    strands = tape.uniform_masks(args.d, args.m, "size-estimate")
    e = estimate_size(tree, strands)
    line = f"e={_fmt(e, args.machine)} size={tree.size} m={args.m}"
    if args.exact:
        line += f" expectation={_fmt(exact_size_expectation(tree), args.machine)}"
    print(line)
    return 0


def cmd_verify(args) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name} {detail}".rstrip())

    grid = np.linspace(0.0, 1.0, 1025)
    for g in builtin_impurities():
        vals = np.asarray(g(grid))
        ok = (abs(float(g(0.0))) <= 1e-12 and abs(float(g(1.0))) <= 1e-12
              and abs(float(g(0.5)) - 1.0) <= 1e-12)
        sym = float(np.max(np.abs(vals - vals[::-1])))
        a, bv = np.meshgrid(grid[::8], grid[::8])
        mids = np.asarray(g((a + bv) / 2.0))
        conc = float(np.min(mids - (np.asarray(g(a)) + np.asarray(g(bv))) / 2.0))
        hoelder = float(np.max(np.abs(np.asarray(g(a)) - np.asarray(g(bv)))
                               - g.C * np.abs(a - bv) ** g.alpha))
        report(f"impurity-axioms[{g.name}]",
               ok and sym <= 1e-12 and conc >= -1e-12 and hoelder <= 1e-9,
               f"sym={sym:g} conc={conc:g} hoelder={hoelder:g}")

    rng = np.random.default_rng(args.seed)
    bad = 0
    for _ in range(args.trials):
        d = 8
        tree = random_partial_tree(rng, d, n_leaves=int(rng.integers(1, 10)))
        target = random_truth_table(rng, d)
        leaves = list(tree.labels)
        path = leaves[int(rng.integers(len(leaves)))]
        free = [i for i in range(d) if i not in {c for c, _ in path}]
        if not free:
            continue
        coord = int(free[int(rng.integers(len(free)))])
        g = builtin_impurities()[int(rng.integers(3))]
        if not check_telescoping(g, target, tree, (path, coord)):
            bad += 1
    report("telescoping", bad == 0, f"{bad}/{args.trials} failed")

    bad = 0
    for seed in range(5):
        target = random_monotone_tree_target(np.random.default_rng(1000 + seed), d=10)
        ds = sample_dataset(target, 4096, RandomnessTape(seed), key="verify")
        run = minibatch_top_down(64, 64, ds, get_impurity("gini"), RandomnessTape(seed))
        if not check_shallow_splits(run.trace):
            bad += 1
    report("shallow-splits", bad == 0, f"{bad}/5 traces failed")

    bad = 0
    for _ in range(20):
        tree = random_partial_tree(rng, 10, n_leaves=int(rng.integers(2, 20)))
        if exact_size_expectation(tree) != tree.size:
            bad += 1
    report("size-expectation", bad == 0, f"{bad}/20 trees failed")

    target = parse_target("dictator:1", 8)
    cfg = ConcentrationConfig(target=target, impurity=get_impurity("gini"),
                              leaf_path=(), coord=0, b=256, n=512,
                              seed=args.seed, gain_tolerance=0.25)
    rate = empirical_concentration("gain-accuracy", cfg, trials=min(args.trials, 200))
    report("gain-concentration", rate <= 0.2, f"failure rate {rate:g}")
    rate = empirical_concentration("balance", cfg, trials=min(args.trials, 200))
    report("balance-concentration", rate <= 0.2, f"failure rate {rate:g}")

    print(f"{'ok' if failures == 0 else 'FAILURES'}: {failures} failing check(s)")
    return 1 if failures else 0


def cmd_sweep(args) -> int:
    values = [int(v) for v in args.values.split(",")]
    target = parse_target(args.target, args.d)
    impurity = get_impurity(args.impurity)
    rows = ["\t".join(["param", "error", "unique_labels", "t_prime"])]
    for value in values:
        for seed in range(args.seeds):
            size = {"t": args.t, "b": args.b, "n": args.n, args.vary: value}
            tape = RandomnessTape(args.seed + seed)
            train = sample_points(args.d, size["n"], tape, key="sweep-train")
            test = sample_dataset(target, args.test_n, tape, key="sweep-test")
            report, session = _estimate(size["t"], size["b"], train, target, test, impurity, tape)
            rows.append("\t".join([str(value), _fmt(report.error, args.machine),
                                   str(report.unique_labels), str(session.global_size())]))
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_theory(args) -> int:
    params = TheoryParams(s=args.s, t=args.t, eps=args.eps, delta=args.delta,
                          eta=args.eta, d=args.d)
    rec = recommended_params(params, get_impurity(args.impurity))
    print(f"theory: D={rec.D} b={rec.b} b_min={rec.b_min} b_local={rec.b_local} "
          f"n={rec.n} m={rec.m} delta_gain={_fmt(rec.delta_gain, args.machine)}")
    return 0


# ---------------------------------------------------------------------------
# Parser plumbing
# ---------------------------------------------------------------------------


def build_parser():
    """The `treelab` parser, and per subcommand its options by dest: each
    one's `Action` and whether the command needs it, from the command line or
    a --config file.  Subcommands are registered at call time, so each runs
    the `cmd_*` function the module binds when the parser is built."""
    parser = argparse.ArgumentParser(prog="treelab")
    subs = parser.add_subparsers(dest="command", required=True)
    options = {}

    def sub(name, func, help, seed=True, machine=True, learner=False, t=None):
        p = subs.add_parser(name, help=help)
        p.set_defaults(func=func)
        table = options[name] = {}

        def add(flag, required=False, **kwargs):
            action = p.add_argument(flag, **kwargs)
            table[action.dest] = (action, required)

        if seed:
            add("--seed", type=int, default=0, help="master seed (default 0)")
        if machine:
            add("--machine", action="store_true", help="full-precision output")
        add("--config", help="file of 'key = value' lines; flags take precedence")
        if learner:
            add("--t", required=t is None, type=int, default=t)
            add("--b", type=int, default=64)
            add("--impurity", default="gini")
        return add

    add = sub("gen-data", cmd_gen_data, "sample a dataset from a target", machine=False)
    add("--target", required=True)
    add("--d", required=True, type=int)
    add("--n", required=True, type=int)
    add("--out", required=True)
    add("--unlabeled", action="store_true")

    add = sub("train", cmd_train, "grow a tree from labeled data", learner=True)
    add("--algo", choices=["full", "minibatch", "size-estimate"], default="minibatch")
    add("--data", required=True)
    add("--out-tree")
    add("--out-trace")

    add = sub("local-predict", cmd_local_predict, "label one point with few queries",
              machine=False, learner=True)
    add("--unlabeled", required=True)
    add("--target", required=True)
    add("--x", required=True, help="point as a +/- string, e.g. '+-++'")
    add("--report-queries", action="store_true")

    add = sub("estimate", cmd_estimate, "estimate the would-be tree's test error",
              learner=True)
    add("--unlabeled", required=True)
    add("--target", required=True)
    add("--test", required=True)
    add("--budget-report")

    add = sub("size-estimate", cmd_size_estimate, "strand-based tree size estimate")
    add("--tree", required=True)
    add("--d", required=True, type=int)
    add("--m", type=int, default=256)
    add("--exact", action="store_true")

    add = sub("verify", cmd_verify, "run the brute-force self checks", machine=False)
    add("--trials", type=int, default=100)

    add = sub("sweep", cmd_sweep, "emit a TSV table over a parameter sweep",
              learner=True, t=32)
    add("--vary", required=True, choices=["b", "t", "n"])
    add("--values", required=True, help="comma-separated values")
    add("--seeds", type=int, default=20)
    add("--target", required=True)
    add("--d", required=True, type=int)
    add("--n", type=int, default=4096)
    add("--test-n", type=int, default=200)
    add("--out")

    add = sub("theory", cmd_theory, "print the recommended run parameters", seed=False)
    add("--t", required=True, type=int)
    add("--d", required=True, type=int)
    add("--impurity", default="gini")
    for flag, default in (("--s", 8), ("--eps", 0.25), ("--delta", 0.1), ("--eta", 0.25)):
        add(flag, type=type(default), default=default)

    return parser, options


def _load_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


_FLAG_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def _config_value(action: argparse.Action, raw: str):
    """A config-file value converted and checked as its flag would be."""
    if action.nargs == 0:  # an on/off flag
        if raw.lower() not in _FLAG_VALUES:
            raise ValueError(f"config key {action.dest}: expected a boolean, got {raw!r}")
        return _FLAG_VALUES[raw.lower()]
    value = raw
    if action.type is not None:
        try:
            value = action.type(raw)
        except ValueError:
            raise ValueError(f"config key {action.dest}: invalid "
                             f"{action.type.__name__} value {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {action.dest}: {value!r} is not one of "
                         + ", ".join(map(str, action.choices)))
    return value


_UNSET = object()


def _apply_config(parser, options: dict, cfg: dict, argv: list) -> argparse.Namespace:
    """`argv` parsed with config values for the options the command line does
    not give.  Which those are comes from argparse's own parse with the config
    keys' defaults unset, so abbreviated flags count too.  Values are
    converted in file order: of several bad ones, the file's first is
    reported, however the options are declared."""
    actions = {key: options[key][0] for key in cfg if key in options}
    for action in actions.values():
        action.default = _UNSET
    args = parser.parse_args(argv)
    for key, action in actions.items():
        if getattr(args, key) is _UNSET:
            setattr(args, key, _config_value(action, cfg[key]))
    return args


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, options = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            cfg = _load_config(args.config)
            known = {dest for table in options.values() for dest in table} - {"config"}
            unknown = [key for key in cfg if key not in known]
            if unknown:
                raise ValueError(f"unknown config key {unknown[0]!r}")
            args = _apply_config(parser, options[args.command], cfg, argv)
        missing = [action.option_strings[0]
                   for action, required in options[args.command].values()
                   if required and getattr(args, action.dest) is None]
        if missing:
            raise ValueError("missing required option(s): " + ", ".join(missing))
        return args.func(args)
    except (OSError, ValueError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
