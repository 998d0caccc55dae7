"""The three benchmark workloads: what each builds, times and checks.

A workload pass has three parts, run in one fresh interpreter by
`worker.py`: `setup` builds the inputs from an input seed, `run` is the
timed region, and `check` compares the outputs with independent library
results once timing has stopped.  treelab is imported lazily, so that
`run.py` can load this module without importing the library.

Every workload uses the read-once DNF target below with gini impurity.  At
d=20 it covers every coordinate, has mean label 0.41, and lets both learners
reach their full tree size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "dnf:1&2|3&4&5|6&7&8&9|10&11&12&13&14|15&16&17&18&19&20"
CLI_TARGET = "dnf:1&2|3&4&5|6&7&8&9|10&11&12&13&14"  # its first four terms
TRAIN_POOL = 64
TRAIN_DIGESTS = os.path.join(HERE, "train_digests.json")
# Scratch space for the cli workload's files, inside the checkout.
WORK_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_runs")


def derive_seed(*parts) -> int:
    """A 32-bit seed that is a pure function of its parts."""
    digest = hashlib.blake2b(":".join(map(str, parts)).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def _points_and_test(d: int, n: int, n_test: int, seed: int):
    """n unlabeled uniform points and an n_test-point test set labeled by
    TARGET.  The points are those sample_dataset(key='train') would draw,
    but unlabeled: labeling them is left to the timed region."""
    from treelab import core, targets

    target = targets.parse_target(TARGET, d)
    tape = core.RandomnessTape(seed)
    points = core.UnlabeledDataset(d, tape.uniform_masks(d, n, core.DATA_DOMAIN, "train"))
    test = targets.sample_dataset(target, n_test, tape, key="test")
    return target, tape, points, test


def _gini():
    from treelab.impurity import get_impurity

    return get_impurity("gini")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What a timed pass hands to the checks and the metrics."""

    digest: dict          # operation -> text identifying its output exactly
    unique_labels: int
    test_points: int      # test points scored in the pass
    scoring_s: float = 0.0  # time spent scoring them; 0 means the whole pass
    detail: object = None


class Workload:
    """A named set of operations, timed on `input_sets` inputs per run."""

    name: str
    input_sets: int
    ops: tuple               # operations one pass performs and checks
    imports = ("treelab",)   # imported as part of set-up

    def input_seeds(self, seed: int) -> list:
        return [derive_seed(self.name, seed, k) for k in range(self.input_sets)]

    def cleanup(self, inp: dict) -> None:
        """Remove whatever setup left outside memory."""


class Estimate(Workload):
    """One estimate_learnability call: the paper's headline path."""

    name = "estimate"
    input_sets = 7
    ops = ("estimate",)
    d, n, t, b, n_test = 20, 1 << 20, 64, 256, 300

    def setup(self, seed: int) -> dict:
        target, tape, points, test = _points_and_test(self.d, self.n, self.n_test, seed)
        return {"target": target, "tape": tape, "points": points, "test": test}

    def run(self, inp: dict) -> Outcome:
        from treelab import core, estimator

        oracle = core.LabelOracle(inp["target"], inp["points"])
        report = estimator.estimate_learnability(self.t, self.b, inp["points"], oracle,
                                                 inp["test"], _gini(), inp["tape"])
        digest = json.dumps({"error": report.error, "unique_labels": report.unique_labels,
                             "batches": report.batches_drawn,
                             "phases": report.phase_counts}, sort_keys=True)
        return Outcome({"estimate": digest}, report.unique_labels, self.n_test,
                       detail=(oracle, report))

    def check(self, inp: dict, out: Outcome) -> dict:
        """The estimator must equal the direct test error of the tree the
        global size-estimate learner grows, and stay within the label budget."""
        import numpy as np
        from treelab import core, estimator, learners, trees

        oracle, report = out.detail
        failures = []
        try:
            estimator.query_budget_report(oracle, self.t, self.b, self.n_test)
        except estimator.BudgetError as exc:
            failures.append(str(exc))
        masks = inp["points"].masks
        labeled = core.LabeledDataset(self.d, masks, inp["target"].eval_masks(masks))
        tree = learners.top_down_size_estimate(self.t, self.b, labeled, _gini(),
                                               inp["tape"]).tree
        test = inp["test"]
        wrong = int(np.count_nonzero(trees.evaluate_masks(tree, test.masks) != test.labels))
        if report.error != wrong / test.n:
            failures.append(f"error {report.error!r} != direct error {wrong / test.n!r}")
        return {"estimate": failures}


class Train(Workload):
    """Minibatch then full-batch growth over 2^20 labeled points.

    Outputs are checked against digests recorded when the benchmark landed,
    so a run draws its input sets from a pool of TRAIN_POOL recorded ones.
    """

    name = "train"
    input_sets = 4
    ops = ("minibatch_top_down", "top_down_full")
    d, n, n_test = 20, 1 << 20, 300
    t_mb, b_mb, t_full = 1024, 128, 256

    def input_seeds(self, seed: int) -> list:
        first = derive_seed(self.name, seed)
        return [self.pool_seed((first + k) % TRAIN_POOL) for k in range(self.input_sets)]

    def pool_seed(self, index: int) -> int:
        return derive_seed(self.name, "pool", index)

    def setup(self, seed: int) -> dict:
        target, tape, points, test = _points_and_test(self.d, self.n, self.n_test, seed)
        return {"seed": seed, "target": target, "tape": tape, "points": points, "test": test}

    def run(self, inp: dict) -> Outcome:
        """Label the points (a global learner needs every label), grow both
        trees, save them with their traces, and score them on the test set."""
        import numpy as np
        from treelab import core, learners, trees

        masks = inp["points"].masks
        labeled = core.LabeledDataset(self.d, masks, inp["target"].eval_masks(masks))
        g = _gini()
        results = {
            "minibatch_top_down": learners.minibatch_top_down(self.t_mb, self.b_mb, labeled,
                                                              g, inp["tape"]),
            "top_down_full": learners.top_down_full(self.t_full, labeled, g),
        }
        test = inp["test"]
        digest = {}
        for op, res in results.items():
            trace = io.StringIO()
            core.write_trace(res.trace, trace)
            wrong = int(np.count_nonzero(trees.evaluate_masks(res.tree, test.masks)
                                         != test.labels))
            digest[op] = sha256(f"{trees.serialize_tree(res.tree)}\n{trace.getvalue()}"
                                f"wrong={wrong}\n")
        return Outcome(digest, labeled.n, len(results) * test.n)

    def check(self, inp: dict, out: Outcome, expected: dict = None) -> dict:
        """Each tree and trace must match the digest recorded for its input."""
        if expected is None:
            with open(TRAIN_DIGESTS, "r", encoding="utf-8") as fh:
                expected = json.load(fh)
        recorded = expected.get(str(inp["seed"]), {})
        return {op: [] if recorded.get(op) == out.digest[op]
                else [f"digest {out.digest[op]} != recorded {recorded.get(op)}"]
                for op in self.ops}


def _fields(text: str) -> dict:
    """key=value tokens of a CLI output line."""
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


class Cli(Workload):
    """The demo pipeline, run in-process through treelab.cli.main."""

    name = "cli"
    input_sets = 7
    ops = ("gen-data-labeled", "gen-data-unlabeled", "gen-data-test", "train",
           "local-predict", "estimate")
    imports = ("treelab", "treelab.cli")
    d, n, n_test = 16, 1 << 16, 200
    t_train, b_train, t, b = 256, 128, 64, 128

    def setup(self, seed: int, workdir: str = None) -> dict:
        import numpy as np

        workdir = workdir or WORK_DIR
        os.makedirs(workdir, exist_ok=True)
        work = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        rng = np.random.default_rng(seed)
        data_seed, test_seed, learn_seed = (str(int(s)) for s in rng.integers(0, 2**31, 3))
        x = "".join("+" if s else "-" for s in rng.integers(0, 2, self.d))
        f = {k: os.path.join(work, k) for k in
             ("train.txt", "train_u.txt", "test.txt", "mb.tree", "mb.trace")}
        gen = ["gen-data", "--target", CLI_TARGET, "--d", str(self.d)]
        learn = ["--seed", learn_seed, "--target", CLI_TARGET, "--unlabeled", f["train_u.txt"]]
        steps = [
            ("gen-data-labeled", gen + ["--n", str(self.n), "--seed", data_seed,
                                        "--out", f["train.txt"]]),
            ("gen-data-unlabeled", gen + ["--n", str(self.n), "--seed", data_seed,
                                          "--out", f["train_u.txt"], "--unlabeled"]),
            ("gen-data-test", gen + ["--n", str(self.n_test), "--seed", test_seed,
                                     "--out", f["test.txt"]]),
            ("train", ["train", "--algo", "minibatch", "--t", str(self.t_train),
                       "--b", str(self.b_train), "--seed", learn_seed,
                       "--data", f["train.txt"], "--out-tree", f["mb.tree"],
                       "--out-trace", f["mb.trace"]]),
            ("local-predict", ["local-predict", "--t", str(self.t), "--b", str(self.b),
                               f"--x={x}", "--report-queries"] + learn),
            ("estimate", ["estimate", "--t", str(self.t), "--b", str(self.b),
                          "--test", f["test.txt"], "--machine"] + learn),
        ]
        return {"work": work, "files": f, "steps": steps, "x": x,
                "learn_seed": int(learn_seed)}

    def cleanup(self, inp: dict) -> None:
        shutil.rmtree(inp["work"], ignore_errors=True)

    def run(self, inp: dict) -> Outcome:
        from treelab import cli

        results = {}
        for op, argv in inp["steps"]:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code
                except Exception:  # recorded and reported as a failed command
                    code = traceback.format_exc()
            results[op] = (code, out.getvalue(), err.getvalue(), time.perf_counter() - start)
        texts = {op: f"{code}\n{text.replace(inp['work'], '<work>')}"
                 for op, (code, text, _, _) in results.items()}
        for name in ("mb.tree", "mb.trace"):
            if os.path.exists(inp["files"][name]):
                with open(inp["files"][name], "r", encoding="utf-8") as fh:
                    texts["train"] += fh.read()
        digest = {op: sha256(text) for op, text in texts.items()}
        labels = sum(int(_fields(results[op][1]).get("unique_labels", 0))
                     for op in ("local-predict", "estimate"))
        return Outcome(digest, labels, self.n_test, scoring_s=results["estimate"][3],
                       detail=results)

    def check(self, inp: dict, out: Outcome) -> dict:
        """Every command exits 0, and the label=, error= and unique_labels=
        fields equal the library's results on the same files."""
        from treelab import core, estimator, local, targets

        failures = {op: [] for op in self.ops}
        for op, (code, _, err, _) in out.detail.items():
            if code != 0:
                failures[op].append(f"exit {code}: {err.strip()[-300:]}")
        if any(failures.values()):
            return failures
        f = inp["files"]
        with open(f["train_u.txt"], "r", encoding="utf-8") as fh:
            points = core.read_dataset(fh)
        with open(f["test.txt"], "r", encoding="utf-8") as fh:
            test = core.read_dataset(fh)
        target = targets.parse_target(CLI_TARGET, self.d)
        x = core.Point.from_signs([1 if c == "+" else -1 for c in inp["x"]])
        tape = core.RandomnessTape(inp["learn_seed"])
        oracle = core.LabelOracle(target, points)
        label = local.local_learner(self.t, self.b, points, oracle, x, _gini(), tape)
        want = {"label": str(label), "unique_labels": str(oracle.query_count)}
        got = _fields(out.detail["local-predict"][1])
        failures["local-predict"] += [f"{k}={got.get(k)} != library {v}"
                                      for k, v in want.items() if got.get(k) != v]
        oracle = core.LabelOracle(target, points)
        report = estimator.estimate_learnability(self.t, self.b, points, oracle, test,
                                                 _gini(), tape)
        want = {"error": repr(float(report.error)), "unique_labels": str(report.unique_labels)}
        got = _fields(out.detail["estimate"][1])
        failures["estimate"] += [f"{k}={got.get(k)} != library {v}"
                                 for k, v in want.items() if got.get(k) != v]
        return failures


WORKLOADS = {w.name: w for w in (Estimate(), Train(), Cli())}
