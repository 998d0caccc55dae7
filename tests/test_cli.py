import argparse
import hashlib
import io
import json
import statistics

import pytest

from treelab.cli import build_parser, main
from treelab.core import LabelOracle, read_trace, write_trace
from treelab.estimator import query_budget_report
from treelab.impurity import ENTROPY, GINI, TheoryParams, recommended_params
from treelab.targets import Majority, ReadOnceDNF, parse_target
from treelab.trees import parse_tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def workdir(tmp_path, capsys):
    """Pre-generated labeled/unlabeled/test files for one DNF target."""
    spec = "dnf:1|2&3|4&5&6"
    labeled = tmp_path / "train.txt"
    unlabeled = tmp_path / "train_u.txt"
    test = tmp_path / "test.txt"
    for args in (
        ["gen-data", "--target", spec, "--d", "10", "--n", "2048", "--seed", "3",
         "--out", str(labeled)],
        ["gen-data", "--target", spec, "--d", "10", "--n", "2048", "--seed", "3",
         "--out", str(unlabeled), "--unlabeled"],
        ["gen-data", "--target", spec, "--d", "10", "--n", "200", "--seed", "99",
         "--out", str(test)],
    ):
        assert main(args) == 0
    capsys.readouterr()
    return dict(spec=spec, labeled=labeled, unlabeled=unlabeled, test=test,
                tmp=tmp_path)


class TestTrain:
    def test_tree_file_parses(self, workdir, capsys):
        tree_file = workdir["tmp"] / "out.tree"
        trace_file = workdir["tmp"] / "out.trace"
        code, out, _ = run_cli(
            capsys, "train", "--algo", "minibatch", "--t", "16", "--b", "32",
            "--impurity", "gini", "--seed", "7", "--data", str(workdir["labeled"]),
            "--out-tree", str(tree_file), "--out-trace", str(trace_file))
        assert code == 0
        tree = parse_tree(tree_file.read_text(), 10)
        assert tree.size <= 16
        assert out.startswith("size=")
        assert len(trace_file.read_text().splitlines()) == tree.size - 1

    def test_written_traces_read_back_byte_identical(self, tmp_path, capsys):
        # The demo's training file and learner settings, for every learner.
        data = tmp_path / "train.txt"
        assert main(["gen-data", "--target", "dnf:1|2&3|4&5&6", "--d", "10", "--n", "8192",
                     "--seed", "3", "--out", str(data)]) == 0
        for algo in ("full", "minibatch", "size-estimate"):
            trace = tmp_path / f"{algo}.trace"
            code, _, _ = run_cli(capsys, "train", "--algo", algo, "--t", "32", "--b", "64",
                                 "--seed", "7", "--data", str(data), "--out-trace", str(trace))
            text = trace.read_text(encoding="utf-8")
            again = io.StringIO()
            with open(trace, encoding="utf-8") as fh:
                write_trace(read_trace(fh), again)
            assert code == 0 and len(text.splitlines()) > 1 and again.getvalue() == text

    def test_all_algorithms_run(self, workdir, capsys):
        for algo in ("full", "minibatch", "size-estimate"):
            code, out, _ = run_cli(
                capsys, "train", "--algo", algo, "--t", "8",
                "--data", str(workdir["labeled"]))
            assert code == 0 and out.startswith("size=")

    def test_unlabeled_data_rejected(self, workdir, capsys):
        code, _, err = run_cli(capsys, "train", "--t", "8",
                               "--data", str(workdir["unlabeled"]))
        assert code == 1 and "labeled" in err


class TestEstimate:
    def _args(self, workdir, *extra):
        return ["estimate", "--t", "16", "--b", "32", "--seed", "7",
                "--unlabeled", str(workdir["unlabeled"]), "--target",
                workdir["spec"], "--test", str(workdir["test"])] + list(extra)

    def test_output_line_shape(self, workdir, capsys):
        code, out, _ = run_cli(capsys, *self._args(workdir))
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert set(fields) == {"error", "unique_labels", "batches", "t_prime"}
        assert 0.0 <= float(fields["error"]) <= 1.0

    def test_repeated_runs_byte_identical(self, workdir, capsys):
        _, first, _ = run_cli(capsys, *self._args(workdir))
        _, second, _ = run_cli(capsys, *self._args(workdir))
        assert first == second

    def test_budget_report_written(self, workdir, capsys):
        report = workdir["tmp"] / "budget.json"
        code, _, _ = run_cli(capsys, *self._args(workdir, "--budget-report",
                                                 str(report)))
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["unique_labels"] <= payload["bound"]
        assert "phases" in payload

    def test_budget_report_counts_equal_printed_counts(self, workdir, capsys):
        # At b = 16, t' reveals 6 labels in one batch after the estimate;
        # the report counts none of them.
        report = workdir["tmp"] / "budget.json"
        code, out, _ = run_cli(capsys, *self._args(workdir, "--b", "16",
                                                   "--budget-report", str(report)))
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        payload = json.loads(report.read_text())
        assert str(payload["unique_labels"]) == fields["unique_labels"]
        assert str(payload["batches_drawn"]) == fields["batches"]

    # Where t' comes from must not change a byte of either output.  The
    # bound is n = 2048, below b(2^(D+2) - 1) = 8160 and (b + 200)(D+1)b + b
    # = 52000 at D = 6.
    MACHINE_LINE = "error=0.0 unique_labels=479 batches=25 t_prime=13\n"
    BUDGET_JSON = ('{\n  "batches_drawn": 25,\n  "bound": 2048,\n  "phases": {\n'
                   '    "strand-forest": 366,\n    "test-points": 113\n  },\n'
                   '  "unique_labels": 479\n}\n')

    def test_machine_line_and_budget_report_pinned(self, workdir, capsys):
        report = workdir["tmp"] / "budget.json"
        code, out, err = run_cli(capsys, *self._args(workdir, "--machine",
                                                     "--budget-report", str(report)))
        assert (code, out, err) == (0, self.MACHINE_LINE, "")
        assert report.read_text() == self.BUDGET_JSON

    def test_over_budget_run_prints_its_line_then_fails(self, workdir, capsys,
                                                        monkeypatch):
        # A depth limit of -1 makes the bound b = 32 labels.
        monkeypatch.setattr("treelab.estimator.depth_limit", lambda t: -1)
        report = workdir["tmp"] / "budget.json"
        code, out, err = run_cli(capsys, *self._args(workdir, "--machine",
                                                     "--budget-report", str(report)))
        assert (code, out) == (1, self.MACHINE_LINE)
        assert err == "error: unique labels 479 exceed budget 32\n"
        assert not report.exists()

    def test_labels_beyond_the_global_tree_print_the_line_then_fail(self, workdir, capsys,
                                                                    monkeypatch):
        # With t' = 1 the global tree is one node of at most b = 32 labels.
        monkeypatch.setattr("treelab.local.LocalLearnerSession.global_size", lambda self: 1)
        code, out, err = run_cli(capsys, *self._args(workdir, "--machine"))
        assert (code, out) == (1, self.MACHINE_LINE.replace("t_prime=13", "t_prime=1"))
        assert err == "error: unique labels 479 exceed budget min(n, b(2t'-1)) = 32\n"

    def test_budget_checked_without_a_report_file(self, workdir, capsys, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return query_budget_report(*args)

        monkeypatch.setattr("treelab.cli.query_budget_report", spy)
        code, out, err = run_cli(capsys, *self._args(workdir, "--machine"))
        assert (code, out, err, len(calls)) == (0, self.MACHINE_LINE, "", 1)

    def test_over_budget_run_fails_without_a_report_file(self, workdir, capsys,
                                                         monkeypatch):
        monkeypatch.setattr("treelab.estimator.depth_limit", lambda t: -1)
        code, out, err = run_cli(capsys, *self._args(workdir, "--machine"))
        assert (code, out) == (1, self.MACHINE_LINE)
        assert err == "error: unique labels 479 exceed budget 32\n"

    def test_machine_mode_full_precision(self, workdir, capsys):
        _, human, _ = run_cli(capsys, *self._args(workdir))
        _, machine, _ = run_cli(capsys, *self._args(workdir, "--machine"))
        err_h = human.split()[0].split("=")[1]
        err_m = machine.split()[0].split("=")[1]
        assert len(err_h.split(".")[1]) == 6
        assert float(err_h) == pytest.approx(float(err_m), abs=1e-6)


class TestLocalPredict:
    def test_prediction_and_queries(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "local-predict", "--t", "16", "--b", "32", "--seed", "7",
            "--unlabeled", str(workdir["unlabeled"]), "--target", workdir["spec"],
            "--x", "+---------", "--report-queries")
        assert code == 0
        assert out.startswith("label=1")
        assert "unique_labels=" in out

    def test_bad_point_string(self, workdir, capsys):
        code, _, err = run_cli(
            capsys, "local-predict", "--t", "16", "--unlabeled",
            str(workdir["unlabeled"]), "--target", workdir["spec"], "--x", "+-")
        assert code == 1 and "--x" in err


class TestSizeEstimate:
    def test_estimate_and_exact(self, workdir, capsys):
        tree_file = workdir["tmp"] / "t.tree"
        run_cli(capsys, "train", "--t", "8", "--data", str(workdir["labeled"]),
                "--out-tree", str(tree_file))
        code, out, _ = run_cli(capsys, "size-estimate", "--tree", str(tree_file),
                               "--d", "10", "--m", "4096", "--exact")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["expectation"]) == float(fields["size"])
        assert abs(float(fields["e"]) - float(fields["size"])) < 2.0


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "40")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 6


class TestSweep:
    def test_tsv_shape_and_error_trend(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.tsv"
        code, _, _ = run_cli(
            capsys, "sweep", "--vary", "b", "--values", "8,16,32,64",
            "--seeds", "20", "--target", "dnf:1|2&3|4&5&6", "--d", "10",
            "--n", "2048", "--t", "32", "--test-n", "200",
            "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].split("\t") == ["param", "error", "unique_labels", "t_prime"]
        assert len(lines) == 1 + 4 * 20
        by_b = {}
        for line in lines[1:]:
            b, err, labels, t_prime = line.split("\t")
            by_b.setdefault(int(b), []).append(float(err))
        medians = [statistics.median(by_b[b]) for b in (8, 16, 32, 64)]
        inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a + 1e-12)
        assert inversions <= 1, medians


    SWEEP = ["sweep", "--vary", "b", "--target", "majority", "--d", "9", "--n", "512",
             "--t", "8", "--test-n", "50", "--seed", "4", "--machine"]

    def test_tsv_text_pinned(self, capsys):
        code, out, _ = run_cli(capsys, *self.SWEEP, "--values", "16,32", "--seeds", "2")
        assert code == 0
        assert out == ("param\terror\tunique_labels\tt_prime\n"
                       "16\t0.32\t158\t7\n16\t0.2\t201\t8\n"
                       "32\t0.3\t351\t9\n32\t0.28\t311\t9\n")

    def test_target_parsed_once_per_sweep(self, capsys, monkeypatch):
        # A tree: target reads its file on every parse.
        parsed = []

        def counted(spec, d):
            parsed.append(spec)
            return parse_target(spec, d)

        monkeypatch.setattr("treelab.cli.parse_target", counted)
        code, out, _ = run_cli(capsys, *self.SWEEP, "--values", "16,32", "--seeds", "2")
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 2
        assert parsed == ["majority"]

    def test_row_evaluates_target_on_revealed_plus_test_points(self, capsys, monkeypatch):
        # The target labels the test set once, and the oracle evaluates it
        # only on the points it reveals, t' included; drawing the training
        # set labels none.
        evaluated, oracles = [], []
        eval_masks = Majority.eval_masks

        def counted(target, masks):
            labels = eval_masks(target, masks)
            evaluated.append(len(labels))
            return labels

        class Kept(LabelOracle):
            def __init__(self, *args):
                super().__init__(*args)
                oracles.append(self)

        monkeypatch.setattr(Majority, "eval_masks", counted)
        monkeypatch.setattr("treelab.cli.LabelOracle", Kept)
        code, out, _ = run_cli(capsys, *self.SWEEP, "--values", "16", "--seeds", "1")
        assert code == 0 and len(out.splitlines()) == 2
        (oracle,) = oracles
        assert evaluated[0] == 50 and sum(evaluated) == oracle.query_count + 50
        labels, t_prime = map(int, out.split()[-2:])
        assert 0 < labels <= oracle.query_count <= 16 * (2 * t_prime - 1) < 512


class TestTheory:
    # The line `train --theory` printed for the demo's d = 10, t = 32 run.
    LINE = ("theory: D=7 b=60362 b_min=43606007295 b_local=3329 n=9657881 m=384 "
            "delta_gain=0.000174\n")

    def test_theory_line(self, capsys):
        code, out, err = run_cli(capsys, "theory", "--t", "16", "--d", "10",
                                 "--s", "4", "--eps", "0.25")
        assert (code, err, len(out.splitlines())) == (0, "", 1)
        assert out.startswith("theory: D=6 ") and "b_min=" in out and "delta_gain=" in out

    def test_theory_line_pinned(self, capsys):
        assert run_cli(capsys, "theory", "--t", "32", "--d", "10") == (0, self.LINE, "")

    def test_theory_line_machine_precision(self, capsys):
        rec = recommended_params(TheoryParams(s=8, t=32, eps=0.25, delta=0.1, eta=0.25,
                                              d=10), GINI)
        code, out, err = run_cli(capsys, "theory", "--t", "32", "--d", "10", "--machine")
        assert (code, err) == (0, "")
        assert out == self.LINE.replace("0.000174", repr(rec.delta_gain))

    def test_theory_line_reads_every_knob(self, capsys):
        rec = recommended_params(TheoryParams(s=16, t=64, eps=0.1, delta=0.05, eta=0.2,
                                              d=20), ENTROPY)
        code, out, err = run_cli(capsys, "theory", "--t", "64", "--d", "20",
                                 "--impurity", "entropy", "--s", "16", "--eps", "0.1",
                                 "--delta", "0.05", "--eta", "0.2", "--machine")
        assert (code, err) == (0, "")
        assert out == (f"theory: D={rec.D} b={rec.b} b_min={rec.b_min} "
                       f"b_local={rec.b_local} n={rec.n} m={rec.m} "
                       f"delta_gain={rec.delta_gain!r}\n")

    def test_out_of_range_target_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "theory", "--t", "32", "--d", "10", "--eps", "0.7")
        assert (code, out) == (1, "")
        assert err == "error: eps must lie in (0, 1/2), got 0.7\n"


class TestConfigAndErrors:
    def test_unknown_flag_exits_with_usage(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--t", "8", "--data", str(workdir["labeled"]),
                  "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_file_reports_path(self, capsys):
        code, _, err = run_cli(capsys, "train", "--t", "8", "--data",
                               "/nonexistent/data.txt")
        assert code == 1 and "/nonexistent/data.txt" in err

    def test_config_file_supplies_defaults_flags_win(self, workdir, capsys):
        cfg = workdir["tmp"] / "run.cfg"
        cfg.write_text("t = 4\nb = 16\nimpurity = entropy\n")
        # config supplies t, b, impurity
        code, out, _ = run_cli(capsys, "train", "--data", str(workdir["labeled"]),
                               "--config", str(cfg), "--t", "0")
        assert code == 0  # explicit --t 0 beats config's 4; degenerates to 1
        assert out.startswith("size=1")
        tree_file = workdir["tmp"] / "cfg.tree"
        code, out, _ = run_cli(capsys, "train", "--data", str(workdir["labeled"]),
                               "--config", str(cfg), "--out-tree", str(tree_file))
        assert code == 0
        assert parse_tree(tree_file.read_text(), 10).size <= 4

    @pytest.mark.parametrize("argv, text, expected", [
        (["train", "--t", "8"], "algo = bogus\n", "config key algo: 'bogus'"),
        (["sweep", "--values", "8", "--target", "majority", "--d", "5"],
         "vary = bogus\n", "config key vary: 'bogus'"),
        (["train", "--algo", "full"], "t = abc\n", "config key t: invalid int"),
        (["train", "--t", "8"], "machine = maybe\n", "config key machine"),
        (["train", "--t", "8"], "b 16\n", "'b 16'"),
    ])
    def test_bad_config_values_are_errors(self, workdir, capsys, argv, text, expected):
        cfg = workdir["tmp"] / "bad.cfg"
        cfg.write_text(text)
        if argv[0] == "train":
            argv = argv + ["--data", str(workdir["labeled"])]
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and expected in err

    @pytest.mark.parametrize("text, key", [("b = x\nt = y\n", "b"),
                                           ("t = y\nb = x\n", "t")],
                             ids=["b-first", "t-first"])
    def test_first_bad_config_value_in_file_order_is_reported(self, workdir, capsys,
                                                               text, key):
        cfg = workdir["tmp"] / "two.cfg"
        cfg.write_text(text)
        code, _, err = run_cli(capsys, "train", "--data", str(workdir["labeled"]),
                               "--config", str(cfg))
        assert code == 1 and err.startswith(f"error: config key {key}: invalid int")

    @pytest.mark.parametrize("flag", ["--algo", "--al"])
    def test_given_flag_skips_its_config_value_even_abbreviated(self, workdir,
                                                                 capsys, flag):
        cfg = workdir["tmp"] / "algo.cfg"
        cfg.write_text("algo = nope\n")
        code, out, err = run_cli(capsys, "train", "--t", "2", "--data",
                                 str(workdir["labeled"]), flag, "full",
                                 "--config", str(cfg))
        assert code == 0 and err == "" and out.startswith("size=2")

    def test_abbreviated_config_flag_is_read(self, workdir, capsys):
        cfg = workdir["tmp"] / "abbrev.cfg"
        cfg.write_text("t = 4\nmachine = yes\n")
        code, out, _ = run_cli(capsys, "train", "--data", str(workdir["labeled"]),
                               "--conf", str(cfg), "--mach")
        assert code == 0 and out.startswith("size=4")

    @pytest.mark.parametrize("text, flags", [
        ("machine = yes\nexact = off\n", ["--machine"]),
        ("machine = 0\nexact = On\n", ["--exact"]),
    ])
    def test_config_file_sets_on_off_flags(self, tmp_path, capsys, text, flags):
        tree = tmp_path / "t.tree"
        tree.write_text("(split 1 (leaf 0) (split 2 (leaf 1) (leaf 0)))\n")
        cfg = tmp_path / "flags.cfg"
        cfg.write_text(text)
        argv = ["size-estimate", "--tree", str(tree), "--d", "4", "--m", "64"]
        want = run_cli(capsys, *argv, *flags)
        assert want[0] == 0 and want != run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--config", str(cfg)) == want

    @pytest.mark.parametrize("text, key", [
        ("tt = 4\nimpurty = entropy\n", "tt"),
        ("b = 16\nimpurty = entropy\n", "impurty"),
        ("slack-bb = 2\n", "slack_bb"),
        ("theory = on\n", "theory"),
        ("help = 1\n", "help"),
        ("config = other.cfg\n", "config"),
    ])
    def test_unknown_config_keys_are_errors(self, workdir, capsys, text, key):
        cfg = workdir["tmp"] / "typo.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "train", "--t", "8", "--data",
                                 str(workdir["labeled"]), "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == f"error: unknown config key {key!r}\n"

    @pytest.mark.parametrize("command, missing", [
        ("gen-data", "--target, --d, --n, --out"),
        ("train", "--t, --data"),
        ("local-predict", "--t, --unlabeled, --target, --x"),
        ("estimate", "--t, --unlabeled, --target, --test"),
        ("size-estimate", "--tree, --d"),
        ("sweep", "--vary, --values, --target, --d"),
    ])
    def test_missing_required_options_reported_together(self, capsys, command, missing):
        code, out, err = run_cli(capsys, command)
        assert (code, out) == (1, "")
        assert err == f"error: missing required option(s): {missing}\n"

    def test_config_file_supplies_required_option(self, workdir, capsys):
        cfg = workdir["tmp"] / "data.cfg"
        cfg.write_text(f"data = {workdir['labeled']}\n")
        code, out, err = run_cli(capsys, "train", "--t", "4", "--config", str(cfg))
        assert (code, err) == (0, "") and out.startswith("size=4")
        code, out, err = run_cli(capsys, "train", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == "error: missing required option(s): --t\n"

    def test_config_keys_of_other_subcommands_allowed(self, workdir, capsys):
        # One config file serves every subcommand: vary (sweep), x
        # (local-predict) and m (size-estimate) are not options of train.
        cfg = workdir["tmp"] / "shared.cfg"
        cfg.write_text("t = 4\nvary = b\nx = +-+\nm = 16\n")
        code, out, _ = run_cli(capsys, "train", "--data", str(workdir["labeled"]),
                               "--config", str(cfg))
        assert code == 0 and out.startswith("size=")

    @pytest.mark.parametrize("text", ["65 1\n" + " 1" * 65 + " 0\n",
                                      "20 100000000000000\n" + " 1" * 20 + " 0\n",
                                      "4 -1\n"], ids=["d-65", "huge-n", "negative-n"])
    def test_malformed_dataset_header_is_an_error(self, tmp_path, capsys, text):
        data = tmp_path / "bad.txt"
        data.write_text(text)
        code, out, err = run_cli(capsys, "train", "--t", "4", "--data", str(data))
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_tree_nested_deeper_than_d_is_an_error(self, tmp_path, capsys):
        tree = tmp_path / "deep.tree"
        tree.write_text("(split 1 " * 1200 + "(leaf 0)" + " (leaf 1))" * 1200)
        code, out, err = run_cli(capsys, "size-estimate", "--tree", str(tree), "--d", "8")
        assert code == 1 and out == "" and err == "error: tree nested deeper than d=8\n"
        code, out, err = run_cli(capsys, "gen-data", "--target", f"tree:{tree}",
                                 "--d", "8", "--n", "4", "--out", str(tmp_path / "x"))
        assert code == 1 and out == "" and err == "error: tree nested deeper than d=8\n"

    def test_missing_config_file_is_an_error(self, workdir, capsys):
        code, _, err = run_cli(capsys, "train", "--t", "8", "--data",
                               str(workdir["labeled"]), "--config", "/nonexistent/run.cfg")
        assert code == 1 and err.startswith("error: ") and "/nonexistent/run.cfg" in err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_out_of_range_seed_is_an_error(self, workdir, capsys, seed):
        code, out, err = run_cli(capsys, "train", "--t", "8", "--seed", seed,
                                 "--data", str(workdir["labeled"]))
        assert code == 1 and out == "" and err.startswith("error: ") and "seed" in err


class TestGenData:
    # sha256 of `gen-data --target dnf:1|2&3|4&5&6 --d 10 --n 2048 --seed 3`
    # output, recorded when --unlabeled still labeled every point and then
    # dropped the labels.
    LABELED = "cb0d90164edd53535cbce8713a9291724198fba8150200b3b4e5a24a719b3773"
    UNLABELED = "44741d90fb0bc45ba0beb92b24a4e0cc07d354143a69a0fe193bdc31fed7d3b9"

    @pytest.mark.parametrize("unlabeled", [False, True])
    def test_unlabeled_evaluates_no_target(self, tmp_path, capsys, monkeypatch, unlabeled):
        evaluated = []
        eval_masks = ReadOnceDNF.eval_masks

        def counting(self, masks):
            evaluated.append(len(masks))
            return eval_masks(self, masks)

        monkeypatch.setattr(ReadOnceDNF, "eval_masks", counting)
        out = tmp_path / "data.txt"
        code, _, _ = run_cli(capsys, "gen-data", "--target", "dnf:1|2&3|4&5&6", "--d", "10",
                             "--n", "2048", "--seed", "3", "--out", str(out),
                             *(["--unlabeled"] if unlabeled else []))
        assert code == 0
        assert sum(evaluated) == (0 if unlabeled else 2048)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == (self.UNLABELED if unlabeled else self.LABELED)


def _surface(parser):
    """Every subcommand's name and help, and per subcommand the sorted
    (dest, option strings, default, type name, choices, nargs, help) of its
    options plus the command it runs."""
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = sorted((a.dest, a.help) for a in subs._choices_actions)
    options = {}
    for name, sub in sorted(subs.choices.items()):
        options[name] = (sub.get_default("func").__name__, sorted(
            (a.dest, tuple(a.option_strings), repr(a.default),
             getattr(a.type, "__name__", None),
             None if a.choices is None else tuple(a.choices), repr(a.nargs), a.help)
            for a in sub._actions))
    return repr((commands, options))


# Recorded when the theory calculator became its own subcommand and each
# subcommand kept only the options it reads; any dropped, renamed or
# re-defaulted option, or a changed help string, shows here.
SURFACE_SHA256 = "1399eff85da7bca9091b6e7e649c0e28d4011d89276957568ca58ed01a6de88d"


def test_cli_surface_pinned():
    parser, _ = build_parser()
    assert hashlib.sha256(_surface(parser).encode()).hexdigest() == SURFACE_SHA256


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every public attribute read."""

    def __init__(self):
        super().__init__()
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def test_every_declared_option_is_read(workdir, capsys):
    tmp = workdir["tmp"]
    tree = tmp / "guard.tree"
    tree.write_text("(split 1 (leaf 0) (leaf 1))\n")
    learn = ["--t", "4", "--unlabeled", str(workdir["unlabeled"]), "--target", workdir["spec"]]
    argvs = {
        "gen-data": ["--target", workdir["spec"], "--d", "10", "--n", "16",
                     "--out", str(tmp / "guard.txt")],
        "train": ["--algo", "size-estimate", "--t", "4", "--data", str(workdir["labeled"]),
                  "--out-tree", str(tmp / "guard-out.tree"),
                  "--out-trace", str(tmp / "guard.trace")],
        "local-predict": learn + ["--x", "+---------"],
        "estimate": learn + ["--test", str(workdir["test"])],
        "size-estimate": ["--tree", str(tree), "--d", "10"],
        "verify": ["--trials", "2"],
        "sweep": ["--vary", "b", "--values", "8", "--seeds", "1", "--target", "majority",
                  "--d", "5", "--n", "64", "--test-n", "10"],
        "theory": ["--t", "32", "--d", "10"],
    }
    parser, options = build_parser()
    assert set(argvs) == set(options)
    unread = {}
    for command, argv in argvs.items():
        args = parser.parse_args([command] + argv, namespace=_ReadRecorder())
        args._read.clear()
        assert args.func(args) == 0, command
        missed = sorted(set(options[command]) - {"config"} - args._read)
        if missed:
            unread[command] = missed
    capsys.readouterr()
    assert unread == {}
