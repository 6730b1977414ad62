import dataclasses
import json
import time
from pathlib import Path

import pytest

from treecast.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "--bogus", "verify")
    assert code == EXIT_USAGE


def test_gen_reproducible_dumps(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    a = run(capsys, "--seed", "7", "--out", p1, "gen", "--k", "2", "--d", "3", "--theta", "0.5")
    b = run(capsys, "--seed", "7", "--out", p2, "gen", "--k", "2", "--d", "3", "--theta", "0.5")
    assert a[0] == b[0] == EXIT_OK
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_gen_binary_dump_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "tree.bin")
    code, _, _ = run(
        capsys, "--seed", "3", "--out", path, "--format", "bin",
        "gen", "--k", "3", "--d", "2", "--theta", "3/4",
    )
    assert code == EXIT_OK
    from treecast.labels import LabelArray

    arr = LabelArray.from_bytes(Path(path).read_bytes())
    assert arr.shape.k == 3 and arr.shape.d == 2


def test_bp_matches_library_on_dump(tmp_path, capsys):
    path = str(tmp_path / "tree.json")
    run(capsys, "--seed", "5", "--out", path, "gen", "--k", "2", "--d", "2", "--theta", "1/2")
    code, out, _ = run(capsys, "--mode", "rational", "bp", "--leaves", path, "--theta", "1/2")
    assert code == EXIT_OK
    doc = json.loads(out)
    from fractions import Fraction

    from treecast.bp import LeafLikelihood, bp_posterior
    from treecast.channels import Channel
    from treecast.labels import LabelArray

    arr = LabelArray.from_json(Path(path).read_text())
    want = bp_posterior(
        arr.shape,
        Channel.binary(Fraction(1, 2)),
        LeafLikelihood.from_labels(arr.leaves, 2),
        mode="rational",
    )
    assert doc["argmax"] == want.argmax
    assert [Fraction(m) for m in doc["masses"]] == list(want.masses)


def test_bp_reads_the_binary_dump_as_the_json_dump(tmp_path, capsys):
    by_format = {}
    for fmt in ("json", "bin"):
        path = str(tmp_path / f"tree.{fmt}")
        gen = ("--seed", "8", "--out", path, "--format", fmt, "gen", "--k", "3", "--d", "3", "--theta", "3/5")
        assert run(capsys, *gen)[0] == EXIT_OK
        code, out, _ = run(capsys, "--mode", "rational", "bp", "--leaves", path, "--theta", "3/5")
        assert code == EXIT_OK
        by_format[fmt] = out
    assert (tmp_path / "tree.bin").read_bytes()[:6] == b"BCAST1"
    assert by_format["bin"] == by_format["json"]


def test_bp_flip_rate_reads_noisy_leaves(tmp_path, capsys):
    path = str(tmp_path / "tree.json")
    run(capsys, "--seed", "5", "--out", path, "gen", "--k", "2", "--d", "3", "--theta", "4/5")
    code, out, _ = run(
        capsys, "--mode", "rational", "bp", "--leaves", path, "--theta", "4/5", "--flip-rate", "1/10"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    from fractions import Fraction

    from treecast.bp import LeafLikelihood, bp_posterior
    from treecast.channels import Channel
    from treecast.labels import LabelArray

    arr = LabelArray.from_json(Path(path).read_text())
    noisy = bp_posterior(
        arr.shape,
        Channel.binary(Fraction(4, 5)),
        LeafLikelihood.from_noisy_bits(arr.leaves, Fraction(1, 10)),
        mode="rational",
    )
    assert [Fraction(m) for m in doc["masses"]] == list(noisy.masses)
    code, clean, _ = run(capsys, "--mode", "rational", "bp", "--leaves", path, "--theta", "4/5")
    assert json.loads(clean)["masses"] != doc["masses"]


def test_bp_binary_dump_shorter_than_its_header_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "short.bin"
    path.write_bytes(b"BCAST1\x02\x00")
    code, out, err = run(capsys, "bp", "--leaves", str(path))
    _one_line_usage_error(code, err, "BCAST1", "8 bytes", "18-byte header")
    assert out == ""


def test_detect_runs(capsys):
    code, out, _ = run(
        capsys, "--seed", "2", "detect", "--k", "2", "--d", "4", "--theta", "0.9",
        "--trials", "300", "--estimator", "majority",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["trials"] == 300
    assert doc["accuracy"] > 0.8


def test_detect_appends_to_experiment_csv(tmp_path, capsys):
    path = str(tmp_path / "rows.csv")
    for estimator in ("majority", "linearized-bp"):
        code, _, _ = run(
            capsys, "--seed", "2", "--out", path, "detect", "--k", "2", "--d", "4",
            "--theta", "0.9", "--trials", "200", "--estimator", estimator,
        )
        assert code == EXIT_OK
    from treecast.experiments import read_csv

    rows = read_csv(path)
    assert [r.estimator for r in rows] == ["majority", "linearized-bp"]
    assert all(r.trials == 200 for r in rows)


def test_scan_ks_writes_csv(tmp_path, capsys):
    path = str(tmp_path / "rows.csv")
    code, _, _ = run(
        capsys, "--seed", "4", "--out", path, "--jobs", "1",
        "scan-ks", "--k", "2", "--theta", "0,1", "--d", "3", "--trials", "150",
    )
    assert code == EXIT_OK
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("experiment,k,theta_or_channel")
    assert len(lines) == 1 + 6  # two theta values x three estimators


def test_compile_gadget_check(capsys):
    code, out, _ = run(capsys, "compile-gadget", "--formula", "(and x1 (not x2))", "--check")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["tracks_all_assignments"] is True
    assert len(doc["entries"]) == 36


def _fail_gadget_check(monkeypatch):
    import treecast.gadgets

    real = treecast.gadgets.verify_gadget

    def never_tracks(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), tracks=False)

    monkeypatch.setattr(treecast.gadgets, "verify_gadget", never_tracks)


def _fail_barrington_check(monkeypatch):
    import treecast.a5.barrington as barrington

    real = barrington.evaluate_program_batch

    def wrong_last_product(program, table):
        products = real(program, table).copy()
        products[-1] = (int(products[-1]) + 1) % 60
        return products

    monkeypatch.setattr(barrington, "evaluate_program_batch", wrong_last_product)


# command -> (patch making its --check fail, formula, the document's verdict key)
FAILING_CHECKS = {
    "compile-gadget": (_fail_gadget_check, "(and x1 (not x2))", "tracks_all_assignments"),
    "compile-barrington": (_fail_barrington_check, "(or x1 x2)", "matches_truth_table"),
}


def test_compile_gadget_check_failure_exits_2(capsys, monkeypatch):
    _fail_gadget_check(monkeypatch)
    code, out, _ = run(capsys, "compile-gadget", "--formula", "(and x1 (not x2))", "--check")
    assert code == EXIT_VERIFY
    assert json.loads(out)["tracks_all_assignments"] is False


def test_compile_barrington_check_failure_exits_2(capsys, monkeypatch):
    _fail_barrington_check(monkeypatch)
    code, out, _ = run(capsys, "compile-barrington", "--formula", "(or x1 x2)", "--check")
    assert code == EXIT_VERIFY
    assert json.loads(out)["matches_truth_table"] is False


@pytest.mark.parametrize("command", sorted(FAILING_CHECKS))
def test_compile_check_failure_writes_out(tmp_path, capsys, monkeypatch, command):
    fail, formula, verdict = FAILING_CHECKS[command]
    fail(monkeypatch)
    path = tmp_path / "doc.json"
    code, out, _ = run(capsys, "--out", str(path), command, "--formula", formula, "--check")
    assert code == EXIT_VERIFY
    assert out == ""
    assert json.loads(path.read_text())[verdict] is False


def test_compile_barrington_check(capsys):
    code, out, _ = run(capsys, "compile-barrington", "--formula", "(or x1 x2)", "--check")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["matches_truth_table"] is True


def test_reduce_word(capsys):
    code, out, _ = run(
        capsys, "--seed", "6", "reduce-word", "--length", "24", "--promise", "target",
        "--trials", "300",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["correct"] is True


def test_io_error_exit_code(tmp_path, capsys):
    code, _, _ = run(
        capsys, "--seed", "1", "--out", "/no-such-dir/x.json",
        "gen", "--k", "2", "--d", "1", "--theta", "1/2",
    )
    assert code == EXIT_IO


def test_bad_theta_usage_error(capsys):
    code, _, _ = run(capsys, "gen", "--k", "2", "--d", "1", "--theta", "2")
    assert code == EXIT_USAGE


def _one_line_usage_error(code, err, *words):
    assert code == EXIT_USAGE
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err
    assert all(w in lines[0] for w in words), lines[0]


def test_detect_zero_trials_is_usage_error(capsys):
    code, _, err = run(capsys, "detect", "--k", "2", "--d", "3", "--theta", "1/2", "--trials", "0")
    _one_line_usage_error(code, err, "trials", ">= 1")


@pytest.mark.parametrize("estimator", ["majority", "linearized-bp", "bp-rounding"])
def test_detect_theta_outside_range_names_theta(capsys, estimator):
    code, _, err = run(
        capsys, "detect", "--k", "2", "--d", "3", "--theta", "3", "--estimator", estimator,
    )
    _one_line_usage_error(code, err, "theta", "[-1, 1]", "3")


@pytest.mark.parametrize("target", ["999", "-44"])
def test_barrington_target_outside_the_group_is_usage_error(capsys, target):
    code, out, err = run(capsys, "compile-barrington", "--formula", "(and x1 x2)", "--target", target)
    _one_line_usage_error(code, err, "target", target, "[0, 60)")
    assert out == ""


@pytest.mark.parametrize("command", ["compile-gadget", "compile-barrington"])
def test_too_deeply_nested_formula_is_usage_error(capsys, command):
    formula = "(not " * 2000 + "x1" + ")" * 2000
    code, out, err = run(capsys, command, "--formula", formula)
    _one_line_usage_error(code, err, "formula nests deeper than")
    assert out == ""


@pytest.mark.parametrize(
    "argv, words",
    [
        (["compile-gadget", "--formula", "x99999999999"], ["x99999999999", "int32 entry codes"]),
        (["compile-gadget", "--formula", "x40", "--check"], ["40 variables", "limit is 16"]),
        (["compile-barrington", "--formula", "x40", "--check"], ["40 variables", "limit is 16"]),
    ],
)
def test_formula_variable_past_the_bounds_is_usage_error(capsys, argv, words):
    code, out, err = run(capsys, *argv)
    _one_line_usage_error(code, err, *words)
    assert out == ""


@pytest.mark.parametrize("k", ["1", "2"])
@pytest.mark.parametrize("command", [("detect", "--theta", "4/5"), ("scan-ks",), ("scan-noise", "--s", "0")])
def test_huge_depth_is_refused_at_once(capsys, command, k):
    # Refused by the node budget before any k^d or d-step loop.
    d = "99999999999999999999"
    start = time.perf_counter()
    code, out, err = run(capsys, "--jobs", "1", *command, "--k", k, "--d", d)
    assert time.perf_counter() - start < 1
    _one_line_usage_error(code, err, f"k={k}, d={d}", "more than 67108864 nodes")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("detect", "--k", "1", "--theta", "4/5", "--d", "67108863", "--trials", "2"),
        ("gen", "--k", "1", "--d", "65"),
        ("a5", "--model", "pair3600", "--k", "1", "--d", "65"),
    ],
    ids=["detect", "gen", "a5-pair3600"],
)
def test_unary_tree_past_the_depth_limit_is_refused_at_once(capsys, argv):
    # Within the node budget, but deeper than `rng.node_counters` can address.
    start = time.perf_counter()
    code, out, err = run(capsys, "--jobs", "1", *argv)
    assert time.perf_counter() - start < 1
    _one_line_usage_error(code, err, "tree k=1", "deeper than 64 levels")
    assert out == ""


@pytest.mark.parametrize("code_value", [-1, 2])
def test_bp_label_code_out_of_range_is_usage_error(tmp_path, capsys, code_value):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"k": 2, "d": 1, "m": 2, "levels": [[1], [0, code_value]]}))
    code, _, err = run(capsys, "bp", "--leaves", str(path), "--theta", "1/2")
    _one_line_usage_error(code, err, "level 1", "[0, 2)")


@pytest.mark.parametrize("mode", ["float", "rational", "auto"])
def test_bp_zero_probability_evidence_is_usage_error(tmp_path, capsys, mode):
    # At theta = 1 both leaves copy the root, so leaves (0, 1) cannot occur.
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"k": 2, "d": 1, "m": 2, "levels": [[1], [0, 1]]}))
    code, out, err = run(capsys, "--mode", mode, "bp", "--leaves", str(path), "--theta", "1")
    _one_line_usage_error(code, err, "evidence has zero probability")
    assert out == ""


def test_verify_quick_exits_zero(capsys):
    code, out, _ = run(capsys, "--seed", "3", "verify", "--quick")
    assert code == EXIT_OK
    assert "checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("estimator", ["majority", "linearized-bp", "bp-rounding"])
def test_detect_negative_theta_as_separate_argument(capsys, estimator):
    base = ("--seed", "4", "detect", "--k", "2", "--d", "6", "--trials", "200", "--estimator", estimator)
    code_sep, out_sep, _ = run(capsys, *base, "--theta", "-1/2")
    code_eq, out_eq, _ = run(capsys, *base, "--theta=-1/2")
    assert code_sep == code_eq == EXIT_OK
    assert out_sep == out_eq


def test_detect_negative_theta_outside_range_is_one_line_error(capsys):
    code, _, err = run(capsys, "detect", "--k", "2", "--d", "3", "--theta", "-3/2")
    _one_line_usage_error(code, err, "theta must lie in [-1, 1]", "-3/2")


@pytest.mark.parametrize("generator", ["direct", "path-product", "restrictions", "pair3600", "class16"])
def test_gen_over_node_budget_is_one_line_error(capsys, monkeypatch, generator):
    import treecast.trees

    monkeypatch.setattr(treecast.trees, "MAX_TREE_NODES", 100)
    code, out, err = run(capsys, "gen", "--k", "2", "--d", "7", "--generator", generator)
    _one_line_usage_error(code, err, "k=2, d=7", "more than 100 nodes")
    assert out == ""


def test_ks_scan_config_writes_the_flag_form_bytes(tmp_path, capsys):
    grid = ("--k", "2", "--theta", "1/2,4/5", "--d", "3", "--trials", "150")
    by_flags = str(tmp_path / "flags.csv")
    code, _, _ = run(capsys, "--seed", "9", "--jobs", "1", "--out", by_flags, "scan-ks", *grid)
    assert code == EXIT_OK
    by_config = str(tmp_path / "config.csv")
    config = tmp_path / "ks.json"
    config.write_text(json.dumps({
        "schema_version": 1, "experiment": "ks-scan", "seed": 9, "trials": 150, "k": [2],
        "theta": ["1/2", "4/5"], "d": [3], "out": by_config, "format": "csv", "jobs": 1,
    }))
    code, _, _ = run(capsys, "--config", str(config), "scan-ks")
    assert code == EXIT_OK
    assert Path(by_config).read_bytes() == Path(by_flags).read_bytes()


@pytest.mark.parametrize(
    "doc, words",
    [
        ({"experiment": "reduction-demo"}, ("unknown experiment", "reduction-demo")),
        (
            {"experiment": "gadget-corpus"},
            ("unknown experiment", "gadget-corpus", "'ks-scan', 'noise-scan', 'a5-accuracy'"),
        ),
        ({"experiment": "ks-scan", "p_value": 0.01}, ("unknown config keys", "p_value")),
    ],
)
def test_config_with_a_removed_kind_or_key_is_one_line_error(tmp_path, capsys, monkeypatch, doc, words):
    _assert_config_fails_before_any_point(tmp_path, capsys, monkeypatch, "scan-ks", doc, words)


@pytest.mark.parametrize(
    "command, grid, words",
    [
        ("scan-ks", {"theta": ["1/0"]}, ("theta", "1/0")),
        ("scan-ks", {"theta": ["1e400"]}, ("theta", "1e400")),
        ("scan-noise", {"s": ["1e400"]}, ("'s'", "1e400")),
        ("scan-ks", {"k": ["x"]}, ("'k'", "x")),
        ("scan-ks", {"theta": "1/2"}, ("theta", "must be a list")),
    ],
)
def test_config_grid_is_parsed_before_any_point_runs(tmp_path, capsys, monkeypatch, command, grid, words):
    _assert_config_fails_before_any_point(tmp_path, capsys, monkeypatch, command, grid, words)


@pytest.mark.parametrize(
    "command, fields, words",
    [
        ("scan-ks", {"out": 5}, ("'out'", "5")),
        ("scan-ks", {"out": 1}, ("'out'", "1")),
        ("scan-ks", {"out": ["rows.csv"]}, ("'out'",)),
        ("scan-ks", {"seed": "3"}, ("'seed'", "'3'")),
        ("scan-noise", {"seed": 2.5}, ("'seed'", "2.5")),
        ("scan-ks", {"trials": "100"}, ("'trials'", "'100'")),
        ("scan-ks", {"trials": True}, ("'trials'", "True")),
        ("scan-noise", {"jobs": "2"}, ("'jobs'", "'2'")),
        ("scan-ks", {"jobs": False}, ("'jobs'", "False")),
        ("scan-ks", {"schema_version": True}, ("'schema_version'", "True")),
        ("scan-ks", {"jobs": -4}, ("jobs", ">= 0", "-4")),
        ("a5", {"model": "pair36"}, ("unknown model", "'pair36'", "'pair3600'")),
        ("a5", {"model": ["pair3600"]}, ("unknown model", "['pair3600']")),
        ("a5", {"model": "pair3600", "d": [2, 0]}, ("depth >= 1",)),
    ],
)
def test_config_scalar_is_checked_before_any_point_runs(tmp_path, capsys, monkeypatch, command, fields, words):
    _assert_config_fails_before_any_point(tmp_path, capsys, monkeypatch, command, fields, words)


def _assert_config_fails_before_any_point(tmp_path, capsys, monkeypatch, command, fields, words):
    """A --config file with `fields` over a valid base ends in one `error:`
    line holding `words`, exit 1, before `_map_points` runs any point."""
    import treecast.experiments

    def no_points(*args):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(treecast.experiments, "_map_points", no_points)
    experiment = {"scan-ks": "ks-scan", "scan-noise": "noise-scan", "a5": "a5-accuracy"}[command]
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"experiment": experiment, "trials": 100, **fields}))
    code, out, err = run(capsys, "--config", str(config), command)
    _one_line_usage_error(code, err, *words)
    assert out == ""


def test_scan_ks_format_json_prints_rows(capsys):
    argv = ("--seed", "4", "--jobs", "1", "scan-ks", "--k", "2", "--theta", "4/5", "--d", "3", "--trials", "150")
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["estimator"] for r in rows] == ["bp-rounding", "linearized-bp", "majority"]
    code, csv_out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    for row, line in zip(rows, csv_out.splitlines()[1:]):
        assert line.split(",")[7] == repr(row["accuracy"])


@pytest.mark.parametrize(
    "argv",
    [
        ("scan-ks", "--k", "2", "--theta", "4/5", "--d", "3", "--trials", "10"),
        ("scan-noise", "--k", "2", "--theta", "4/5", "--d", "3", "--s", "1/10", "--trials", "10"),
        ("a5", "--k", "4", "--d", "2", "--trials", "2"),
    ],
    ids=["scan-ks", "scan-noise", "a5"],
)
def test_experiment_format_bin_is_one_line_error(capsys, argv):
    code, out, err = run(capsys, "--format", "bin", *argv)
    _one_line_usage_error(code, err, "--format bin")
    assert out == ""


@pytest.mark.parametrize(
    "argv, words",
    [
        (("--k", "0"), ("arity k",)),
        (("--k", "-3"), ("arity k",)),
        (("--k", "2", "--d", "40"), ("more than",)),  # 2^39 bottom labels: rejected before drawing
    ],
    ids=["k0", "k-negative", "d40"],
)
def test_a5_class16_bad_shape_is_one_line_error(capsys, argv, words):
    code, out, err = run(capsys, "a5", *argv, "--trials", "100")
    _one_line_usage_error(code, err, *words)
    assert out == ""


def test_negative_jobs_flag_is_one_line_error(capsys):
    code, out, err = run(capsys, "--jobs", "-5", "scan-ks", "--k", "2", "--d", "3", "--trials", "100")
    _one_line_usage_error(code, err, "jobs", ">= 0", "-5")
    assert out == ""


@pytest.mark.parametrize("model", ["class16", "pair3600"])
def test_a5_depth_zero_is_one_line_error(capsys, model):
    code, out, err = run(capsys, "a5", "--model", model, "--k", "5", "--d", "0", "--trials", "100")
    _one_line_usage_error(code, err, "depth >= 1")
    assert out == ""


@pytest.mark.parametrize(
    "before, after, words",
    [
        ((), ("--trials", "0"), ("trials", ">= 100")),
        ((), ("--trials", "-3"), ("trials", ">= 100")),
        (("--format", "bin"), (), ("--format bin",)),
    ],
    ids=["trials0", "trials-negative", "format-bin"],
)
def test_a5_pair3600_bad_option_is_one_line_error(capsys, before, after, words):
    argv = (*before, "a5", "--model", "pair3600", "--k", "4", "--d", "2", "--trials", "100", *after)
    code, out, err = run(capsys, *argv)
    _one_line_usage_error(code, err, *words)
    assert out == ""


def test_a5_pair3600_prints_rows_in_csv_and_json(capsys):
    argv = ("a5", "--model", "pair3600", "--k", "4", "--d", "2", "--trials", "100")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert run(capsys, "--format", "csv", *argv) == (EXIT_OK, out, "")
    from treecast.experiments import CSV_HEADER

    header, line = out.splitlines()
    assert header == CSV_HEADER
    code, json_out, _ = run(capsys, "--format", "json", *argv)
    assert code == EXIT_OK
    (row,) = json.loads(json_out)
    assert (row["theta_or_channel"], row["estimator"], row["trials"]) == ("pair3600", "pair3600-recursive", 100)
    assert line.split(",")[7] == repr(row["accuracy"])
    assert row["advantage"] == row["accuracy"] - 1 / 3600


def test_a5_config_model_writes_the_flag_form_bytes(tmp_path, capsys):
    by_flags = str(tmp_path / "flags.csv")
    argv = ("--seed", "5", "--out", by_flags, "a5", "--model", "pair3600", "--k", "4", "--d", "2", "--trials", "100")
    assert run(capsys, *argv)[0] == EXIT_OK
    by_config = str(tmp_path / "config.csv")
    config = tmp_path / "a5.json"
    config.write_text(json.dumps({
        "experiment": "a5-accuracy", "model": "pair3600", "seed": 5, "trials": 100, "k": [4],
        "d": [2], "out": by_config,
    }))
    assert run(capsys, "--config", str(config), "a5")[0] == EXIT_OK
    assert Path(by_config).read_bytes() == Path(by_flags).read_bytes()


# What each command writes for --format csv, json and bin; every other
# pairing is a one-line usage error.
_WRITES = {
    "gen": ("json", "bin"),
    "bp": ("json",),
    "detect": ("json", "csv"),
    "scan-ks": ("csv", "json"),
    "scan-noise": ("csv", "json"),
    "a5": ("csv", "json"),
    "compile-gadget": ("json",),
    "compile-barrington": ("json",),
    "reduce-word": ("json",),
    "verify": (),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "bin"])
@pytest.mark.parametrize("command", sorted(_WRITES))
def test_every_command_writes_its_format_or_refuses_it(tmp_path, capsys, command, fmt):
    leaves = str(tmp_path / "tree.json")
    assert run(capsys, "--out", leaves, "gen", "--k", "2", "--d", "2")[0] == EXIT_OK
    argv = {
        "gen": ("--k", "2", "--d", "2"),
        "bp": ("--leaves", leaves),
        "detect": ("--k", "2", "--d", "3", "--theta", "4/5", "--trials", "100"),
        "scan-ks": ("--k", "2", "--theta", "4/5", "--d", "3", "--trials", "100"),
        "scan-noise": ("--k", "2", "--theta", "4/5", "--d", "2", "--s", "1/10", "--trials", "100"),
        "a5": ("--k", "4", "--d", "2", "--trials", "100"),
        "compile-gadget": ("--formula", "(and x1 x2)"),
        "compile-barrington": ("--formula", "(and x1 x2)"),
        "reduce-word": ("--length", "8", "--trials", "20"),
        "verify": ("--quick",),
    }[command]
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "--jobs", "1", "--format", fmt, "--out", str(out), command, *argv)
    if fmt not in _WRITES[command]:
        _one_line_usage_error(code, err, command, f"--format {fmt}")
        assert stdout == "" and not out.exists()
        return
    assert code == EXIT_OK, err
    data = out.read_bytes()
    if fmt == "bin":
        assert data.startswith(b"BCAST1")
    elif fmt == "csv":
        from treecast.experiments import read_csv

        assert read_csv(str(out))
    else:
        json.loads(data)


def test_reduce_word_golden(capsys):
    # Captured when the synthetic oracle began drawing its wrong answer
    # through `channels.uniform_draw`.
    code, out, _ = run(
        capsys, "--seed", "1", "reduce-word", "--length", "64", "--promise", "target",
        "--epsilon", "0.1", "--trials", "500",
    )
    assert code == EXIT_OK
    assert out == (
        '{"accepted": 66, "correct": true, "decision": "target", "promise": "target", '
        '"trials": 500, "votes_identity": 5, "votes_target": 61}\n'
    )


@pytest.mark.parametrize(
    "doc, words",
    [
        ({"word": [-1, 59], "promise": "identity", "target": 13}, ["[0, 60)"]),
        ({"word": [99], "promise": "target", "target": 13}, ["[0, 60)"]),
        ({"word": [13], "promise": "target", "target": 60}, ["target", "60"]),
        ({"word": [13], "target": 13}, ["lacks", "promise"]),
    ],
)
def test_reduce_word_bad_instance_is_one_line_error(tmp_path, capsys, doc, words):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "reduce-word", "--instance", str(path), "--trials", "10")
    _one_line_usage_error(code, err, *words)
    assert out == ""


@pytest.mark.parametrize("text", [
    '{"word": [1e400], "promise": "target", "target": 13}',
    '{"word": [13], "promise": "target", "target": 1.5}',
    '{"word": [true], "promise": "target", "target": 13}',
    '{"word": [13], "promise": "target", "target": "7"}',
])
def test_reduce_word_instance_of_non_integers_is_one_line_error(tmp_path, capsys, text):
    path = tmp_path / "instance.json"
    path.write_text(text)
    code, out, err = run(capsys, "reduce-word", "--instance", str(path), "--trials", "10")
    _one_line_usage_error(code, err, "JSON integers")
    assert out == ""


@pytest.mark.parametrize(
    "argv, words",
    [
        (["--trials", "-5"], ["trials", ">= 0"]),
        (["--epsilon", "nan"], ["epsilon", "nan"]),
        (["--epsilon", "inf"], ["epsilon", "inf"]),
        (["--epsilon", "0.99"], ["epsilon", "[-1/60, 59/60]"]),
    ],
)
def test_reduce_word_bad_option_is_one_line_error(capsys, argv, words):
    code, out, err = run(capsys, "reduce-word", "--length", "8", *argv)
    _one_line_usage_error(code, err, *words)
    assert out == ""


@pytest.mark.parametrize(
    "argv, words",
    [
        (["--length", "100000000000"], ["word length 100000000000", "cap of 67108864 symbols"]),
        (["--trials", "100000000000"], ["100000000000 trials", "length-64", "cap of 67108864 table cells"]),
        (["--length", "3000000", "--trials", "1000000"], ["1000000 trials", "length-3000000", "67108864"]),
    ],
    ids=["length", "trials", "table"],
)
def test_reduce_word_past_the_cell_cap_is_refused_at_once(capsys, argv, words):
    start = time.perf_counter()
    code, out, err = run(capsys, "reduce-word", *argv)
    assert time.perf_counter() - start < 1
    _one_line_usage_error(code, err, *words)
    assert out == ""


def test_bp_label_dump_missing_key_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"k": 2, "d": 1, "levels": [[1], [0, 1]]}))
    code, _, err = run(capsys, "bp", "--leaves", str(path), "--theta", "1/2")
    _one_line_usage_error(code, err, "lacks", "'m'")


@pytest.mark.parametrize("k, d, m", [("2.9", "1", "2"), ("2", "1e400", "2"), ("2", "1", "true")])
def test_bp_label_dump_with_a_non_integer_size_is_one_line_error(tmp_path, capsys, k, d, m):
    # 1e400 reads as a float infinity, 2.9 as a float, true as a bool: none is a size.
    path = tmp_path / "tree.json"
    path.write_text(f'{{"k": {k}, "d": {d}, "m": {m}, "levels": [[1], [0, 1]]}}')
    start = time.perf_counter()
    code, out, err = run(capsys, "bp", "--leaves", str(path), "--theta", "1/2")
    assert time.perf_counter() - start < 1
    _one_line_usage_error(code, err, "k, d and m must be JSON integers")
    assert out == ""


def test_bp_label_dump_that_is_not_an_object_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps([{"k": 2, "d": 1, "m": 2, "levels": [[1], [0, 1]]}]))
    code, _, err = run(capsys, "bp", "--leaves", str(path), "--theta", "1/2")
    _one_line_usage_error(code, err, "label dump JSON must be an object with keys")


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["detect", "--k", "2", "--d", "3", "--theta", "1/0"], "--theta", "1/0"),
        (["scan-noise", "--s", "1/0"], "--s", "1/0"),
        (["detect", "--k", "2", "--d", "3", "--theta", "1e400"], "--theta", "1e400"),
    ],
)
def test_unreadable_fraction_option_is_a_usage_error(capsys, argv, option, value):
    # argparse rejects the value: the usage, then one error line naming it.
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert errors == [err.strip().splitlines()[-1]]
    assert option in errors[0] and value in errors[0], errors[0]
