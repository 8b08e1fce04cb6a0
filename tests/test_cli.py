"""End-to-end tests of the command-line interface."""

import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from mlmc_boed import RunConfig
from mlmc_boed.cli import build_parser, main


def run_cli(args):
    return main([str(a) for a in args])


def run_cli_quietly(args, capsys):
    """``run_cli``, asserting that the run wrote nothing to stderr and raised
    no warning, which outside the test runner goes to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(args)
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    return rc


# Flags that keep a run of each subcommand small.
_SMALL_RUN = {"decay": ["--levels", "2", "--samples-per-level", "4"],
              "optimize": ["--iters", "1", "--n-outer", "8", "--eig-every", "1"],
              "eig": ["--n-outer", "8"]}


def test_decay_outputs(tmp_path, capsys):
    rc = run_cli_quietly(["decay", "--problem", "testcase", "--levels", "4",
                          "--samples-per-level", "200", "--seed", "1",
                          "--out", tmp_path, "--threads", "2"], capsys)
    assert rc == 0
    lines = (tmp_path / "decay.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "level,mean_sq_psi,mean_sq_delta,n"
    assert len(lines) == 5  # header + one row per level
    summary = json.loads((tmp_path / "decay.json").read_text())
    assert summary["reliable"]
    assert summary["fit_range"] == [1, 3]


def test_decay_unreliable_with_one_sample(tmp_path):
    rc = run_cli(["decay", "--problem", "testcase", "--levels", "3",
                  "--samples-per-level", "1", "--seed", "1", "--out", tmp_path])
    assert rc == 0
    summary = json.loads((tmp_path / "decay.json").read_text())
    assert not summary["reliable"]


def test_undefined_beta_hat_is_json_null(tmp_path, capsys):
    # Two levels leave one level in the fit range 1..1, so no slope exists.
    rc = run_cli(["decay", "--problem", "testcase", "--levels", "2",
                  "--samples-per-level", "8", "--seed", "1", "--out", tmp_path])
    assert rc == 0

    def strict(name):
        raise ValueError(f"not JSON: {name}")

    headline, printed = capsys.readouterr().out.splitlines()
    assert headline.startswith("beta_hat = nan ")
    for text in (printed, (tmp_path / "decay.json").read_text(encoding="utf-8")):
        assert json.loads(text, parse_constant=strict)["beta_hat"] is None


def test_optimize_trace_row_count_and_summary(tmp_path, capsys):
    rc = run_cli_quietly(["optimize", "--problem", "testcase", "--iters", "30",
                          "--n-outer", "64", "--eig-every", "10", "--seed", "2",
                          "--out", tmp_path], capsys)
    assert rc == 0
    lines = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 32  # header + t = 0..30
    header = lines[0].split(",")
    assert header == ["t", "cost_cumulative", "design_1", "polyak_1",
                      "grad_norm", "eig_periodic"]
    summary = json.loads((tmp_path / "optimize.json").read_text())
    assert len(summary["final_design"]) == 1
    assert summary["total_cost"] > 0
    # periodic EIG present exactly at the configured cadence plus the end
    with_eig = [ln for ln in lines[1:] if ln.split(",")[-1] != ""]
    assert len(with_eig) == 4  # t = 0, 10, 20, 30


def test_eig_json(tmp_path, capsys):
    rc = run_cli_quietly(["eig", "--problem", "testcase", "--xi0", "1.0482",
                          "--n-outer", "4000", "--seed", "3", "--out", tmp_path], capsys)
    assert rc == 0
    out = json.loads((tmp_path / "eig.json").read_text())
    assert out["design"] == [1.0482]
    assert out["n_outer"] == 4000
    assert 0.0 < out["eig"] < 1.5


def test_optimize_at_the_largest_tau_runs_quietly(tmp_path, capsys):
    # 2^tau is a float just below 1024, the bound of the level law.
    rc = run_cli_quietly(["optimize", "--problem", "testcase", "--tau", "1023.9",
                          "--w0", "0.5", "--iters", "5", "--n-outer", "64",
                          "--eig-every", "5", "--seed", "2", "--out", tmp_path], capsys)
    assert rc == 0
    summary = json.loads((tmp_path / "optimize.json").read_text())
    assert all(map(math.isfinite, summary["final_design"])) and summary["total_cost"] > 0


@pytest.mark.parametrize("flags", [["--tau", "1024", "--w0", "0.5"], ["--tau", "1075"],
                                   ["--tau", "1e308"], ["--m0", str(2**70)],
                                   ["--estimator", "stdmc", "--inner-m", str(2**70)]])
def test_level_law_beyond_the_float_or_int64_range_is_a_configuration_error(
        tmp_path, capsys, flags):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(["eig", "--problem", "testcase", "--n-outer", "1", *flags, "--out", out])
    assert rc == 2
    assert caught == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "configuration"
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--m0", str(2**62), "--seed", "3"],
                                   ["--estimator", "stdmc", "--inner-m", str(2**62)]])
def test_an_inner_draw_no_array_can_hold_is_a_numerical_error(tmp_path, capsys, flags):
    # A level-l sample of m0 2**62 draws 2**(62 + l) test-case latent pairs,
    # more float64 values than numpy can index; the planner refuses the
    # chunk before its draw (at level 1 the int64 inner count would wrap).
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(["eig", "--problem", "testcase", "--n-outer", "1", *flags,
                      "--out", tmp_path])
    assert rc == 1
    assert caught == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "numerical"


def _child_env():
    # A child interpreter imports the package from this checkout's src.
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def _limit_address_space():
    # Runs in the child only: 2 GiB of address space, so that no allocation
    # past it reaches the machine's memory.
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("flags", [
    ["--n-outer", str(2**62)],                            # a chunk list of 2**53 entries
    ["--estimator", "stdmc", "--inner-m", str(2**40), "--n-outer", "1"],   # a 16 TiB draw
])
def test_a_run_out_of_memory_is_a_memory_error(tmp_path, flags):
    res = subprocess.run([sys.executable, "-m", "mlmc_boed.cli", "eig", "--problem", "testcase",
                          *flags, "--out", tmp_path], env=_child_env(),
                         preexec_fn=_limit_address_space, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    error = json.loads(lines[0])
    assert error["error"] == "memory" and error["message"]


@pytest.mark.parametrize("command,flags,document", [
    ("eig", ["--n-outer", str(10**30)], None),
    ("eig", ["--n-outer", str(2**63)], None),
    ("optimize", ["--iters", "2"], {"eig_n_outer": 10**30}),
])
def test_sample_counts_past_int64_are_a_configuration_error(
        tmp_path, capsys, monkeypatch, command, flags, document):
    from mlmc_boed import cli

    def reached(*args, **kwargs):
        raise AssertionError("an estimator was called")

    monkeypatch.setattr(cli, "unbiased_gradient", reached)
    monkeypatch.setattr(cli, "eig_unbiased_mlmc", reached)
    if document is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(document))
        flags = [*flags, "--config", cfg_path]
    out = tmp_path / "out"
    rc = run_cli([command, *flags, "--out", out])
    assert rc == 2
    assert "must lie below 2**63" in _single_configuration_error(capsys)
    assert not out.exists()


def test_same_seed_byte_identical_across_threads(tmp_path):
    for sub, threads in (("a", 1), ("b", 4)):
        d = tmp_path / sub
        d.mkdir()
        rc = run_cli(["optimize", "--problem", "testcase", "--iters", "10",
                      "--n-outer", "700", "--eig-every", "5", "--seed", "7",
                      "--out", d, "--threads", threads])
        assert rc == 0
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
        (tmp_path / "b" / "trace.csv").read_bytes()
    assert (tmp_path / "a" / "optimize.json").read_bytes() == \
        (tmp_path / "b" / "optimize.json").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": "testcase", "max_iters": 5, "n_outer": 32, "seed": 1,
    }))
    rc = run_cli(["optimize", "--config", cfg_path, "--iters", "3",
                  "--out", tmp_path])
    assert rc == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 5  # header + t = 0..3


def test_bad_config_exits_nonzero_before_computing(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"problem": "testcase", "tau": 0.5}')
    rc = run_cli(["optimize", "--config", cfg_path, "--out", tmp_path])
    assert rc != 0
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "configuration"
    assert not (tmp_path / "trace.csv").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"problemo": "testcase"}')
    rc = run_cli(["eig", "--config", cfg_path, "--out", tmp_path])
    assert rc != 0
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "configuration"


@pytest.mark.slow
def test_pk_smoke_via_cli(tmp_path):
    rc = run_cli(["optimize", "--problem", "pk", "--iters", "20",
                  "--n-outer", "64", "--eig-every", "20", "--seed", "5",
                  "--out", tmp_path, "--threads", "4"])
    assert rc == 0
    summary = json.loads((tmp_path / "optimize.json").read_text())
    assert len(summary["final_design"]) == 15
    assert all(0.0 <= v <= 24.0 for v in summary["final_design"])


@pytest.mark.parametrize("document", [
    {"tau": [1]},
    {"n_outer": 2.7},
    {"seed": -1},
    {"polyak": "no"},
    {"tau": float("nan")},
    {"rm_c": float("inf"), "n_outer": 64},
    {"problem": "testcase", "proposal": "laplace", "n_outer": 64},
    {"rm_c": -5.0, "n_outer": 32},
    {"problem": "pk", "optimizer": "amsgrad", "amsgrad_beta1": 5.0, "amsgrad_beta2": -3.0,
     "n_outer": 64},
    {"problem": "pk", "amsgrad_alpha": 0.0, "n_outer": 64},
    {"problem": "pk", "amsgrad_beta2": 1.0, "n_outer": 64},
])
def test_malformed_config_field_is_a_configuration_error(tmp_path, capsys, document):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"max_iters": 2, "eig_n_outer": 64, **document}))
    rc = run_cli(["optimize", "--config", cfg_path, "--out", tmp_path])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "configuration"
    assert not (tmp_path / "trace.csv").exists()


def test_box_without_interior_is_a_configuration_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lower": [1.0], "upper": [1.0], "xi0": [1.0],
                                    "max_iters": 2, "n_outer": 64, "eig_n_outer": 64}))
    rc = run_cli(["optimize", "--config", cfg_path, "--out", tmp_path])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "configuration"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_negative_seed_flag_is_a_configuration_error(tmp_path, capsys):
    rc = run_cli(["optimize", "--seed", "-5", "--iters", "2", "--n-outer", "32",
                  "--out", tmp_path])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "configuration"
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_seed_beyond_64_bits_is_a_configuration_error(tmp_path, capsys, source):
    args = ["optimize", "--iters", "2", "--n-outer", "32", "--out", tmp_path]
    if source == "flag":
        args += ["--seed", "99999999999999999999999"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"seed": 18446744073709551616}')
        args += ["--config", cfg_path]
    rc = run_cli(args)
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "configuration"
    assert not (tmp_path / "trace.csv").exists()


def test_largest_64_bit_seed_is_accepted(tmp_path):
    rc = run_cli(["eig", "--seed", str(2**64 - 1), "--n-outer", "32", "--out", tmp_path])
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["eig", "--seed", "abc"],
    ["eig", "--xi0", "1,a"],
    ["eig", "--no-such-flag"],
    ["eig", "--problem", "nope"],
    [],
])
def test_usage_error_is_one_json_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main([*argv, "--out", str(out)] if argv else argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "configuration"
    assert "_parse_floats" not in err["message"]
    assert not out.exists()


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eig", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mlmc-boed eig")


def test_zero_threads_is_a_configuration_error(tmp_path, capsys):
    rc = run_cli(["eig", "--threads", "0", "--n-outer", "32", "--out", tmp_path])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "configuration"
    assert not (tmp_path / "eig.json").exists()


def test_cli_import_leaves_out_scipy_and_exports_resolve():
    code = ("import sys, mlmc_boed, mlmc_boed.cli\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n"
            "missing = [n for n in mlmc_boed.__all__ if not hasattr(mlmc_boed, n)]\n"
            "assert not missing, missing\n")
    res = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_closed_stdout_exits_quietly_with_complete_files(tmp_path):
    # The reader goes away before the first line: nothing goes to stderr,
    # the status is 0, and the --out files equal those of a normal run.
    args = ["decay", "--problem", "testcase", "--levels", "4",
            "--samples-per-level", "100", "--seed", "1", "--out"]
    proc = subprocess.Popen([sys.executable, "-m", "mlmc_boed.cli", *args, tmp_path / "closed"],
                            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    assert run_cli([*args, tmp_path / "open"]) == 0
    for name in ("decay.csv", "decay.json"):
        assert (tmp_path / "closed" / name).read_bytes() == (tmp_path / "open" / name).read_bytes()


@pytest.mark.parametrize("field,document,flags", [
    ("xi0", None, ["--xi0", "1,2"]),
    ("lower", {"lower": [0.1, 0.2]}, []),
    ("upper", {"problem": "pk", "upper": [24.0] * 14}, []),
    ("upper", {"upper": []}, []),
    ("lower", {"problem": "pk", "lower": []}, []),
    ("xi0", None, ["--xi0", ""]),
])
def test_design_length_is_a_configuration_error(tmp_path, capsys, field, document, flags):
    args = ["eig", "--n-outer", "32", "--out", tmp_path / "out", *flags]
    if document is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(document))
        args += ["--config", cfg_path]
    rc = run_cli(args)
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "configuration"
    assert err["message"].startswith(f"{field} has ")
    assert not (tmp_path / "out").exists()


PK_XI0_WITH_GAP = ",".join(["1", "2", "3", "4", "5", "6", "7", "", *map(str, range(8, 16))])


@pytest.mark.parametrize("problem,xi0", [
    ("testcase", "1.5,"),
    ("testcase", ",,1.5"),
    ("testcase", "1.5, "),
    ("pk", PK_XI0_WITH_GAP),
])
def test_empty_list_item_is_a_configuration_error(tmp_path, capsys, problem, xi0):
    # An empty item would shorten the design instead of failing.
    rc = run_cli(["eig", "--problem", problem, "--xi0", xi0, "--n-outer", "16",
                  "--seed", "1", "--out", tmp_path / "out"])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "configuration"
    assert "--xi0" in err["message"]
    assert not (tmp_path / "out").exists()


def test_ascent_pinned_to_a_box_edge_completes(tmp_path):
    # Every step pushes past the upper bound, so each iterate is clamped to
    # it and their running mean rounds one ulp past it.
    cfg_path = tmp_path / "pin.json"
    cfg_path.write_text(json.dumps({"lower": [0.1], "upper": [0.7], "xi0": [0.7],
                                    "max_iters": 8, "eig_every": 8, "n_outer": 50000,
                                    "eig_n_outer": 200}))
    out = tmp_path / "out"
    assert run_cli(["optimize", "--config", cfg_path, "--seed", "1", "--out", out]) == 0
    summary = json.loads((out / "optimize.json").read_text())
    assert summary["iterations"] == 8 and summary["final_design"] == [0.7]
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 9


@pytest.mark.parametrize("levels", ["0", "1"])
def test_fewer_than_two_decay_levels_is_a_configuration_error(tmp_path, capsys, levels):
    rc = run_cli(["decay", "--levels", levels, "--samples-per-level", "10", "--out", tmp_path])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "configuration"
    assert not (tmp_path / "decay.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,estimator", [
    ("eig", "mlmc-naive"),   # eig has no naive coupling
    ("decay", "stdmc"),      # decay has no fixed-M form
])
def test_estimator_a_subcommand_would_replace_is_a_configuration_error(
        tmp_path, capsys, command, estimator, source):
    out = tmp_path / "out"
    args = [command, *_SMALL_RUN[command], "--out", out]
    if source == "flag":
        args += ["--estimator", estimator, *(["--inner-m", "4"] if command == "eig" else [])]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"estimator": estimator, "inner_m": 4}))
        args += ["--config", cfg_path]
    rc = run_cli(args)
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "configuration" and repr(estimator) in err["message"]
    assert not out.exists()


def test_config_naming_a_problem_runs_with_that_problems_defaults(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": "pk", "seed": 5, "n_outer": 300}))
    assert run_cli(["eig", "--config", cfg_path, "--out", tmp_path / "config"]) == 0
    assert run_cli(["eig", "--problem", "pk", "--seed", "5", "--n-outer", "300",
                    "--out", tmp_path / "flags"]) == 0
    assert (tmp_path / "config" / "eig.json").read_bytes() == \
        (tmp_path / "flags" / "eig.json").read_bytes()


@pytest.mark.parametrize("command", ["decay", "optimize", "eig"])
def test_every_parser_dest_is_a_config_field_or_cli_only(command):
    # load_config sets each config field whose name is a parser dest.
    dests = set(vars(build_parser().parse_args([command])))
    cli_only = {"command", "config", "threads", "out", "lr"}
    assert dests - cli_only <= set(RunConfig.__dataclass_fields__)


def _single_configuration_error(capsys) -> str:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "configuration"
    return err["message"]


def test_problem_flag_naming_another_problem_than_the_config_is_an_error(tmp_path, capsys):
    # It used to keep only the document's seed and drop its other fields.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": "testcase", "n_outer": 300, "seed": 4}))
    out = tmp_path / "out"
    assert run_cli(["eig", "--config", cfg_path, "--problem", "pk", "--out", out]) == 2
    assert "'pk'" in _single_configuration_error(capsys)
    assert not out.exists()
    # The document's own problem, named again, is no conflict.
    assert run_cli(["eig", "--config", cfg_path, "--problem", "testcase", "--out", out]) == 0
    assert json.loads((out / "eig.json").read_text())["n_outer"] == 300


@pytest.mark.parametrize("estimator,flag,value", [
    ("mlmc", "--inner-m", "64"),
    ("stdmc", "--tau", "2.0"),
    ("stdmc", "--m0", "2"),
    ("stdmc", "--w0", "0.5"),
])
def test_flag_the_estimator_never_reads_is_a_configuration_error(
        tmp_path, capsys, estimator, flag, value):
    out = tmp_path / "out"
    rc = run_cli(["eig", "--n-outer", "200", "--seed", "3", "--estimator", estimator,
                  flag, value, "--out", out])
    assert rc == 2
    message = _single_configuration_error(capsys)
    assert flag in message and repr(estimator) in message
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("decay", "--tau", "3"), ("decay", "--w0", "0.2"), ("decay", "--n-outer", "8"),
    ("decay", "--iters", "1"), ("decay", "--eig-every", "1"), ("decay", "--optimizer", "rm"),
    ("decay", "--lr", "0.1"),
    ("eig", "--iters", "3"), ("eig", "--eig-every", "1"), ("eig", "--optimizer", "rm"),
    ("eig", "--lr", "0.1"), ("eig", "--levels", "7"), ("eig", "--samples-per-level", "5"),
    ("optimize", "--levels", "3"), ("optimize", "--samples-per-level", "5"),
])
def test_flag_the_subcommand_never_reads_is_a_configuration_error(
        tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    assert run_cli([command, *_SMALL_RUN[command], flag, value, "--out", out]) == 2
    assert flag in _single_configuration_error(capsys)
    assert not out.exists()


def test_decay_does_not_take_inner_m(tmp_path, capsys):
    # decay never reads inner_m; the flag used to be listed and then refused
    # as unread by the estimator.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["decay", "--help"])
    assert "--inner-m" not in capsys.readouterr().out
    out = tmp_path / "out"
    assert run_cli(["decay", *_SMALL_RUN["decay"], "--inner-m", "3", "--out", out]) == 2
    message = _single_configuration_error(capsys)
    assert "unrecognized arguments: --inner-m 3" in message
    assert not out.exists()


def test_interrupt_is_one_json_line_and_exit_130(tmp_path, capsys, monkeypatch):
    from mlmc_boed import cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "unbiased_gradient", interrupted)
    try:
        rc = cli.main(["optimize", "--iters", "5", "--n-outer", "32", "--out", str(tmp_path)])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped main")
    assert rc == 130
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "interrupted"
    assert not (tmp_path / "optimize.json").exists()


@pytest.mark.parametrize("levels,reached", [("24", False), ("23", True)])
def test_decay_levels_past_the_chunk_cap_are_a_configuration_error(
        tmp_path, capsys, monkeypatch, levels, reached):
    # Level 23 of m0 = 1 holds exactly 2**22 inner samples, a decay chunk's cap.
    from mlmc_boed import cli

    class Reached(Exception):
        pass

    def reached_the_study(*args, **kwargs):
        raise Reached("decay_study was called")

    monkeypatch.setattr(cli, "decay_study", reached_the_study)
    out = tmp_path / "out"
    rc = cli.main(["decay", "--levels", levels, "--samples-per-level", "1", "--m0", "1",
                   "--out", str(out)])
    if reached:
        assert rc == 1 and "decay_study was called" in capsys.readouterr().err
    else:
        assert rc == 2
        assert "inner samples" in _single_configuration_error(capsys)
        assert not out.exists()


@pytest.mark.parametrize("levels", [100_000, 10**12])
def test_decay_levels_far_past_the_chunk_cap_are_refused_at_once(tmp_path, capsys, levels):
    # The check compares by a shift: 2**(levels - 1) itself would have more
    # digits than a string may hold, or than memory does.
    out = tmp_path / "out"
    start = time.perf_counter()
    rc = run_cli(["decay", "--levels", levels, "--samples-per-level", "1", "--out", out])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    message = _single_configuration_error(capsys)
    assert f"decay level {levels - 1} needs more inner samples" in message
    assert not out.exists()


@pytest.mark.parametrize("samples,reached", [("200001", False), ("200000", True)])
def test_decay_levels_sharing_sub_streams_are_a_configuration_error(
        tmp_path, capsys, monkeypatch, samples, reached):
    # Level 0 of m0 = 2**21 holds 2 samples a chunk; 200,001 samples would
    # make it draw from level 1's first sub-stream.  The study never starts.
    from mlmc_boed import cli

    class Reached(Exception):
        pass

    def reached_the_study(*args, **kwargs):
        raise Reached("decay_study was called")

    monkeypatch.setattr(cli, "decay_study", reached_the_study)
    out = tmp_path / "out"
    rc = cli.main(["decay", "--levels", "2", "--samples-per-level", samples,
                   "--m0", str(2**21), "--out", str(out)])
    if reached:
        assert rc == 1 and "decay_study was called" in capsys.readouterr().err
    else:
        assert rc == 2
        assert "sub-streams" in _single_configuration_error(capsys)
        assert not out.exists()
