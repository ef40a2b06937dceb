import csv
import json
import os
import subprocess
import sys

import pytest

from asplan import disposition
from asplan.cli import main
from test_readme_examples import EXAMPLES

CLI = [sys.executable, "-m", "asplan.cli"]
# The child interpreter imports asplan from this checkout, installed or not.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

DESIGN_FLAGS = [
    "design",
    "--family", "ssp",
    "--lambda0", "300",
    "--lambda1", "50",
    "--alpha", "0.05",
    "--beta", "0.05",
    "--a", "1500",
]


def run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(CLI + args, capture_output=True, text=True, env=env)


def test_design_runs_and_reports_plan():
    result = run_cli(DESIGN_FLAGS)
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["family"] == "ssp"
    assert 0.0 < payload["t1"] <= payload["t2"] <= 300.0
    assert payload["n"] is None
    assert 0.0 <= payload["phi"] <= 1.0


def test_design_output_is_deterministic():
    first = run_cli(DESIGN_FLAGS)
    second = run_cli(DESIGN_FLAGS)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_seed_flag_sets_the_oracle_seed(tmp_path):
    oracle = ["oracle", "--family", "ssp", "--draws", "20000"]
    default = run_cli(oracle)
    assert default.returncode == 0, default.stderr
    assert default.stdout == run_cli(oracle + ["--seed", "42"]).stdout
    explicit = run_cli(oracle + ["--seed", "11"])
    assert explicit.returncode == 0, explicit.stderr
    assert explicit.stdout != default.stdout
    config = tmp_path / "seed.cfg"
    config.write_text("seed = 11\n")
    assert run_cli(oracle + ["--config", str(config)]).stdout == explicit.stdout
    # A design draws no random numbers, so design takes no seed.
    assert run_cli(DESIGN_FLAGS + ["--seed", "11"]).returncode == 2


def test_design_validation_errors_exit_1():
    missing_tau = run_cli(
        [
            "design", "--family", "type1", "--lambda0", "300", "--lambda1", "50",
            "--alpha", "0.05", "--beta", "0.05", "--a", "1500",
        ]
    )
    assert missing_tau.returncode == 1
    assert "tau" in missing_tau.stderr
    bad_a = run_cli(
        [
            "design", "--family", "ssp", "--lambda0", "300", "--lambda1", "50",
            "--alpha", "0.05", "--beta", "0.05", "--a", "200",
        ]
    )
    assert bad_a.returncode == 1


def test_config_file_fills_gaps_but_flags_win(tmp_path):
    config = tmp_path / "plan.cfg"
    config.write_text(
        "# shared study settings\n"
        "lambda1 = 50\n"
        "alpha = 0.10\n"
    )
    result = run_cli(
        [
            "design", "--config", str(config), "--family", "ssp",
            "--lambda0", "300", "--alpha", "0.05", "--beta", "0.05", "--a", "1500",
        ]
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["inputs"]["lambda1"] == 50.0
    assert payload["inputs"]["alpha"] == 0.05  # flag beats config

    unknown = tmp_path / "bad.cfg"
    unknown.write_text("mystery = 1\n")
    result = run_cli(
        ["design", "--config", str(unknown)] + DESIGN_FLAGS[1:]
    )
    assert result.returncode == 1
    assert "mystery" in result.stderr


def test_crisp_baseline_matches_reference_cost():
    result = run_cli(["crisp-baseline"] + DESIGN_FLAGS[1:])
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["crisp"] is True
    assert payload["margins"]["g"] >= -1e-6
    assert payload["margins"]["h"] >= -1e-6


def test_verify_tables_subset_and_exit_codes(tmp_path):
    result = run_cli(["verify-tables", "--table", "7", "--json", str(tmp_path / "r.json")])
    assert result.returncode == 0, result.stderr
    assert "feasibility: 4/4" in result.stdout
    assert (tmp_path / "r.json").exists()

    empty = run_cli(["verify-tables", "--rows", "0"])
    assert empty.returncode == 0
    assert "no design rows selected" in empty.stdout


def test_verify_tables_in_process_selects_nothing_or_writes_csv(tmp_path, capsys):
    """``--rows 0`` selects no row and says so, with exit 0; ``--csv``
    writes a header and one row per report."""
    assert main(["verify-tables", "--rows", "0"]) == 0
    assert capsys.readouterr().out == "no design rows selected\n"
    path = tmp_path / "r.csv"
    assert main(["verify-tables", "--table", "7", "--csv", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(printed) - 1 == 4  # the last line is the summary
    assert {"table", "family", "feasible", "g", "h"} <= set(rows[0])
    assert {row["table"] for row in rows} == {"7"}


@pytest.mark.parametrize(
    "family,extra,stderr",
    [
        ("ssp", [], "sequential plan: infeasible: best violation 0.34634011855721736\n"),
        ("rgsp_max", ["--n-max", "2"],
         "group size 1: infeasible: best violation 0.34634011855721736\n"
         "group size 2: infeasible: best violation 0.575701957021063\n"),
    ],
    ids=["ssp", "rgsp_max"],
)
def test_design_on_an_infeasible_problem_exits_2_with_empty_stdout(capsys, family, extra, stderr):
    """lambda1 = 290 is too close to lambda0 = 300 for 1 % risks with no
    slack: stderr names each size tried, or the sequential plan, with its
    best violation (`InfeasibleError.per_n`), and stdout stays empty."""
    argv = ["design", "--family", family, "--lambda0", "300", "--lambda1", "290",
            "--a", "1500", "--alpha", "0.01", "--beta", "0.01", "--b1", "0", "--b2", "0", *extra]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", stderr)


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--rows", "-79"], "--rows must be >= 0, got -79"),
        (["--tolerance", "-1"], "the tolerance must be finite and >= 0, got -1.0"),
        (["--tolerance", "nan"], "the tolerance must be finite and >= 0, got nan"),
        (["--tolerance", "inf"], "the tolerance must be finite and >= 0, got inf"),
        (["--table", "99"], "no table 99; the tables are [1, 2, 3, 4, 5, 6, 7, 8, 9]"),
    ],
    ids=["rows-negative", "tolerance-negative", "tolerance-nan", "tolerance-inf", "table-absent"],
)
def test_verify_tables_rejects_a_nonsense_selector(capsys, flags, message):
    """A negative --rows would slice from the end, a negative or NaN
    --tolerance would fail every row, and an absent --table would check no
    row; all are input errors."""
    assert main(["verify-tables", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


SSP_FLAGS = DESIGN_FLAGS[1:-2]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["design", *SSP_FLAGS, "--a", "inf"], "must be finite and exceed"),
        (["oracle", "--family", "ssp", "--lambda0", "300", "--a", "inf", "--t1", "1",
          "--t2", "2", "--draws", "10000"], "must be finite and exceed"),
        (["design", *DESIGN_FLAGS[1:], "--cost", "inf"], "cost rate must be positive and finite"),
        (["design", "--family", "type1", "--lambda0", "300", "--lambda1", "200",
          "--alpha", "0.01", "--beta", "0.01", "--a", "15000", "--tau", "inf"],
         "tau must be positive and finite"),
        (["oracle", "--family", "type1", "--tau", "inf", "--n", "3", "--draws", "10000"],
         "tau must be positive and finite"),
        (["oracle", "--family", "type1", "--lambda0", "inf", "--tau", "50", "--n", "3",
          "--draws", "10000"], "mean life must be positive and finite"),
    ],
    ids=["design-a-inf", "oracle-a-inf", "cost-inf", "tau-inf", "oracle-tau-inf",
         "oracle-lambda0-inf"],
)
def test_non_finite_inputs_are_errors(capsys, argv, message):
    """An infinite fuzziness scale once hung `oracle` and crashed `design`,
    an infinite cost or tau printed Infinity, which is not JSON, and the
    Type-I simulation once reported p_r = 0 at an infinite tau and p_a = 1
    at an infinite mean life."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_design_rejects_a_group_size_bound_below_one(capsys):
    argv = ["design", *DESIGN_FLAGS[1:], "--family", "rgsp_min", "--n-max", "0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_max must be >= 1, got 0\n"


def test_design_where_survival_rounds_to_1_at_the_box_corner(capsys):
    """At lambda0 = 1e11 the survival rounds to 1 at t = 1e-6, where the
    rgsp_max p_a once took log1p(-1.0): `design` printed a traceback."""
    argv = ["design", "--family", "rgsp_max", "--lambda0", "1e11", "--lambda1", "2e10",
            "--a", "1e12", "--alpha", "0.05", "--beta", "0.05", "--n-max", "5"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["n"] == 3


def test_design_leaves_a_fractional_group_size_bound_to_argparse(capsys):
    """A non-integer --n-max never reaches the problem: argparse rejects
    it, with exit 2."""
    with pytest.raises(SystemExit) as excinfo:
        main(["design", *DESIGN_FLAGS[1:], "--family", "rgsp_min", "--n-max", "2.5"])
    assert excinfo.value.code == 2
    assert "invalid int value: '2.5'" in capsys.readouterr().err


def test_dispose_exit_codes(tmp_path):
    accept = run_cli(
        ["dispose", "--data", "case-study", "--family", "ssp",
         "--t1", "41", "--t2", "3159"]
    )
    assert accept.returncode == 0
    assert json.loads(accept.stdout)["decision"] == "accept"

    data = tmp_path / "short.csv"
    data.write_text("5\n")
    reject = run_cli(
        ["dispose", "--data", str(data), "--family", "ssp", "--t1", "41", "--t2", "3159"]
    )
    assert reject.returncode == 3

    band = tmp_path / "band.csv"
    band.write_text("100\n200\n")
    undecided = run_cli(
        ["dispose", "--data", str(band), "--family", "ssp", "--t1", "41", "--t2", "3159"]
    )
    assert undecided.returncode == 4

    missing = run_cli(
        ["dispose", "--data", str(tmp_path / "nope.csv"), "--family", "ssp",
         "--t1", "1", "--t2", "2"]
    )
    assert missing.returncode == 1


@pytest.mark.parametrize(
    "t1,t2,shown", [("3159", "41", "t1=3159.0, t2=41.0"), ("-5", "nan", "t1=-5.0, t2=nan")],
    ids=["reversed", "negative-nan"],
)
def test_dispose_rejects_bad_thresholds(capsys, t1, t2, shown):
    argv = ["dispose", "--data", "case-study", "--family", "ssp", "--t1", t1, "--t2", t2]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need 0 <= t1 <= t2, got {shown}\n"


def test_dispose_reads_design_json(tmp_path):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"t1": 41.0, "t2": 3159.0, "n": None, "inputs": {}}))
    result = run_cli(
        ["dispose", "--data", "case-study", "--family", "ssp",
         "--design-json", str(design)]
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["decided_at"] == 4


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"t1": 41.0, "t2": ', "is not JSON"),
        ('{"t2": 3159.0}', "need --t1 and --t2"),
        ("[41.0, 3159.0]", "holds no design object"),
        ('{"t1": 41.0, "t2": 3159.0, "inputs": []}', "holds no design object"),
        # Wrong JSON types are rejected before any family's disposition runs.
        ('{"t1": "abc", "t2": 3159}', 't1 must be a number, got "abc"'),
        ('{"t1": 10, "t2": 3000, "n": 2.5}', "n must be an integer, got 2.5"),
        ('{"t1": 1219, "t2": 1990, "n": 13, "inputs": {"tau": "x"}}',
         'tau must be a number, got "x"'),
        ('{"t1": true, "t2": 3159}', "t1 must be a number, got true"),
    ],
    ids=["malformed", "no-t1", "list", "inputs-list", "t1-string", "n-float", "tau-string",
         "t1-bool"],
)
def test_dispose_rejects_a_bad_design_json(tmp_path, capsys, text, message):
    design = tmp_path / "design.json"
    design.write_text(text)
    argv = ["dispose", "--data", "case-study", "--family", "ssp", "--design-json", str(design)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("[null, 3]", "non-numeric value null in data file"),
        ("[[1, 2]]", "non-numeric value [1, 2] in data file"),
        ("[5, true]", "non-numeric value true in data file"),
        ('[5, "6"]', 'non-numeric value "6" in data file'),
    ],
    ids=["null", "nested-list", "bool", "string"],
)
def test_dispose_rejects_a_json_data_file_of_non_numbers(tmp_path, capsys, text, message):
    """Every element of a JSON data array must be a JSON number; anything
    else is an input error, not a traceback."""
    data = tmp_path / "data.json"
    data.write_text(text)
    assert main(["dispose", "--data", str(data), "--family", "ssp", "--t1", "1", "--t2", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read data: {message}\n"


@pytest.mark.parametrize(
    "data,flags,message",
    [
        ("1\ninf\n3\n", [], "cannot read data: all observed values must be positive and finite"),
        ("[1e999, 3]", [], "cannot read data: all observed values must be positive and finite"),
        (None, ["--t1", "inf", "--t2", "inf"], "thresholds must be finite, got t1=inf, t2=inf"),
        (None, ["--t2", "inf"], "thresholds must be finite, got t1=1.0, t2=inf"),
        (None, ["--family", "type1", "--n", "13", "--tau", "inf"],
         "tau must be positive and finite, got inf"),
    ],
    ids=["csv-inf", "json-overflow", "t1-t2-inf", "t2-inf", "tau-inf"],
)
def test_dispose_rejects_non_finite_input(tmp_path, capsys, data, flags, message):
    """An infinite lifetime, threshold or censoring time is an input error:
    it would otherwise decide, and print evidence as null, which stands for
    a Type-I group with no failure, or print Infinity, which is no JSON."""
    path = "case-study"
    if data is not None:
        path = str(tmp_path / ("data.json" if data.startswith("[") else "data.csv"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(data)
    argv = ["dispose", "--data", path, "--family", "ssp", "--t1", "1", "--t2", "2000", *flags]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_dispose_type1_group_with_no_failure_accepts(tmp_path, capsys):
    """Every item outlived tau, so the censored MLE is +inf: the group
    accepts, and its evidence prints as JSON null."""
    data = tmp_path / "survivors.csv"
    data.write_text("500\n600\n700\n")
    argv = ["dispose", "--data", str(data), "--family", "type1", "--n", "3", "--tau", "50",
            "--t1", "100", "--t2", "400"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["decision"], payload["decided_at"], payload["evidence"]) == ("accept", 1, [None])


def test_oracle_single_case_and_determinism():
    args = ["oracle", "--family", "ssp", "--draws", "20000"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    reports = json.loads(first.stdout)
    assert len(reports) == 3
    assert all(r["passed"] for r in reports)


def test_config_flags_win_in_process(tmp_path, capsys):
    config = tmp_path / "rows.cfg"
    config.write_text("rows = 2\n")
    status = main(["verify-tables", "--config", str(config), "--rows", "5"])
    out = capsys.readouterr().out
    assert status == 0
    assert "feasibility: 5/5" in out


def test_bad_config_values_are_reported_like_flags(tmp_path, capsys):
    for line, flag in (
        ("lambda0 = abc", "--lambda0"),
        ("family = bogus", "--family"),
        ("allow-t2-above-lambda0 = ture", "--allow-t2-above-lambda0"),
    ):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["design", "--config", str(config)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err

    config = tmp_path / "unknown.cfg"
    config.write_text("mystery = 1\n")
    assert main(["design", "--config", str(config)] + DESIGN_FLAGS[1:]) == 1
    assert "mystery" in capsys.readouterr().err


def test_dispose_config_supplies_data_and_family(tmp_path, capsys):
    config = tmp_path / "dispose.cfg"
    config.write_text("data = case-study\nfamily = ssp\nt1 = 41\nt2 = 3159\n")
    assert main(["dispose", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["decided_at"] == 4


def test_dispose_without_data_or_family_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "partial.cfg"
    config.write_text("family = ssp\n")
    for argv, flags in (
        (["dispose", "--t1", "41", "--t2", "3159"], ("--data", "--family")),
        (["dispose", "--config", str(config), "--t1", "41", "--t2", "3159"], ("--data",)),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert message.endswith("required: " + ", ".join(flags))


def test_dispose_rgsp_max_gives_the_decision_of_dispose_rgsp_max(capsys):
    """`dispose --family rgsp_max` on the case study prints what
    `disposition.dispose_rgsp_max` decides in process."""
    argv = ["dispose", "--data", "case-study", "--family", "rgsp_max", "--t1", "100",
            "--t2", "5000", "--n", "3"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = disposition.dispose_rgsp_max(disposition.case_study_data(), 100.0, 5000.0, 3)
    assert (payload["decision"], payload["decided_at"], payload["evidence"]) == (
        expected.decision.value, expected.decided_at, list(expected.evidence))


@pytest.mark.parametrize(
    "family,decided_at,n,tau",
    [("ssp", 8, 1, None), ("rgsp_min", 8, 3, None), ("type1", 1, 3, 7.0)],
)
def test_dispose_echoes_the_group_size_and_tau_that_it_read(family, decided_at, n, tau, capsys):
    """The decision JSON echoes the n and tau of the disposition it made: a
    sequential plan scans single values whatever ``--n`` says, and only a
    Type-I plan reads ``--tau``."""
    argv = ["dispose", "--data", "case-study", "--family", family, "--t1", "100",
            "--t2", "5000", "--n", "3", "--tau", "7"]
    assert main(argv) in (0, 3)  # accept or reject
    payload = json.loads(capsys.readouterr().out)
    assert (payload["decided_at"], payload["n"], payload["tau"]) == (decided_at, n, tau)


def test_dispose_group_size_flag_then_design_json_then_one(tmp_path, capsys):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"t1": 10, "t2": 3000, "n": 4}))
    base = ["dispose", "--data", "case-study", "--family", "rgsp_min"]
    for extra, n, group in (
        (["--design-json", str(design)], 4, 8),
        (["--design-json", str(design), "--n", "1"], 1, 3),
        (["--t1", "10", "--t2", "3000"], 1, 3),
    ):
        assert main(base + extra) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["n"], payload["decided_at"]) == (n, group)


def test_oracle_type1_writes_the_json_it_prints(tmp_path, capsys):
    path = tmp_path / "o.json"
    argv = ["oracle", "--family", "type1", "--tau", "100", "--n", "3",
            "--draws", "10000", "--json", str(path)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["draws"] == 10000
    assert path.read_text(encoding="utf-8") == printed


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--n", "0", "--tau", "50"], "n must be >= 1"),
        (["--n", "-3", "--tau", "50"], "n must be >= 1"),
        (["--tau", "-5"], "tau must be positive"),
    ],
    ids=["n-zero", "n-negative", "tau-negative"],
)
def test_oracle_type1_rejects_a_bad_group_size_or_tau(capsys, flags, message):
    assert main(["oracle", "--family", "type1", "--draws", "10000", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)


def test_oracle_type1_takes_a_mean_life_above_the_fuzziness_scale(capsys):
    """The censored family simulates a plain mean life, so --a (default
    1500) does not bound --lambda0."""
    argv = ["oracle", "--family", "type1", "--lambda0", "2000", "--tau", "1000",
            "--t1", "1500", "--t2", "2500", "--n", "5", "--draws", "10000"]
    assert main(argv) == 0
    estimate = json.loads(capsys.readouterr().out)
    assert estimate["draws"] == 10000
    assert estimate["p_a"] + estimate["p_r"] + estimate["p_c"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "argv,numpy",
    [
        ([], False),
        (EXAMPLES["dispose_case_study.json"], False),
        (EXAMPLES["design_type1.json"], False),
        (EXAMPLES["design_ssp.json"], False),
        (["verify-tables"], False),
        (["design", "--family", "rgsp_max", "--lambda0", "300", "--lambda1", "50", "--alpha",
          "0.05", "--beta", "0.05", "--a", "1500", "--b1", "0.05", "--b2", "0.05", "--n-max",
          "3"], False),
        (EXAMPLES["crisp_baseline_ssp.json"], False),
        (["oracle", "--family", "ssp", "--lambda0", "300", "--a", "1500", "--t1", "5.8231",
          "--t2", "251.1178", "--draws", "10000"], True),
    ],
    ids=["import", "dispose", "design-type1", "design-ssp", "verify-tables", "design-rgsp-max",
         "crisp-baseline", "oracle"],
)
def test_scipy_loads_only_where_a_command_needs_it(argv, numpy):
    """In a fresh interpreter, no command needs scipy: neither `import
    asplan` nor a README example, a fuzzy grouped design, `verify-tables`
    or the oracle loads any scipy module, since E[Y] of a fuzzy life is a
    Gauss-Legendre rule in pure Python and the roots are
    `fuzzyopt._last_met`.  numpy is loaded by the Monte-Carlo oracle alone,
    so every other command starts without it.  `import asplan` loads no
    `statistics` either: only a Type-I law, for its normal quantile."""
    code = (
        "import sys\n"
        "import asplan\n"
        "from asplan.cli import main\n"
        "status = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "loaded = lambda top: sorted(m for m in sys.modules if m.split('.')[0] == top)\n"
        "print(status, loaded('scipy'))\n"
        "print(loaded('numpy'))\n"
        "print('statistics' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    *_, scipy_line, numpy_line, statistics_line = result.stdout.splitlines()
    assert scipy_line == "0 []"
    assert (numpy_line != "[]") is numpy, numpy_line
    if not argv:
        assert statistics_line == "False"
