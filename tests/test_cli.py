import json
import math

import pytest

import smddc.cli
import smddc.simulator
from smddc import (
    PacketCountDistribution,
    PolicyKind,
    SessionSpec,
    beta1,
    beta2_sdo,
    chernoff_generic,
    estimate_session_error_curves,
)
from smddc.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ladder_csv(capsys):
    code, out, _ = run_cli(capsys, ["ladder", "--gamma", "4", "--omega", "20", "--depth", "3", "--k", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,rho,sinr"
    rhos = [float(line.split(",")[1]) for line in lines[1:]]
    assert rhos == [4.0, 20.0, 100.0]


def test_ladder_depth_not_limited_by_default_k(capsys):
    # a ladder depends on no policy, so the default k = 2 does not limit its depth
    code, out, _ = run_cli(capsys, ["ladder", "--gamma", "4", "--omega", "20", "--depth", "3"])
    assert code == 0
    rhos = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert rhos == [4.0, 20.0, 100.0]


def test_ladder_json_matches_csv(capsys):
    argv = ["ladder", "--gamma", "4", "--omega", "20", "--depth", "2", "--k", "2"]
    _, out_json, _ = run_cli(capsys, argv + ["--format", "json"])
    payload = json.loads(out_json)
    assert payload["command"] == "ladder"
    assert [r["rho"] for r in payload["rows"]] == [4.0, 20.0]
    assert all(r["sinr"] == pytest.approx(4.0) for r in payload["rows"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ladder_overflow_is_exit_2(tmp_path, capsys, fmt):
    # rho_l = 4 * 5**(l - 1) passes the double range at level 442; CSV printed inf and nan rows
    path = tmp_path / f"ladder.{fmt}"
    path.write_text("kept\n")
    argv = ["ladder", "--gamma", "4", "--omega", "20", "--depth", "445", "--format", fmt, "--out", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and err == "error: the received power of level 442 of 445 overflows\n"
    assert path.read_text() == "kept\n"  # cmd_ladder raises before _emit, the one place that opens --out
    code, out, _ = run_cli(capsys, ["ladder", "--gamma", "4", "--omega", "20", "--depth", "441", "--format", fmt])
    assert code == 0 and "inf" not in out.lower() and "nan" not in out.lower()


def test_gamma_db_conversion(capsys):
    # 10 log10(4) dB should reproduce the linear gamma=4 ladder
    db = 10 * math.log10(4.0)
    _, out, _ = run_cli(capsys, ["ladder", "--gamma-db", str(db), "--omega", "20", "--depth", "2", "--k", "2"])
    rhos = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert rhos == pytest.approx([4.0, 20.0])


def test_analytic_sdo_record(capsys):
    argv = [
        "analytic", "--gamma", "4", "--omega", "20", "--policy", "sdo",
        "--k", "3", "--w", "50", "--ws", "55", "--format", "json",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    record = json.loads(out)["record"]
    assert record["beta1"] == pytest.approx(beta1(4.0, 20.0))
    assert record["beta2"] == pytest.approx(beta2_sdo(4.0, 20.0, 20.0, 3))
    assert 0.0 < record["exact_p_se"] < 1.0
    assert 0.0 < record["eta"] < 1.0
    assert record["chernoff_bound"] >= record["exact_p_se"]


def test_simulate_deterministic_and_runtime_on_stderr(capsys):
    argv = [
        "simulate", "--gamma", "4", "--omega", "20", "--policy", "sdo",
        "--k", "3", "--trials", "20000", "--seed", "5",
    ]
    code, out1, err1 = run_cli(capsys, argv)
    assert code == 0
    assert "simulate:" in err1 and "simulate:" not in out1
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    header, row = out1.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["policy"] == "sdo" and fields["trials"] == "20000"
    assert 0.0 <= float(fields["p_hat"]) <= 1.0


def test_simulate_worker_invariance(capsys):
    argv = [
        "simulate", "--gamma", "4", "--omega", "20", "--policy", "oma",
        "--trials", "120000", "--seed", "1",
    ]
    _, out1, _ = run_cli(capsys, argv + ["--workers", "1"])
    _, out4, _ = run_cli(capsys, argv + ["--workers", "4"])
    assert out1 == out4


def test_sweep_ws_two_policies(capsys):
    argv = [
        "sweep", "--gamma", "4", "--omega", "20", "--k", "3",
        "--policy", "sdo,oma", "--axis", "w_s", "--values", "50,55,60",
        "--trials", "5000",
    ]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert "sweep:" in err
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 6  # header + 3 values x 2 policies
    header = lines[0].split(",")
    i_policy, i_value, i_err = header.index("policy"), header.index("value"), header.index("error")
    rows = [line.split(",") for line in lines[1:]]
    assert [r[i_policy] for r in rows] == ["sdo", "oma"] * 3
    assert all(r[i_err] == "" for r in rows)
    assert [r[i_value] for r in rows] == ["50", "50", "55", "55", "60", "60"]


def test_sweep_range_syntax(capsys):
    argv = [
        "sweep", "--gamma", "4", "--omega", "20", "--policy", "oma",
        "--axis", "omega", "--values", "10:5:20", "--trials", "2000",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    i_value = out.splitlines()[0].split(",").index("value")
    values = [float(line.split(",")[i_value]) for line in out.strip().splitlines()[1:]]
    assert values == [10.0, 15.0, 20.0]


def test_sweep_error_row_shows_swept_value(capsys):
    argv = [
        "sweep", "--gamma", "4", "--omega", "20", "--k", "3", "--policy", "sdo",
        "--axis", "k", "--values", "1,2", "--trials", "2000",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    header, *rows = (line.split(",") for line in out.strip().splitlines())
    i_k, i_err = header.index("k"), header.index("error")
    assert [r[i_k] for r in rows] == ["1", "2"]
    assert [r[i_err] for r in rows] == ["sdo needs k >= 2", ""]
    # only sym has a depth to sweep
    argv = ["sweep", "--gamma", "4", "--omega", "20", "--policy", "oma", "--axis", "depth", "--values", "2"]
    code, out, _ = run_cli(capsys, [*argv, "--trials", "2000"])
    assert code == 0 and [row["error"] for row in _csv_rows(out)] == ["axis=depth requires the sym policy"]


def test_sweep_depth_runs_swept_depth(capsys):
    # each row matches `simulate` at that depth; a depth above k runs at k = depth
    common = ["--gamma", "4", "--omega", "20", "--policy", "sym", "--trials", "20000", "--seed", "5"]
    argv = ["sweep", *common, "--k", "3", "--axis", "depth", "--values", "1,2,4"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    header, *rows = (line.split(",") for line in out.strip().splitlines())
    i_depth, i_k, i_p = header.index("depth"), header.index("k"), header.index("p_hat")
    assert [(r[i_depth], r[i_k]) for r in rows] == [("1", "3"), ("2", "3"), ("4", "4")]
    for row in rows:
        _, sim, _ = run_cli(capsys, ["simulate", *common, "--k", row[i_k], "--depth", row[i_depth]])
        sim_header, sim_row = (line.split(",") for line in sim.strip().splitlines())
        assert row[i_p] == sim_row[sim_header.index("p_hat")]


def test_sweep_depth_above_k_only_limits_sym(capsys):
    argv = [
        "sweep", "--gamma", "4", "--omega", "20", "--k", "3", "--depth", "3",
        "--policy", "oma,sdo", "--axis", "k", "--values", "2", "--trials", "2000",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    header, *rows = (line.split(",") for line in out.strip().splitlines())
    i_k, i_err = header.index("k"), header.index("error")
    assert [(r[i_k], r[i_err]) for r in rows] == [("2", ""), ("2", "")]


def test_sweep_shared_draws_match_simulate(capsys):
    # OMA, sym 2, SDO and FO at one point share two draws; each row must
    # still equal its own `simulate`, and the invalid k=1 rows stay in place
    common = ["--gamma", "4", "--omega", "15", "--depth", "2", "--trials", "20001", "--seed", "5"]
    argv = ["sweep", *common, "--policy", "oma,sym,sdo,fo", "--axis", "k", "--values", "1,3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    header, *rows = (line.split(",") for line in out.strip().splitlines())
    i_policy, i_k, i_p, i_err = (header.index(c) for c in ("policy", "k", "p_hat", "error"))
    assert [(r[i_policy], r[i_k]) for r in rows] == [
        (p, k) for k in ("1", "3") for p in ("oma", "sym", "sdo", "fo")
    ]
    assert [r[i_err] for r in rows[:4]] == [
        "", "symmetric depth 2 exceeds k=1", "sdo needs k >= 2", "fo needs k >= 2",
    ]
    valid = [r for r in rows if r[i_err] == ""]
    assert len(valid) == 5 and len({r[i_p] for r in valid}) == 4
    for row in valid:
        sim_argv = ["simulate", *common, "--policy", row[i_policy], "--k", row[i_k]]
        _, sim, _ = run_cli(capsys, sim_argv)
        sim_header, sim_row = (line.split(",") for line in sim.strip().splitlines())
        assert row[i_p] == sim_row[sim_header.index("p_hat")]


def _p_hats(rows):
    curves = {}
    for row in rows:
        curves.setdefault(row["policy"], []).append(float(row["p_hat"]))
    return curves


def test_sweep_ws_rows_are_non_increasing_in_ws(capsys):
    # the rows of one scenario share one draw, so a longer session fails only
    # where a shorter one did; independent rows would cross here (SDO reads
    # 0.001 at W_S = 56 and 0.0015 at 57 from separate draws)
    argv = [
        "sweep", "--gamma", "4", "--omega", "20", "--k", "3", "--policy", "oma,sdo,fo",
        "--axis", "w_s", "--values", "55,56,57", "--trials", "2000", "--seed", "4",
    ]
    code, out, _ = run_cli(capsys, argv)
    curves = _p_hats(_csv_rows(out))
    assert code == 0 and sorted(curves) == ["fo", "oma", "sdo"]
    for p_hats in curves.values():
        assert len(p_hats) == 3 and all(a >= b for a, b in zip(p_hats, p_hats[1:])), p_hats


def test_sweep_ws_longest_row_matches_simulate(capsys):
    common = ["--gamma", "4", "--omega", "15", "--k", "3", "--trials", "20001", "--seed", "5"]
    sweep = ["sweep", *common, "--policy", "oma,sdo,fo", "--axis", "w_s"]
    code, out, _ = run_cli(capsys, [*sweep, "--values", "55,60,50"])
    assert code == 0
    rows = _csv_rows(out)
    assert [row["w_s"] for row in rows] == ["55"] * 3 + ["60"] * 3 + ["50"] * 3
    for row in rows[3:6]:
        _, sim, _ = run_cli(capsys, ["simulate", *common, "--policy", row["policy"], "--ws", "60"])
        (sim_row,) = _csv_rows(sim)
        assert (row["p_hat"], row["ci95_halfwidth"]) == (sim_row["p_hat"], sim_row["ci95_halfwidth"])
    # a one-value sweep is one engine call at that length; OMA and SDO read the dense levels
    # alone, FO the screened deeper levels too
    code, out, _ = run_cli(capsys, [*sweep, "--values", "55"])
    assert code == 0 and [row["p_hat"] for row in _csv_rows(out)] == [
        "0.9949002549872507", "0.24813759312034397", "0.2423878806059697",
    ]


def test_sweep_estimates_each_law_once_per_scenario(capsys, monkeypatch):
    # FO's and sym 3's laws do not depend on w_s: one estimate each serves every W_S point
    calls, estimate_alphas = [], smddc.cli.estimate_alphas

    def counted(policy, config, *args, **kwargs):
        calls.append(policy.variant)
        return estimate_alphas(policy, config, *args, **kwargs)

    argv = [
        "sweep", "--gamma", "4", "--omega", "20", "--k", "3", "--depth", "3", "--policy", "fo,sym,oma",
        "--axis", "w_s", "--values", "50,55,60", "--trials", "2000", "--format", "json",
    ]
    code, expected, _ = run_cli(capsys, argv)
    monkeypatch.setattr(smddc.cli, "estimate_alphas", counted)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == expected and sorted(calls) == ["fo", "sym"]


def test_sweep_integer_axis_rejects_fractional_range(capsys):
    argv = [
        "sweep", "--gamma", "4", "--omega", "20", "--policy", "oma",
        "--axis", "w_s", "--values", "50:2.5:56", "--trials", "2000",
    ]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and "52.5 is not an integer" in err


@pytest.mark.parametrize(
    "values, message",
    [
        ("60:1:55", "range '60:1:55' holds no value"),
        ("50:1:inf", "range must be finite, got '50:1:inf'"),
        # (end - start) / step overflows to an infinity, where math.floor raised OverflowError
        ("1:1e-11:1e300", "range '1:1e-11:1e300' holds more than 1000000 values"),
        ("-1e308:1e308:1e308", "range '-1e308:1e308:1e308' holds more than 1000000 values"),
        ("1e308:1e308:-1e308", "range '1e308:1e308:-1e308' holds no value"),
        ("50:55", "range must be start:step:end, got '50:55'"),
        ("50:0:55", "range step must be positive"),
    ],
)
def test_sweep_empty_or_unbounded_range_is_exit_2(capsys, values, message):
    argv = [
        "sweep", "--gamma", "4", "--omega", "20", "--policy", "oma",
        "--axis", "w_s", f"--values={values}", "--trials", "2000",
    ]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("values, step", [("1:1e-13:1.000000000001", "1e-13"), ("1:1e-300:2", "1e-300")])
def test_sweep_range_step_lost_to_rounding_is_exit_2(capsys, values, step):
    # points are rounded to 12 digits: the first gave 11 points of 2 values,
    # the second asks for about 1e300 points and never ended
    argv = [
        "sweep", "--gamma", "4", "--omega", "20", "--policy", "oma",
        "--axis", "omega", "--values", values, "--trials", "2000",
    ]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: range step {step} is lost when rounded to 12 digits, got {values!r}\n"
    assert smddc.cli._parse_values("50:5:70", True) == [50, 55, 60, 65, 70]


def test_sweep_range_values_do_not_drift():
    # value i is start + i*step, not a running sum of steps
    assert smddc.cli._parse_values("0:0.1:1000", False) == [i / 10 for i in range(10001)]
    # and the end point is kept where (end - start) / step falls short of the count by more
    # than a fixed slack, as it does for a start many steps from zero
    for text, count, last in [
        ("1807420:0.0469:1807420.8442", 19, 1807420.8442),
        ("7152116:0.00405:7152116.05670", 15, 7152116.0567),
    ]:
        values = smddc.cli._parse_values(text, False)
        assert len(values) == count and values[-1] == last


def test_sweep_range_of_too_many_points_is_exit_2(capsys):
    # about 1e11 points: the loop appended them until memory ran out
    argv = [
        "sweep", "--gamma", "4", "--omega", "20", "--policy", "oma",
        "--axis", "omega", "--values", "1:1e-11:2", "--trials", "2000",
    ]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: range '1:1e-11:2' holds 100000000001 values, more than 1000000\n"
    assert len(smddc.cli._parse_values("0:0.1:1000", False)) == 10_001
    assert len(smddc.cli._parse_values("1:1:1000000", True)) == 10**6


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_exit_2(capsys, workers):
    common = ["--gamma", "4", "--omega", "20", "--trials", "2000", "--workers", workers]
    code, out, err = run_cli(capsys, ["simulate", *common])
    assert code == 2 and out == "" and "workers must be at least 1" in err
    code, out, err = run_cli(capsys, ["sweep", *common, "--axis", "w_s", "--values", "55"])
    assert code == 2 and out == "" and "workers must be at least 1" in err
    for command in ("analytic", "ladder"):  # they run no Monte Carlo, and check it all the same
        code, out, err = run_cli(capsys, [command, *common])
        assert code == 2 and out == "" and "workers must be at least 1" in err


def test_workers_above_the_maximum_is_exit_2(capsys, monkeypatch):
    # every command, before any thread could start
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was made")

    monkeypatch.setattr(smddc.simulator, "ThreadPoolExecutor", no_pool)
    workers = str(smddc.simulator.MAX_WORKERS + 1)
    common = ["--gamma", "4", "--omega", "20", "--k", "3", "--policy", "fo", "--trials", "2000", "--workers", workers]
    for argv in (["simulate"], ["sweep", "--axis", "w_s", "--values", "55"], ["analytic"], ["ladder"]):
        code, out, err = run_cli(capsys, [*argv, *common])
        assert code == 2 and out == ""
        assert err == f"error: workers must be at least 1 and at most {smddc.simulator.MAX_WORKERS}, got {workers}\n"


def test_missing_budget_is_exit_2(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--gamma", "4"])
    assert code == 2 and "error:" in err


def test_invalid_policy_is_exit_2(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--gamma", "4", "--omega", "20", "--policy", "nope"])
    assert code == 2 and "unknown policy 'nope'" in err


def test_invalid_config_is_exit_2(capsys):
    # w_s < w is not a valid session
    code, _, _ = run_cli(capsys, ["simulate", "--gamma", "4", "--omega", "20", "--w", "50", "--ws", "40"])
    assert code == 2
    # the noise power is 1, omega is the budget over it: no command takes --n0
    for command in ("ladder", "analytic", "simulate", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--gamma", "4", "--omega", "20", "--n0", "1"])
        assert exc.value.code == 2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "ladder.csv"
    code, out, _ = run_cli(capsys, ["ladder", "--gamma", "1", "--omega", "5", "--out", str(path)])
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[0] == "level,rho,sinr"


def _csv_rows(out):
    header, *rows = (line.split(",") for line in out.strip().splitlines())
    return [dict(zip(header, row)) for row in rows]


def test_sweep_base_k_does_not_limit_swept_k(capsys):
    # the base --k 1 is never a point of a k sweep, so SDO runs as in a mixed list
    common = ["--gamma", "4", "--omega", "20", "--k", "1", "--axis", "k", "--values", "2,3", "--trials", "5000"]
    code, alone, _ = run_cli(capsys, ["sweep", *common, "--policy", "sdo"])
    assert code == 0
    _, mixed, _ = run_cli(capsys, ["sweep", *common, "--policy", "oma,sdo"])
    sdo_rows = [row for row in _csv_rows(mixed) if row["policy"] == "sdo"]
    assert _csv_rows(alone) == sdo_rows and len(sdo_rows) == 2
    assert all(row["error"] == "" for row in sdo_rows)


def test_sweep_point_with_failing_record_is_not_simulated(capsys, monkeypatch):
    simulated = []

    def engine(policies, config, *args, **kwargs):
        simulated.extend((p.variant, config.k) for p in policies)
        return estimate_session_error_curves(policies, config, *args, **kwargs)

    def beta2_sdo_failing_at_65(rho1, rho2, omega, k_users):
        if k_users == 65:
            raise ValueError("beta2_sdo fails at k=65")
        return beta2_sdo(rho1, rho2, omega, k_users)

    monkeypatch.setattr(smddc.cli, "estimate_session_error_curves", engine)
    monkeypatch.setattr(smddc.cli.analytic, "beta2_sdo", beta2_sdo_failing_at_65)
    argv = [
        "sweep", "--gamma", "4", "--omega", "20", "--k", "3", "--policy", "oma,sdo",
        "--axis", "k", "--values", "3,65", "--trials", "2000",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert [(row["policy"], row["k"], row["error"] != "") for row in _csv_rows(out)] == [
        ("oma", "3", False), ("sdo", "3", False), ("oma", "65", False), ("sdo", "65", True),
    ]
    assert sorted(simulated) == [("oma", 3), ("oma", 65), ("sdo", 3)]


def test_analytic_sdo_beyond_64_users(capsys):
    argv = ["analytic", "--gamma", "4", "--omega", "20", "--policy", "sdo", "--k", "65", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    beta2 = json.loads(out)["record"]["beta2"]
    assert math.isfinite(beta2) and beta2 == pytest.approx(beta2_sdo(4.0, 20.0, 20.0, 65))


def test_analytic_sym_depth_one_is_oma(capsys):
    common = ["analytic", "--gamma", "4", "--omega", "20", "--trials", "20000", "--format", "json"]
    _, sym, _ = run_cli(capsys, [*common, "--policy", "sym", "--depth", "1"])
    _, oma, _ = run_cli(capsys, [*common, "--policy", "oma"])
    assert json.loads(sym)["record"] == json.loads(oma)["record"]


@pytest.mark.parametrize("policy", [["--policy", "fo", "--k", "3"], ["--policy", "sym", "--depth", "3", "--k", "3"]])
def test_analytic_estimated_alphas_csv_are_floats(capsys, policy):
    code, out, _ = run_cli(capsys, ["analytic", "--gamma", "4", "--omega", "20", "--trials", "20000", *policy])
    assert code == 0
    (row,) = _csv_rows(out)
    alphas = [float(a) for a in row["alphas"].split(";")]
    assert len(alphas) == 4 and sum(alphas) == pytest.approx(1.0)


@pytest.mark.parametrize("command", ["ladder", "analytic", "simulate", "sweep"])
def test_trials_below_one_is_exit_2(capsys, command):
    argv = [command, "--gamma", "4", "--omega", "20", "--trials", "0"]
    if command == "sweep":
        argv += ["--axis", "w_s", "--values", "55"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and err == "error: trials must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],
        ["analytic", "--policy", "fo", "--k", "3"],
        ["sweep", "--policy", "fo", "--k", "3", "--axis", "w_s", "--values", "55"],
        ["sweep", "--policy", "sdo,fo", "--k", "3", "--axis", "w_s", "--values", "55"],
    ],
    ids=["simulate", "analytic", "sweep-fo", "sweep-sdo-fo"],
)
def test_negative_seed_is_exit_2(capsys, argv):
    # numpy's own "expected non-negative integer" was printed bare, or became the FO row's error
    code, out, err = run_cli(capsys, [*argv, "--gamma", "4", "--omega", "20", "--trials", "100", "--seed", "-1"])
    assert code == 2 and out == "" and err == "error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("policy", [["--policy", "sym", "--depth", "2"], ["--policy", "sdo", "--k", "3"]])
def test_analytic_vanishing_two_packet_probability(capsys, policy):
    # beta2 ~ 1e-23 here: a quadratic root that subtracts raised "math domain error"
    code, out, _ = run_cli(capsys, ["analytic", "--gamma-db", "30", "--omega-db", "43", "--format", "json", *policy])
    assert code == 0
    record = json.loads(out)["record"]
    generic = chernoff_generic(PacketCountDistribution(tuple(record["alphas"])), SessionSpec(50, 55))
    assert record["chernoff_bound"] == pytest.approx(generic.bound, rel=1e-12)


def test_analytic_log10_exact_p_se_below_the_double_range(capsys):
    # SDO at K = 8, W = 5,000: exact_p_se underflows to 0.0, its log10 does not
    argv = ["analytic", "--gamma", "4", "--omega", "20", "--policy", "sdo", "--k", "8", "--w", "5000", "--ws", "5500"]
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    record = json.loads(out)["record"]
    assert record["exact_p_se"] == 0.0 and round(record["log10_exact_p_se"], 4) == -504.2708
    code, out, _ = run_cli(capsys, argv)
    (row,) = _csv_rows(out)
    assert code == 0 and float(row["log10_exact_p_se"]) == record["log10_exact_p_se"]


@pytest.mark.parametrize("policy", [["--policy", "oma"], ["--policy", "sym", "--depth", "2"], ["--policy", "sdo"]])
def test_analytic_log10_exact_p_se_matches_exact_p_se(capsys, policy):
    code, out, _ = run_cli(capsys, ["analytic", "--gamma", "4", "--omega", "20", "--k", "3", "--format", "json", *policy])
    record = json.loads(out)["record"]
    assert code == 0 and 10.0 ** record["log10_exact_p_se"] == pytest.approx(record["exact_p_se"], rel=1e-12)


@pytest.mark.parametrize("flags", [["--omega", "20", "--policy", "fo"], ["--omega", "1e18", "--policy", "sdo"]])
def test_analytic_log10_exact_p_se_null(capsys, flags):
    # an estimated law has no exact value, and a law with Pr(V = 0) = 0 cannot fail (log of 0)
    argv = ["analytic", "--gamma", "4", "--k", "3", "--trials", "20000", "--format", "json", *flags]
    code, out, _ = run_cli(capsys, argv)
    record = json.loads(out, parse_constant=_reject_constant)["record"]
    assert code == 0 and record["log10_exact_p_se"] is None
    assert record["exact_p_se"] == (0.0 if "1e18" in flags else None)


def test_analytic_sym_costs_beyond_the_double_range(capsys):
    # gamma^3 overflows in rho1 * rho2; beta2 was NaN and the law was rejected with exit 2
    argv = ["analytic", "--gamma", "1e200", "--omega", "20", "--policy", "sym", "--depth", "2", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    record = json.loads(out)["record"]
    assert code == 0 and record["beta2"] == 0.0 and record["exact_p_se"] == 1.0


def test_sweep_rows_have_no_log10_column(capsys):
    argv = ["sweep", "--gamma", "4", "--omega", "20", "--axis", "w_s", "--values", "55", "--trials", "100"]
    code, out, _ = run_cli(capsys, argv)
    (row,) = _csv_rows(out)
    assert code == 0 and "exact_p_se" in row and "log10_exact_p_se" not in row


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize(
    "policy",
    [["--policy", "oma"], ["--policy", "sym", "--depth", "2"], ["--policy", "sdo"], ["--policy", "fo"]],
)
def test_analytic_json_is_strict_when_no_slot_fails(capsys, policy):
    # at this budget Pr(V = 0) rounds to 0, so lambda* is infinite and must be written as null
    argv = ["analytic", "--gamma", "4", "--omega", "1e18", "--k", "3", "--trials", "20000", "--format", "json"]
    code, out, _ = run_cli(capsys, [*argv, *policy])
    assert code == 0
    record = json.loads(out, parse_constant=_reject_constant)["record"]
    assert record["chernoff_feasible"] and record["lambda_star"] is None


@pytest.mark.parametrize(
    "flags",
    [
        ["--gamma", "inf", "--omega", "20"],
        ["--gamma", "4", "--omega", "nan"],
        ["--gamma=-inf", "--omega", "20"],
        ["--gamma-db", "nan", "--omega", "20"],
        ["--gamma", "4", "--omega-db", "inf"],
        ["--gamma-db", "4000", "--omega", "20"],
        ["--gamma", "4", "--omega-db", "4000"],
    ],
)
def test_non_finite_input_is_exit_2(capsys, flags):
    code, out, err = run_cli(capsys, ["simulate", *flags, "--trials", "100"])
    assert code == 2 and out == "" and err == "error: gamma and omega must be finite\n"


@pytest.mark.parametrize("values", ["nan,20", "20,inf"])
def test_sweep_non_finite_value_is_exit_2(capsys, values):
    argv = ["sweep", "--gamma", "4", "--omega", "20", "--axis", "omega", "--values", values, "--trials", "100"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and err == f"error: values must be finite, got {values!r}\n"


def test_out_into_missing_directory_is_exit_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    argv = ["simulate", "--gamma", "4", "--omega", "20", "--trials", "100", "--out", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--workers", "0"],
        ["sweep", "--axis", "omega", "--values", "nan,20"],
    ],
    ids=["simulate", "sweep"],
)
def test_failed_command_keeps_out_file(tmp_path, capsys, argv):
    # --out was opened, and so emptied, before the command ran
    path = tmp_path / "x.csv"
    path.write_text("kept\n")
    code, out, err = run_cli(capsys, [*argv, "--gamma", "4", "--omega", "20", "--trials", "100", "--out", str(path)])
    assert code == 2 and out == "" and err.startswith("error: ")
    assert path.read_text() == "kept\n"


RULE_CASES = [
    (policy, k)
    for k in (2, 3, 8)
    for policy in (PolicyKind.oma(), *map(PolicyKind.symmetric, (1, 2, 3)), PolicyKind.sdo(), PolicyKind.fo())
    if policy.depth <= k
]


def _analytic_json(capsys, policy, k):
    argv = ["analytic", "--gamma", "4", "--omega", "20", "--k", str(k), "--trials", "20000", "--format", "json"]
    code, out, _ = run_cli(capsys, [*argv, "--policy", policy.variant, "--depth", str(policy.depth)])
    assert code == 0
    return json.loads(out, parse_constant=_reject_constant)["record"]


@pytest.mark.parametrize("policy,k", RULE_CASES, ids=[f"{p.variant}{p.depth}-k{k}" for p, k in RULE_CASES])
def test_analytic_law_is_exact_iff_the_per_slot_cap_is_at_most_two(capsys, policy, k):
    # one rule for every policy, keyed on the cap: FO at K = 2 is closed form, sym 3 never is
    cap = policy.max_packets(k)
    record = _analytic_json(capsys, policy, k)
    assert len(record["alphas"]) == cap + 1
    assert (record["exact_p_se"] is not None) == (cap <= 2)
    assert (record["beta2"] is not None) == (record["eta"] is not None) == (cap == 2)


def test_fo_at_two_users_prints_sdo(capsys):
    # with one cross gain FO is SDO slot by slot: the same closed-form record, and the same sweep rows
    fo, sdo = (_analytic_json(capsys, policy, 2) for policy in (PolicyKind.fo(), PolicyKind.sdo()))
    assert fo == sdo and fo["exact_p_se"] is not None
    argv = ["sweep", "--gamma", "4", "--omega", "20", "--k", "2", "--policy", "fo,sdo", "--trials", "2000"]
    code, out, _ = run_cli(capsys, [*argv, "--axis", "w_s", "--values", "50,55"])
    fo_rows, sdo_rows = (
        [{**row, "policy": None} for row in _csv_rows(out) if row["policy"] == name] for name in ("fo", "sdo")
    )
    assert code == 0 and len(fo_rows) == 2 and fo_rows == sdo_rows
