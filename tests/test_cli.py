import math

import pytest

from qkdsec.cli import main

# output of every CSV-writing subcommand, pinned byte for byte; the values
# are dyadic or print the same at 12 digits on any IEEE-754 platform
AUTH_B3 = ("b,case,measured,bound,holds\n"
           "3,asu2-pair-probability,0.015625,0.015625,true\n"
           "3,asu2-tag-uniformity,0,0,true\n"
           "3,substitution-advantage,0.125,0.125,true\n")
QKD_IR = ("n,attack,p_abort,eps_cor,eps_sec,advantage,thm1_holds\n"
          "4,intercept-resend:p=0.5,0.234375,0.095703125,0.16748046875,"
          "0.2392578125,true\n")
KEY_EXPANSION = ("scenario,case,measured,bound,holds\n"
                 "key-expansion,round1:p=0.0,0,0.5,true\n"
                 "key-expansion,round1:p=1.0,0.375,0.5,true\n"
                 "key-expansion,round1:p=0.0+msg2,0,0.5,true\n"
                 "key-expansion,round1:p=1.0+msg1,0.19140625,0.5,true\n"
                 "key-expansion,ledger-total,0.5,0.5,true\n")
PARALLEL_QKD = ("scenario,case,measured,bound,holds\n"
                "parallel-qkd,identity||identity,0,0.75,true\n"
                "parallel-qkd,identity||intercept-resend:p=1,0.375,0.75,true\n"
                "parallel-qkd,identity||steal-replace,0.25,0.75,true\n"
                "parallel-qkd,intercept-resend:p=1||identity,0.375,0.75,true\n"
                "parallel-qkd,intercept-resend:p=1||intercept-resend:p=1,0.5390625,0.75,true\n"
                "parallel-qkd,steal-replace||identity,0.25,0.75,true\n"
                "parallel-qkd,swap-crossing,0.435763888889,0.75,true\n")
LOCKDEMO_CSV = ("scenario,case,measured,bound,holds\n"
                "lockdemo,post-reveal-bits,2,2,true\n"
                "lockdemo,pre-reveal-k2-bits,0.451205059305,2,true\n"
                "lockdemo,pre-reveal-key-bits,1,2,true\n"
                "lockdemo,locking-gap,1.5487949407,2,true\n")

GOLDEN = {
    "auth": (["auth", "sweep", "--b", "3"], AUTH_B3),
    "qkd": (["qkd", "run", "--attack", "intercept-resend:0.5", "--seed", "9"], QKD_IR),
    "compose": (["compose", "scenario", "--name", "key-expansion", "--seed", "6"],
                KEY_EXPANSION),
    "compose-parallel": (["compose", "scenario", "--name", "parallel-qkd", "--seed", "6"],
                         PARALLEL_QKD),
    "lockdemo": (["lockdemo", "--m", "2"], LOCKDEMO_CSV),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(tmp_path, capsys, command):
    # --out and stdout get the same bytes
    argv, csv_text = GOLDEN[command]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == csv_text.encode()
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == csv_text


def test_qkd_run_csv(tmp_path):
    out = tmp_path / "qkd.csv"
    rc = main(["qkd", "run", "--attack", "intercept-resend:0.5",
               "--seed", "9", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,attack,p_abort,eps_cor,eps_sec,advantage,thm1_holds"
    fields = lines[1].split(",")
    assert fields[0] == "4"
    assert fields[1] == "intercept-resend:p=0.5"
    assert fields[6] == "true"


def test_qkd_run_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["qkd", "run", "--attack", "depolarize:0.3", "--seed", "4",
                 "--out", str(a)]) == 0
    assert main(["qkd", "run", "--attack", "depolarize:0.3", "--seed", "4",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("field,value", [("eps_cor", 0.2), ("eps_sec", 0.3)])
def test_qkd_run_exits_2_on_a_converse_bound(tmp_path, monkeypatch, field, value):
    # eps_cor <= D and eps_sec <= 2 D; the CSV is written either way
    from dataclasses import replace

    from qkdsec.protocols import bb84

    qkd_run = bb84.qkd_run

    def broken(params, attack):
        return replace(qkd_run(params, attack), **{"advantage": 0.125, "eps_cor": 0.0,
                                                   "eps_sec": 0.0, field: value})

    monkeypatch.setattr(bb84, "qkd_run", broken)
    out = tmp_path / "qkd.csv"
    assert main(["qkd", "run", "--attack", "intercept-resend:0.5", "--seed", "9",
                 "--out", str(out)]) == 2
    assert out.read_text().splitlines()[1].endswith(",true")


def test_auth_sweep(tmp_path):
    out = tmp_path / "auth.csv"
    rc = main(["auth", "sweep", "--b", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "b,case,measured,bound,holds"
    assert all(line.endswith("true") for line in lines[1:])


def test_auth_sweep_at_the_largest_field(tmp_path):
    out = tmp_path / "auth.csv"
    assert main(["auth", "sweep", "--b", "8", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [
        "asu2-pair-probability", "asu2-tag-uniformity", "substitution-advantage"]
    assert all(row.endswith(",true") for row in rows)


def test_metrics_check(tmp_path):
    out = tmp_path / "metrics.csv"
    rc = main(["metrics", "check", "--seed", "2", "--trials", "5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "property_name,trials,max_violation,pass"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "tv-alternative-formula", "metric-identity", "metric-symmetry",
        "metric-triangle", "data-processing", "product-invariance",
        "helstrom-equality", "helstrom-optimality-audit", "coupling-equality",
        "coupling-marginals", "coupling-alternative-audit", "pguess-bound",
        "alicki-fannes", "pinsker-type", "relative-entropy-quadratic",
        "alternative-secrecy-factor2"]
    assert all(line.split(",")[1:4:2] == ["5", "true"] for line in lines[1:])


def test_metrics_check_config_trials_match_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 2\ntrials = 5\n")
    from_config, from_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    assert main(["metrics", "check", "--config", str(cfg), "--out", str(from_config)]) == 0
    assert main(["metrics", "check", "--seed", "2", "--trials", "5",
                 "--out", str(from_flag)]) == 0
    assert from_config.read_bytes() == from_flag.read_bytes()


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_metrics_check_rejects_nonpositive_trials(tmp_path, capsys, trials):
    out = tmp_path / "metrics.csv"
    assert main(["metrics", "check", "--seed", "2", "--trials", trials,
                 "--out", str(out)]) == 1
    assert "trials" in capsys.readouterr().err
    assert not out.exists()


def test_compose_scenario(tmp_path):
    out = tmp_path / "compose.csv"
    rc = main(["compose", "scenario", "--name", "key-expansion",
               "--seed", "6", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,case,measured,bound,holds"
    assert all(line.endswith("true") for line in lines[1:])


def test_compose_metrics_suite_is_not_a_scenario(tmp_path):
    # the property suite runs as `metrics check` only
    out = tmp_path / "compose.csv"
    assert main(["compose", "scenario", "--name", "metrics-suite", "--seed", "1",
                 "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("rounds", ["-1", "-3"])
def test_compose_negative_rounds_exits_1(tmp_path, capsys, rounds):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 6\nrounds = {rounds}\n")
    out = tmp_path / "compose.csv"
    assert main(["compose", "scenario", "--name", "key-expansion",
                 "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: rounds = {rounds} must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("name,line", [("key-expansion", "split = -1"),
                                       ("leaked-key", "msg = -1"), ("leaked-key", "b = 40")])
def test_compose_unread_key_exits_1(tmp_path, capsys, name, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 6\n{line}\n")
    out = tmp_path / "compose.csv"
    assert main(["compose", "scenario", "--name", name,
                 "--config", str(cfg), "--out", str(out)]) == 1
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == \
        f"error: scenario '{name}' does not read config key '{key}'\n"
    assert not out.exists()


@pytest.mark.parametrize("line,least", [("h_rows = -1", 0), ("out_len = -1", 1)])
def test_qkd_run_negative_code_size_exits_1(tmp_path, capsys, line, least):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    assert main(["qkd", "run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {line} must be >= {least}\n"


def test_lockdemo(tmp_path, capsys):
    rc = main(["lockdemo", "--m", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scenario,case,measured,bound,holds"
    assert lines[1] == "lockdemo,post-reveal-bits,2,2,true"


def test_config_file_drives_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 12\nn_qubits = 3\nt = 1\nq_tol = 0\nout_len = 1\nh_rows = 1\n")
    out = tmp_path / "out.csv"
    rc = main(["qkd", "run", "--config", str(cfg), "--attack", "identity",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1].startswith("3,identity,0,0,0,0,true")


def test_config_out_writes_file(tmp_path, capsys):
    target = tmp_path / "from-config.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 9\nattack = intercept-resend:0.5\nout = {target}\n")
    assert main(["qkd", "run", "--config", str(cfg)]) == 0
    assert target.read_bytes() == QKD_IR.encode()
    assert capsys.readouterr().out == ""


def test_out_flag_overrides_config_out(tmp_path, capsys):
    target = tmp_path / "from-config.csv"
    flag = tmp_path / "from-flag.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 9\nout = {target}\n")
    assert main(["auth", "sweep", "--b", "3", "--config", str(cfg),
                 "--out", str(flag)]) == 0
    assert flag.read_bytes() == AUTH_B3.encode()
    assert not target.exists()
    assert capsys.readouterr().out == ""


def test_usage_and_config_errors(tmp_path):
    assert main(["qkd"]) == 1              # missing action
    assert main(["nonsense"]) == 1         # unknown subcommand
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert main(["qkd", "run", "--config", str(bad), "--seed", "1"]) == 1
    assert main(["qkd", "run", "--attack", "teleport", "--seed", "1"]) == 1
    assert main(["compose", "scenario", "--name", "parallel-qkd",
                 "--config", str(bad), "--seed", "1"]) == 1


def test_malformed_custom_channel_exits_1(tmp_path, capsys):
    chan = tmp_path / "bad.chan"
    chan.write_text("env 1 kraus 1\n1,0 0,0\n0,0 x,0\n")
    assert main(["qkd", "run", "--attack", f"custom:{chan}", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert f"{chan}, line 3:" in err and "Traceback" not in err


def test_empty_attack_flag_exits_1(capsys):
    # an empty --attack is an attack spec, not an absent flag
    assert main(["qkd", "run", "--attack", "", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: unknown attack spec ''\n"


@pytest.mark.parametrize("flag", ["--config", "--attack"])
def test_directory_as_input_file_exits_1(tmp_path, capsys, flag):
    value = str(tmp_path) if flag == "--config" else f"custom:{tmp_path}"
    assert main(["qkd", "run", flag, value, "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_violated_bound_exits_2(tmp_path, monkeypatch):
    import qkdsec.cli as cli

    def broken_suite(seed, trials=None):
        from qkdsec.metrics import PropertyResult
        return [PropertyResult("made-up", 1, 1.0, False)]

    monkeypatch.setattr(cli, "property_suite", broken_suite)
    rc = main(["metrics", "check", "--seed", "1", "--out",
               str(tmp_path / "x.csv")])
    assert rc == 2


def test_nan_violation_fails_its_row(tmp_path, monkeypatch):
    # a NaN violation is not read as a pass, whichever trial gives it
    import qkdsec.metrics as mt
    draws = iter([(0.0,), (math.nan,), (0.0,)])
    monkeypatch.setattr(mt, "_PROPERTIES",
                        ((3, lambda rng: next(draws), (("made-up", 1e-9),)),))
    out = tmp_path / "x.csv"
    assert main(["metrics", "check", "--seed", "1", "--out", str(out)]) == 2
    assert out.read_text().splitlines()[1] == "made-up,3,nan,false"


@pytest.mark.parametrize("subcommand,argv,line", [
    ("qkd run", ["qkd", "run"], "split = -1"),
    ("qkd run", ["qkd", "run"], "b = 40"),
    ("qkd run", ["qkd", "run"], "rounds = 2"),
    ("auth sweep", ["auth", "sweep", "--b", "3"], "b = 40"),
    ("auth sweep", ["auth", "sweep", "--b", "3"], "n_qubits = 99"),
    ("metrics check", ["metrics", "check"], "n_qubits = 3"),
    ("lockdemo", ["lockdemo", "--m", "2"], "trials = 5"),
])
def test_subcommand_unread_key_exits_1(tmp_path, capsys, subcommand, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == \
        f"error: subcommand '{subcommand}' does not read config key '{key}'\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["compose", "scenario", "--name", "qkd-otp"], ["qkd", "run"],
    ["auth", "sweep", "--b", "3"], ["metrics", "check"], ["lockdemo", "--m", "2"],
], ids=["compose scenario", "qkd run", "auth sweep", "metrics check", "lockdemo"])
def test_config_scenario_key_exits_1(tmp_path, capsys, argv):
    # --name alone picks the scenario; a config naming one is refused
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nscenario = leaked-key\n")
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: line 2: unknown key 'scenario'\n"
    assert not out.exists()
