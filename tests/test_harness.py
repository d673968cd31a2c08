import math

import numpy as np
import pytest

from qkdsec import harness
from qkdsec.harness import (
    KNOWN_KEYS,
    READS,
    SCENARIOS,
    BadValue,
    MalformedFixture,
    MissingSeed,
    ReportRow,
    UnknownKey,
    UnreadKey,
    load_channel,
    parse_attack,
    parse_config,
    qkd_params,
    reader_values,
    run_scenario,
    write_csv,
)

from helpers import save_channel, seeded_rng


def test_parse_config_minimal():
    cfg = parse_config("seed = 42")
    assert cfg.seed == 42
    assert cfg.params == {}
    values = reader_values(cfg, "qkd run")
    assert values["n_qubits"] == 4  # defaults filled
    assert values["q_tol"] == 0.25


def test_parse_config_full():
    text = """
    # protocol size
    n_qubits = 3
    t = 1
    q_tol = 0.1
    out_len = 1
    h_rows = 1
    seed = 7
    """
    cfg = parse_config(text)
    values = reader_values(cfg, "parallel-qkd")
    assert values["n_qubits"] == 3
    assert values["q_tol"] == 0.1


def test_parse_config_errors():
    with pytest.raises(UnknownKey) as err:
        parse_config("seed = 1\nbogus = 2")
    assert "line 2" in str(err.value)
    with pytest.raises(BadValue) as err:
        parse_config("seed = 1\nseed = 2")
    assert "line 2" in str(err.value)
    with pytest.raises(BadValue):
        parse_config("seed = 1\nq_tol = 1.5")
    with pytest.raises(BadValue) as err:
        parse_config("seed = 1\nn_qubits = four")
    assert str(err.value) == "line 2: n_qubits must be an integer, got 'four'"
    with pytest.raises(BadValue) as err:
        parse_config("seed = 1\nq_tol = half")
    assert str(err.value) == "line 2: q_tol must be a number, got 'half'"
    with pytest.raises(MissingSeed):
        parse_config("n_qubits = 4")
    with pytest.raises(UnknownKey):  # lockdemo reads only --m
        parse_config("seed = 1\nm = 3")
    for line in ("scenario = leaked-key", "scenario = nonsense"):  # only --name picks one
        with pytest.raises(UnknownKey, match="line 2: unknown key 'scenario'"):
            parse_config(f"seed = 1\n{line}")


def test_config_values_win_over_scenario_defaults():
    # t = 2 and out_len = 1 equal qkd run's defaults but not leaked-key's
    cfg = parse_config("seed = 1\nt = 2\nout_len = 1\nsplit = 0")
    values = reader_values(cfg, "leaked-key")
    params = qkd_params("leaked-key", values, cfg.seed)
    assert (params.n_qubits, params.t, params.out_len, len(params.h_matrix)) == (4, 2, 1, 1)
    assert values["split"] == 0
    # a run without a config keeps the scenario defaults
    bare = parse_config("seed = 1")
    values = reader_values(bare, "leaked-key")
    params = qkd_params("leaked-key", values, bare.seed)
    assert (params.n_qubits, params.t, params.out_len, len(params.h_matrix)) == (4, 1, 2, 1)
    assert values["split"] == 1


def test_config_values_win_in_a_scenario_run(monkeypatch):
    # the run itself gets t = 2, out_len = 1 and split = 0, which are not
    # leaked-key's defaults but equal those of other readers
    seen = []
    leaked_key_scenario = harness.scenarios.leaked_key_scenario

    def spy(params, split, attacks):
        seen.append((params.n_qubits, params.t, params.out_len, len(params.h_matrix), split))
        return leaked_key_scenario(params, split, attacks)

    monkeypatch.setattr(harness.scenarios, "leaked_key_scenario", spy)
    rows = run_scenario("leaked-key", parse_config("seed = 1\nt = 2\nout_len = 1\nsplit = 0"))
    bare = run_scenario("leaked-key", parse_config("seed = 1"))
    assert seen == [(4, 2, 1, 1, 0), (4, 1, 2, 1, 1)]
    assert (rows[0].case, bare[0].case) == ("leaked-key-split0", "leaked-key-split1")


def _non_default(key):
    """A config value for ``key`` unlike any reader's default."""
    if key == "q_tol":
        return "0.5"
    if key == "attack":
        return "depolarize:0.3"
    defaults = {reads[key] for reads in READS.values() if key in reads} - {None}
    return str(max(defaults, default=0) + 1)


def test_reader_table_covers_every_known_key():
    read = set().union(*READS.values())
    assert read | {"seed", "out"} == KNOWN_KEYS
    assert set(SCENARIOS) < set(READS)


@pytest.mark.parametrize("reader", sorted(READS))
def test_reader_takes_its_keys_and_refuses_every_other(reader):
    reads = READS[reader]
    text = "seed = 1\nout = x.csv\n" + "".join(f"{key} = {_non_default(key)}\n"
                                               for key in reads)
    cfg = parse_config(text)
    values = reader_values(cfg, reader)
    assert values == cfg.params and set(values) == set(reads)
    assert all(values[key] != reads[key] for key in reads)
    kind = "scenario" if reader in SCENARIOS else "subcommand"
    for key in sorted(KNOWN_KEYS - set(reads) - {"seed", "out"}):
        cfg = parse_config(f"seed = 1\n{key} = {_non_default(key)}")
        with pytest.raises(UnreadKey) as err:
            reader_values(cfg, reader)
        assert str(err.value) == f"{kind} '{reader}' does not read config key '{key}'"


def test_seeded_rng_deterministic_streams():
    a = seeded_rng(0).random(3)
    b = seeded_rng(0).random(3)
    assert np.array_equal(a, b)
    c = seeded_rng(0, stream=1).random(3)
    assert not np.array_equal(a, c)


def test_write_csv_cells(tmp_path, capsys):
    rows = [(np.bool_(True), np.bool_(False), True, 3, -0.0),
            (math.inf, -math.inf, np.float64(0.1), "x", 2 ** 70)]
    path = tmp_path / "cells.csv"
    write_csv(path, ("a", "b", "c", "d", "e"), rows)
    assert path.read_text() == ("a,b,c,d,e\n"
                                "true,false,true,3,-0\n"
                                "inf,-inf,0.1,x,1180591620717411303424\n")
    assert capsys.readouterr().out == ""
    write_csv(None, ("a",), [(1 / 3,)])
    assert capsys.readouterr().out == "a\n0.333333333333\n"


def test_run_scenario_deterministic_csv(tmp_path):
    cfg = parse_config("seed = 3\nrounds = 1")
    rows1 = run_scenario("key-expansion", cfg)
    rows2 = run_scenario("key-expansion", cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ReportRow._fields, rows1)
    write_csv(p2, ReportRow._fields, rows2)
    assert p1.read_bytes() == p2.read_bytes()
    assert all(r.holds for r in rows1)


def test_key_expansion_reads_the_ledger_total_once(monkeypatch):
    # each read of the total is an fsum over every round's entries, so one
    # read per CSV row made the scenario quadratic in the round count
    from qkdsec.acframework import EpsilonLedger

    reads = [0]
    total = EpsilonLedger.total

    def counting_total(self):
        reads[0] += 1
        return total.fget(self)

    monkeypatch.setattr(EpsilonLedger, "total", property(counting_total))
    rows = run_scenario("key-expansion", parse_config("seed = 1\nrounds = 50"))
    assert len(rows) == 4 * 50 + 1
    assert reads[0] <= 2


@pytest.mark.parametrize("scenario,line", [
    ("key-expansion", "split = -1"), ("leaked-key", "msg = -1"), ("leaked-key", "b = 40"),
    ("qkd-otp", "b = 40"), ("parallel-qkd", "rounds = 2"),
    ("qkd-otp", "attack = depolarize:0.3")])
def test_run_scenario_refuses_unread_keys(scenario, line):
    cfg = parse_config(f"seed = 1\n{line}")
    key = line.split(" = ")[0]
    with pytest.raises(UnreadKey, match=f"{scenario}' does not read config key '{key}'"):
        run_scenario(scenario, cfg)


def test_subcommand_keys():
    # every key a subcommand reads passes; any other is named
    qkd = parse_config("seed = 1\nn_qubits = 3\nt = 1\nq_tol = 0.1\nout_len = 1\n"
                       "h_rows = 1\nattack = identity\nout = x.csv")
    reader_values(qkd, "qkd run")
    reader_values(parse_config("seed = 1\ntrials = 3"), "metrics check")
    for subcommand in ("auth sweep", "lockdemo"):
        reader_values(parse_config("seed = 1\nout = x.csv"), subcommand)
        with pytest.raises(UnreadKey, match=f"'{subcommand}' does not read config key 'n_qubits', 't'"):
            reader_values(parse_config("seed = 1\nt = 1\nn_qubits = 3"), subcommand)
    with pytest.raises(UnreadKey, match="'metrics check' does not read config key 'attack'"):
        reader_values(parse_config("seed = 1\nattack = identity"), "metrics check")


def test_parse_attack_specs():
    attack = parse_attack("identity", 4)
    assert attack.is_identity
    attack = parse_attack("intercept-resend:0.5", 4)
    assert len(attack.quantum) == 4
    attack = parse_attack("depolarize:0.25", 3)
    assert len(attack.quantum) == 3
    with pytest.raises(BadValue):
        parse_attack("teleport", 4)


@pytest.mark.parametrize("spec", [
    "intercept-resend:abc", "intercept-resend:", "intercept-resend:1.5",
    "intercept-resend:nan", "depolarize:-0.2", "depolarize:inf", "depolarize:0x1"])
def test_parse_attack_rejects_bad_parameters(spec):
    with pytest.raises(BadValue, match="attack"):
        parse_attack(spec, 4)


def test_channel_fixture_roundtrip(tmp_path):
    from qkdsec.qstate import depolarizing_channel

    chan = depolarizing_channel(0.3, keep_environment=True)
    path = tmp_path / "chan.txt"
    save_channel(path, chan)
    back = load_channel(path)
    assert back.out_dims == (2, 4)
    for a, b in zip(chan.kraus_ops, back.kraus_ops):
        assert np.abs(a - b).max() <= 1e-15
    attack = parse_attack(f"custom:{path}", 2)
    assert len(attack.quantum) == 2


@pytest.mark.parametrize("text, line", [
    ("env 1 kraus 1\n1,0 0,0\n0,0 x,0\n", 3),                       # non-numeric
    ("env 1 kraus 2\n1,0 0,0\n0,0 1,0\n0,0 0,0\n0,0 0\n", 5),      # no comma
    ("env 1 kraus 1\n1,0\n0,0 1,0\n", 2),                           # short row
    ("env 1 kraus 2\n1,0 0,0\n0,0 1,0\n", 4),                       # missing rows
    ("env 1 kraus 1\n1,0 0,0,1\n0,0 1,0\n", 2),                      # three parts
], ids=["non-numeric", "no-comma", "short-row", "missing-row", "three-parts"])
def test_load_channel_names_malformed_line(tmp_path, text, line):
    path = tmp_path / "bad.chan"
    path.write_text(text)
    with pytest.raises(MalformedFixture, match=f"bad.chan, line {line}:"):
        load_channel(path)


def test_load_channel_header_errors(tmp_path):
    path = tmp_path / "bad.chan"
    for text in ("env one kraus 1\n", "env 1 kraus\n", "kraus 1 env 1\n",
                 "env 0 kraus 1\n", "env 1 kraus 0\n"):
        path.write_text(text)
        with pytest.raises(BadValue, match="line 1:"):
            load_channel(path)
