import time

import numpy as np
import pytest

from qkdsec import harness
from qkdsec.harness import (
    BadValue,
    MissingSeed,
    ReportRow,
    UnknownKey,
    emit_csv,
    load_channel,
    parse_attack,
    parse_config,
    run_scenario,
    save_channel,
    seeded_rng,
)


def test_parse_config_minimal():
    cfg = parse_config("seed = 42")
    assert cfg.seed == 42
    assert cfg.param("n_qubits") == 4  # defaults filled
    assert cfg.param("q_tol") == 0.25


def test_parse_config_full():
    text = """
    # protocol size
    scenario = parallel-qkd
    n_qubits = 3
    t = 1
    q_tol = 0.1
    out_len = 1
    h_rows = 1
    seed = 7
    """
    cfg = parse_config(text)
    assert cfg.scenario == "parallel-qkd"
    assert cfg.param("n_qubits") == 3
    assert cfg.param("q_tol") == 0.1


def test_parse_config_errors():
    with pytest.raises(UnknownKey) as err:
        parse_config("seed = 1\nbogus = 2")
    assert "line 2" in str(err.value)
    with pytest.raises(BadValue) as err:
        parse_config("seed = 1\nseed = 2")
    assert "line 2" in str(err.value)
    with pytest.raises(BadValue):
        parse_config("seed = 1\nq_tol = 1.5")
    with pytest.raises(BadValue):
        parse_config("seed = 1\nn_qubits = four")
    with pytest.raises(MissingSeed):
        parse_config("n_qubits = 4")
    with pytest.raises(BadValue):
        parse_config("seed = 1\nscenario = nonsense")


def test_config_values_win_over_scenario_defaults():
    # t = 2 and out_len = 1 equal the global defaults but not leaked-key's
    cfg = parse_config("seed = 1\nscenario = leaked-key\nt = 2\nout_len = 1\nsplit = 0")
    params = harness._qkd_params(cfg)
    assert (params.n_qubits, params.t, params.out_len, len(params.h_matrix)) == (4, 2, 1, 1)
    assert harness._scenario_param(cfg, "split") == 0
    # a run without a config keeps the scenario defaults
    bare = parse_config("seed = 1\nscenario = leaked-key")
    params = harness._qkd_params(bare)
    assert (params.n_qubits, params.t, params.out_len, len(params.h_matrix)) == (4, 1, 2, 1)
    assert harness._scenario_param(bare, "split") == 1


def test_seeded_rng_deterministic_streams():
    a = seeded_rng(0).random(3)
    b = seeded_rng(0).random(3)
    assert np.array_equal(a, b)
    c = seeded_rng(0, stream=1).random(3)
    assert not np.array_equal(a, c)


def test_emit_csv_format(tmp_path):
    rows = [ReportRow("s", "case-a", 0.123456789012345, 1.0, True, 12.5),
            ReportRow("s", "case-b", float("inf"), 0.5, False, 3.25)]
    path = tmp_path / "report.csv"
    emit_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scenario,case,measured,bound,holds,runtime_ms"
    assert lines[1] == "s,case-a,0.123456789012,1,true,0"
    assert lines[2] == "s,case-b,inf,0.5,false,0"
    # header-only file for no rows
    emit_csv([], path)
    assert path.read_text() == "scenario,case,measured,bound,holds,runtime_ms\n"


def test_run_scenario_deterministic_csv(tmp_path):
    cfg = parse_config("seed = 3\nscenario = key-expansion\nrounds = 1")
    rows1 = run_scenario(cfg)
    rows2 = run_scenario(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows1, p1)
    emit_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert all(r.holds for r in rows1)


def test_run_scenario_metrics_suite():
    cfg = parse_config("seed = 5\nscenario = metrics-suite\ntrials = 5")
    rows = run_scenario(cfg)
    assert len(rows) >= 10
    assert all(r.holds for r in rows)
    names = {r.case for r in rows}
    assert "pguess-bound" in names and "alicki-fannes" in names


def test_parse_attack_specs():
    attack = parse_attack("identity", 4)
    assert attack.is_identity
    attack = parse_attack("intercept-resend:0.5", 4)
    assert len(attack.quantum) == 4
    attack = parse_attack("depolarize:0.25", 3)
    assert len(attack.quantum) == 3
    with pytest.raises(BadValue):
        parse_attack("teleport", 4)


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


def test_run_scenario_runtime_is_per_case():
    cfg = parse_config("seed = 3\nscenario = key-expansion\nrounds = 2")
    started = time.perf_counter()
    rows = run_scenario(cfg)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert len(rows) == 9
    assert all(r.runtime_ms >= 0.0 for r in rows)
    # cumulative times would add up to several times the whole run
    assert sum(r.runtime_ms for r in rows) <= elapsed_ms
    # the rounds' distances are computed before the first row, so the
    # first row carries almost all of the run
    assert rows[0].runtime_ms >= 0.5 * sum(r.runtime_ms for r in rows)
