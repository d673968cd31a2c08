import numpy as np
import pytest

from bb84_oracle import oracle_quantities
from qkdsec.acframework import ScheduleMismatch
from qkdsec.protocols import bb84


@pytest.fixture(scope="module")
def params_n2():
    return bb84.default_params(n_qubits=2, t=1, q_tol=0.25, out_len=1, h_rows=0)


def test_params_validation():
    with pytest.raises(bb84.InvalidParams):
        bb84.default_params(n_qubits=4, t=4)
    with pytest.raises(bb84.InvalidParams):
        bb84.default_params(n_qubits=4, t=2, q_tol=1.5)
    with pytest.raises(bb84.InvalidParams):
        bb84.QkdParams(4, 2, 0.25, ((1, 1),), ((1, 1),))  # dependent rows
    good = bb84.default_params()
    assert good.width == 2 and good.key_size == 2


def test_identity_attack_noiseless_exactness():
    params = bb84.default_params(n_qubits=4, t=2, q_tol=0.25)
    run = bb84.qkd_run(params, bb84.identity_attack())
    assert run.p_abort == 0.0
    assert run.eps_cor == 0.0
    assert run.eps_sec == 0.0
    assert run.advantage == 0.0
    assert run.error_rate == 0.0


def test_intercept_resend_error_rate():
    params = bb84.default_params(n_qubits=4, t=2, q_tol=0.25)
    run = bb84.qkd_run(params, bb84.intercept_resend(4, 1.0))
    assert abs(run.error_rate - 0.25) <= 1e-12
    half = bb84.qkd_run(params, bb84.intercept_resend(4, 0.5))
    assert abs(half.error_rate - 0.125) <= 1e-12


def test_qtol_zero_aborts_on_any_noise():
    params = bb84.default_params(n_qubits=4, t=2, q_tol=0.0)
    run = bb84.qkd_run(params, bb84.intercept_resend(4, 1.0))
    assert run.p_abort > 0.3
    joint = run.key_joint
    assert ("abort", "abort") in joint
    # both-abort structure: no asymmetric abort keys in the joint
    for (ka, kb) in joint:
        assert (ka == "abort") == (kb == "abort")


ORACLE_CASES = [
    ("identity", lambda n: bb84.identity_attack()),
    ("ir-1", lambda n: bb84.intercept_resend(n, 1.0)),
    ("ir-0.5", lambda n: bb84.intercept_resend(n, 0.5)),
    ("dep-0.3", lambda n: bb84.depolarize_attack(n, 0.3)),
    ("dep-1", lambda n: bb84.depolarize_attack(n, 1.0)),
    ("steal", lambda n: bb84.steal_replace_attack(n)),
]


@pytest.mark.parametrize("name,build", ORACLE_CASES)
def test_engine_matches_brute_oracle_n2(params_n2, name, build):
    attack = build(2)
    p_abort, eps_cor, eps_sec, advantage, _ = oracle_quantities(params_n2, attack)
    run = bb84.qkd_run(params_n2, attack)
    assert abs(p_abort - run.p_abort) <= 1e-12
    assert abs(eps_cor - run.eps_cor) <= 1e-12
    assert abs(eps_sec - run.eps_sec) <= 1e-9
    assert abs(advantage - run.advantage) <= 1e-9


@pytest.mark.parametrize("name,build", [ORACLE_CASES[2], ORACLE_CASES[3]])
def test_engine_matches_brute_oracle_n3_with_syndrome(name, build):
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1, h_rows=1)
    attack = build(3)
    p_abort, eps_cor, eps_sec, advantage, _ = oracle_quantities(params, attack)
    run = bb84.qkd_run(params, attack)
    assert abs(p_abort - run.p_abort) <= 1e-12
    assert abs(eps_cor - run.eps_cor) <= 1e-12
    assert abs(eps_sec - run.eps_sec) <= 1e-9
    assert abs(advantage - run.advantage) <= 1e-9


def test_eq12_both_factorizations(params_n2):
    # oracle computes D(rho_ABE, ideal) on the full states including the
    # abort branch; the engine reports (1 - p_abort) * D(conditioned states)
    attack = bb84.intercept_resend(2, 0.5)
    *_, advantage, _ = oracle_quantities(params_n2, attack)
    run = bb84.qkd_run(params_n2, attack)
    assert abs(run.eq12_rhs - advantage) <= 1e-9
    assert abs(run.eq12_rhs - run.advantage) <= 1e-9


def test_decomposition_sandwich_over_grid():
    params = bb84.default_params(n_qubits=4, t=2, q_tol=0.25)
    attacks = [bb84.identity_attack()]
    attacks += [bb84.intercept_resend(4, p) for p in (0.25, 0.75, 1.0)]
    attacks += [bb84.depolarize_attack(4, q) for q in (0.2, 0.6, 1.0)]
    for attack in attacks:
        run = bb84.qkd_run(params, attack)
        assert run.advantage <= run.eps_cor + run.eps_sec + 1e-9
        assert run.eps_cor <= run.advantage + 1e-9
        assert run.eps_sec <= 2.0 * run.advantage + 1e-9


def test_security_eval_reports():
    params = bb84.default_params(n_qubits=4, t=2, q_tol=0.25)
    family = [bb84.identity_attack(), bb84.intercept_resend(4, 0.5),
              bb84.depolarize_attack(4, 0.3)]
    ev = bb84.qkd_security_eval(params, family)
    assert ev.holds
    assert ev.eps_cor == max(r.eps_cor for r in ev.runs)
    assert ev.eps_sec == max(r.eps_sec for r in ev.runs)


def test_robustness_matched_delta():
    params = bb84.default_params(n_qubits=4, t=2, q_tol=0.25)
    rob0 = bb84.qkd_robustness_eval(params, 0.0)
    assert rob0.delta == 0.0 and rob0.filtered_distance == 0.0
    for q in (0.1, 0.3, 1.0):
        rob = bb84.qkd_robustness_eval(params, q)
        run = bb84.qkd_run(params, bb84.depolarize_attack(4, q))
        assert rob.delta == pytest.approx(run.p_abort, abs=1e-12)
        assert rob.filtered_distance <= rob.condition_ii_advantage + 1e-9
        assert rob.report.holds


def test_leaked_and_otp_variants_match_plain():
    params = bb84.default_params(n_qubits=4, t=1, q_tol=0.25, out_len=2, h_rows=1)
    for attack in (bb84.intercept_resend(4, 1.0), bb84.depolarize_attack(4, 0.4)):
        run = bb84.qkd_run(params, attack, keep_engine=True)
        for split in (0, 1, 2):
            assert abs(bb84.leaked_advantage(run, split) - run.advantage) <= 1e-9
        for msg in (0, 3):
            assert abs(bb84.otp_composed_advantage(run, msg) - run.advantage) <= 1e-9
    with pytest.raises(bb84.InvalidParams):
        bb84.leaked_advantage(bb84.qkd_run(params, bb84.identity_attack(),
                                           keep_engine=True), 3)


def test_attack_input_validation():
    with pytest.raises(bb84.InvalidParams):
        bb84.intercept_resend(4, 1.5)
    params = bb84.default_params(n_qubits=4, t=2)
    with pytest.raises(ScheduleMismatch):
        bb84.qkd_run(params, bb84.intercept_resend(3, 0.5))
    from qkdsec.qstate import DimensionCap, make_channel

    big_env = np.zeros((10, 2), dtype=complex)
    big_env[0, 0] = 1.0
    big_env[5, 1] = 1.0
    with pytest.raises(DimensionCap):
        bb84.custom_attack(4, make_channel([big_env], out_dims=(2, 5)))


def test_custom_attack_runs():
    from qkdsec.qstate import depolarizing_channel

    chan = depolarizing_channel(0.5, keep_environment=True)
    params = bb84.default_params(n_qubits=2, t=1, h_rows=0)
    custom = bb84.custom_attack(2, chan, name="custom-dep")
    direct = bb84.depolarize_attack(2, 0.5)
    run_c = bb84.qkd_run(params, custom)
    run_d = bb84.qkd_run(params, direct)
    assert abs(run_c.advantage - run_d.advantage) <= 1e-12
    assert abs(run_c.p_abort - run_d.p_abort) <= 1e-12


def test_engine_matches_oracle_two_bit_key():
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=2, h_rows=0)
    for attack in (bb84.intercept_resend(3, 0.5), bb84.depolarize_attack(3, 0.3)):
        p_abort, eps_cor, eps_sec, advantage, _ = oracle_quantities(params, attack)
        run = bb84.qkd_run(params, attack)
        assert abs(p_abort - run.p_abort) <= 1e-12
        assert abs(eps_cor - run.eps_cor) <= 1e-12
        assert abs(eps_sec - run.eps_sec) <= 1e-9
        assert abs(advantage - run.advantage) <= 1e-9


def test_abort_threshold_ties_pass():
    # abort only when the sample error rate strictly exceeds q_tol
    exact = bb84.default_params(n_qubits=4, t=2, q_tol=0.5)
    below = bb84.default_params(n_qubits=4, t=2, q_tol=0.49)
    attack = bb84.intercept_resend(4, 1.0)
    run_exact = bb84.qkd_run(exact, attack)
    run_below = bb84.qkd_run(below, attack)
    # rate 0.5 samples survive at q_tol = 0.5 but abort at 0.49
    assert run_exact.p_abort < run_below.p_abort


def test_engine_matches_oracle_position_dependent_attack(params_n2):
    # different channel on each position: intercept one, depolarise the other
    from qkdsec.acframework import AttackStrategy

    ir = bb84.intercept_resend(1, 1.0).quantum[0]
    dep = bb84.depolarize_attack(1, 0.4).quantum[0]
    attack = AttackStrategy(name="mixed-positions", quantum=(ir, dep))
    p_abort, eps_cor, eps_sec, advantage, _ = oracle_quantities(params_n2, attack)
    run = bb84.qkd_run(params_n2, attack)
    assert abs(p_abort - run.p_abort) <= 1e-12
    assert abs(eps_cor - run.eps_cor) <= 1e-12
    assert abs(eps_sec - run.eps_sec) <= 1e-9
    assert abs(advantage - run.advantage) <= 1e-9


def test_security_eval_accepts_family():
    from qkdsec.acframework import AttackFamily

    params = bb84.default_params(n_qubits=4, t=2, q_tol=0.25)
    fam = AttackFamily(
        name="ir-grid",
        strategies=(bb84.identity_attack(),),
        parameter_names=("p",),
        builder=lambda p: bb84.intercept_resend(4, p),
        bounds=((0.0, 1.0),),
        grid_points=5,
    )
    ev = bb84.qkd_security_eval(params, fam)
    assert len(ev.runs) == 6  # identity plus the five grid points
    assert ev.holds
    assert ev.eps_sec > 0.0


def _random_complex(rng, dim, cols):
    return rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("route", ["scalar", "ops", "gram"])
def test_trace_norms_match_per_row_eigvalsh(monkeypatch, route, chunked):
    if chunked:
        # one row per batch on both spectral routes
        monkeypatch.setattr(bb84, "_BATCH_ENTRIES", 9)
    rng = np.random.default_rng(5)
    n_members, dim = 16, 3
    coeff = rng.normal(size=(7, n_members))
    coeff[2] = 0.0
    w = rng.uniform(size=n_members)
    if route == "gram":
        # columns V with Gram matrix V^dagger V; member m owns columns 2m, 2m+1
        member_of_col = np.repeat(np.arange(n_members), 2)
        v = _random_complex(rng, dim, member_of_col.size)
        block = bb84._RestBlock(w, gram=v.conj().T @ v, member_of_col=member_of_col)
        ops = np.stack([v[:, member_of_col == m] @ v[:, member_of_col == m].conj().T
                        for m in range(n_members)])
    else:
        d = 1 if route == "scalar" else dim
        x = _random_complex(rng, n_members * d, d).reshape(n_members, d, d)
        ops = x @ x.conj().swapaxes(1, 2)
        block = bb84._RestBlock(w, ops=ops)
    want = [float(np.abs(np.linalg.eigvalsh(np.tensordot(row, ops, axes=(0, 0)))).sum())
            for row in coeff]
    got = block.trace_norms(coeff)
    assert got.shape == (len(coeff),)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)
    assert got[2] == 0.0


def test_rest_memo_with_position_dependent_attack():
    # every sample subset leaves a different (ir, dep) pattern on the rest
    from qkdsec.acframework import AttackStrategy

    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1, h_rows=1)
    ir = bb84.intercept_resend(1, 1.0).quantum[0]
    dep = bb84.depolarize_attack(1, 0.3).quantum[0]
    attack = AttackStrategy(name="ir-dep-ir", quantum=(ir, dep, ir))
    p_abort, eps_cor, eps_sec, advantage, _ = oracle_quantities(params, attack)
    run = bb84.qkd_run(params, attack, keep_engine=True)
    assert abs(p_abort - run.p_abort) <= 1e-12
    assert abs(eps_cor - run.eps_cor) <= 1e-12
    assert abs(eps_sec - run.eps_sec) <= 1e-9
    assert abs(advantage - run.advantage) <= 1e-9
    assert len(run.engine()._rest_sums) == 3
    uniform = bb84.qkd_run(params, bb84.intercept_resend(3, 1.0), keep_engine=True)
    assert len(uniform.engine()._rest_sums) == 1


def test_leaked_and_otp_variants_match_plain_n6():
    params = bb84.default_params(n_qubits=6, t=2, q_tol=0.25, out_len=2, h_rows=1)
    for attack in (bb84.steal_replace_attack(6), bb84.intercept_resend(6, 1.0)):
        run = bb84.qkd_run(params, attack, keep_engine=True)
        for split in (0, 1, 2):
            assert abs(bb84.leaked_advantage(run, split) - run.advantage) <= 1e-9
        for msg in (0, 1, 3):
            assert abs(bb84.otp_composed_advantage(run, msg) - run.advantage) <= 1e-9
