import time
import tracemalloc
from itertools import islice, product

import numpy as np
import pytest

from bb84_oracle import dense_rest_block, oracle_quantities
from classical_oracle import STEAL_REPLACE_LABELS, classical_quantities, intercept_resend_labels
from qkdsec.acframework import ScheduleMismatch
from qkdsec.protocols import bb84
from qkdsec.qstate import make_channel
from qkdsec.tolerances import SECTOR_CUTOFF, SECTOR_MERGE_TOL


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


@pytest.mark.parametrize("key,value", [("h_rows", -1), ("out_len", 0), ("out_len", -1)])
def test_default_params_rejects_bad_code_sizes(monkeypatch, key, value):
    monkeypatch.setattr(bb84, "default_code_matrices", None)  # H and T are never drawn
    with pytest.raises(bb84.InvalidParams, match=f"{key} = {value}"):
        bb84.default_params(n_qubits=6, t=2, **{key: value})


@pytest.mark.parametrize("n_qubits", [11, 5_000_000, 3_000_000_000])
def test_default_params_refuses_oversized_n_before_drawing(monkeypatch, n_qubits):
    monkeypatch.setattr(bb84, "default_code_matrices", None)  # H and T are never drawn
    with pytest.raises(bb84.InvalidParams, match=f"n_qubits {n_qubits} outside"):
        bb84.default_params(n_qubits=n_qubits, t=2)


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
    assert abs(advantage - run.advantage) <= 1e-9


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
        run = bb84.qkd_run(params, attack)
        for split in (0, 1, 2):
            assert abs(bb84.leaked_advantage(run, split) - run.advantage) <= 1e-9
        for msg in (0, 3):
            assert abs(bb84.otp_composed_advantage(run, msg) - run.advantage) <= 1e-9
    with pytest.raises(bb84.InvalidParams):
        bb84.leaked_advantage(bb84.qkd_run(params, bb84.identity_attack()), 3)


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


def test_steal_replace_at_width_six():
    # the all-X block holds 4^6 members on one 64-dimensional sector; as a
    # Gram matrix it had 8^6 columns and was refused
    params = bb84.default_params(n_qubits=10, t=4, h_rows=2, seed=1)
    run = bb84.qkd_run(params, bb84.steal_replace_attack(10))
    got = (run.p_abort, run.eps_cor, run.eps_sec, run.advantage)
    want = (0.6875, 0.15625, 0.15624999999999997, 0.15624999999999997)
    assert np.allclose(got, want, rtol=0.0, atol=1e-15), got


def test_wide_dense_sector_is_refused_before_allocation():
    # a generic isometry into a four-dimensional environment leaves one
    # four-dimensional sector per basis, so at width 6 one row of a block
    # contracts to 4^6 x 4^6 entries
    from qkdsec.qstate import DimensionCap

    v = np.linalg.qr(_random_complex(np.random.default_rng(7), 8, 2))[0]
    attack = bb84.custom_attack(10, make_channel([v], out_dims=(2, 4)))
    params = bb84.default_params(n_qubits=10, t=4, h_rows=2, seed=1)
    started = time.perf_counter()
    with pytest.raises(DimensionCap, match="16777216 entries per row"):
        bb84.qkd_run(params, attack)
    assert time.perf_counter() - started < 2.0


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


def _random_complex(rng, dim, cols):
    return rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))


def _random_classes(rng, sector_dims, sector_cells):
    """One position's stacked tables and its dense cell operators.

    Sector s has dimension sector_dims[s] and the active cells
    sector_cells[s], each with a random PSD operator, and the other cells
    zero there; a number in place of the cells makes the sector that
    multiple of the sector before it.  The stacked tables group the sectors
    by dimension and merge the proportional ones, as
    ``_PositionTables.classes`` does; the dense operators (4, E, E) put
    every sector on the diagonal of one environment of dimension E.
    """
    by_dim = {}
    dense = np.zeros((4, sum(sector_dims), sum(sector_dims)), dtype=complex)
    lo = 0
    for dim, active in zip(sector_dims, sector_cells):
        if np.isscalar(active):
            ops = active * ops
        else:
            x = _random_complex(rng, len(active) * dim, dim).reshape(len(active), dim, dim)
            ops = np.zeros((4, dim, dim), dtype=complex)
            ops[active] = x @ x.conj().swapaxes(1, 2)
        by_dim.setdefault(dim, []).append(ops)
        dense[:, lo:lo + dim, lo:lo + dim] = ops
        lo += dim
    return [bb84._merge(by_dim[d]) for d in sorted(by_dim)], dense


# per position: sector dimensions and the cells active in each sector
_BLOCKS = {
    # one-dimensional sectors only: the scalar values
    "scalar": [((1, 1), ([0, 3], [1, 2])), ((1, 1, 1), ([0], [1, 2, 3], [0, 1, 2, 3])),
               ((1,), ([0, 1, 2, 3],))],
    # one dense sector per position
    "ops": [((3,), ([0, 1, 2, 3],)), ((2,), ([0, 1, 2, 3],))],
    # sectors of one dimension with different numbers of active cells
    "padded": [((2, 2), ([0, 3], [1])), ((2, 2), ([0, 1, 2, 3], [2, 3]))],
    # sectors of different dimensions beside a scalar position: 2 x 1 x 2
    # products of dimension classes
    "unequal": [((1, 2), ([0], [1, 2, 3])), ((1,), ([0, 1, 2, 3],)),
                ((2, 1), ([0, 3], [1, 2]))],
    # a sector that is a positive multiple of the one before it: merged into
    # one table, while the dense operators keep both
    "proportional": [((2, 2, 2), ([0, 3], 2.5, [1, 2])), ((1, 1), ([0, 1, 2, 3], 0.5))],
}


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("route", sorted(_BLOCKS))
def test_trace_norms_match_per_row_eigvalsh(monkeypatch, route, chunked):
    if chunked:
        # one row of one sector tuple per batch: the rows and every
        # position's sectors are split
        monkeypatch.setattr(bb84, "_BATCH_ENTRIES", 9)
    rng = np.random.default_rng(5)
    classes, ops = [], np.ones((1, 1, 1), dtype=complex)
    for dims, cells in _BLOCKS[route]:
        stacked, dense = _random_classes(rng, dims, cells)
        classes.append(stacked)
        # member 4m + c is member m of the earlier positions with cell c here
        ops = np.stack([np.kron(a, b) for a in ops for b in dense])
    assert (max(c[-1].shape[-1] for c in classes) == 1) == (route == "scalar")
    merged = sum(len(c) for cs in classes for c in cs) < sum(len(d) for d, _ in _BLOCKS[route])
    assert merged == (route == "proportional")
    coeff = rng.normal(size=(7, len(ops)))
    coeff[2] = 0.0
    want = [float(np.abs(np.linalg.eigvalsh(np.tensordot(row, ops, axes=(0, 0)))).sum())
            for row in coeff]
    got = bb84._trace_norms(coeff, classes)
    assert got.shape == (len(coeff),)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)
    assert got[2] == 0.0


def _pauli_isometry(n, weights):
    # one isometry V = sum_i sqrt(w_i) sigma_i (x) |i>_E: Eve keeps the purification
    paulis = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0]))
    v = sum(np.sqrt(w) * np.kron(p, np.eye(4)[:, [i]])
            for i, (w, p) in enumerate(zip(weights, paulis)))
    return bb84.custom_attack(n, make_channel([v], out_dims=(2, 4)), name="pauli")


def _record_z(n):
    # measure in Z and record outcome 0 as |0>_E, outcome 1 as (|1> + |2>)/sqrt 2:
    # in the Z basis the sectors {0} and {1, 2} have unequal dimensions
    env = (np.eye(3)[:, [0]], (np.eye(3)[:, [1]] + np.eye(3)[:, [2]]) / np.sqrt(2.0))
    v = sum(np.kron(np.diag(np.eye(2)[m]), env[m]) for m in range(2))
    return bb84.custom_attack(n, make_channel([v], out_dims=(2, 3)), name="record-z")


def _ir_dep_ir(n=3):
    # intercept-resend everywhere but on position 1, which depolarises: for
    # n = 3 every sample subset of one position leaves a different (ir, dep)
    # pattern on the rest
    from qkdsec.acframework import AttackStrategy

    ir = bb84.intercept_resend(1, 1.0).quantum[0]
    dep = bb84.depolarize_attack(1, 0.3).quantum[0]
    return AttackStrategy(name="ir-dep-ir", quantum=(ir, dep) + (ir,) * (n - 2))


def _route_attacks(n, width):
    attacks = (bb84.identity_attack(), bb84.intercept_resend(n, 0.5),
               bb84.steal_replace_attack(n), _record_z(n), _ir_dep_ir(n))
    if width > 3:
        # the dense oracle holds 4^w member operators of dimension E^w; with a
        # four-dimensional environment on every position that is 268 MB at
        # width 4, so only the attacks with smaller environments run there
        return attacks
    return attacks + (bb84.depolarize_attack(n, 0.3),
                      _pauli_isometry(n, (0.7, 0.1, 0.05, 0.15)))


def _dense_rest_sums(attack):
    """``_Engine.rest_sums`` with every (basis, label) cell of a rest held densely."""
    def rest_sums(self, rest, select, coeff):
        labels = [len(attack.quantum[i].components) if attack.quantum else 1 for i in rest]
        norms, masses = 0.0, 0.0
        for thetas in product(range(2), repeat=len(rest)):
            for comps in product(*map(range, labels)):
                block = dense_rest_block(attack, rest, thetas, comps)
                norms = norms + block.trace_norms(coeff)
                masses = masses + select @ block.w_member
        return norms, masses
    return rest_sums


@pytest.mark.parametrize("n", [4, 5, 6])
def test_contracted_route_matches_dense_oracle(monkeypatch, n):
    # the oracle sums a dense block per (basis, label) cell of each rest, and
    # takes its masses from the member operators' traces
    params = bb84.default_params(n_qubits=n, t=2, q_tol=0.25, out_len=1, h_rows=1)
    for attack in _route_attacks(n, params.width):
        run = bb84.qkd_run(params, attack)
        monkeypatch.setattr(bb84._Engine, "rest_sums", _dense_rest_sums(attack))
        dense = bb84.qkd_run(params, attack)
        monkeypatch.undo()
        for name in ("p_abort", "eps_sec", "advantage", "eps_cor"):
            a, b = getattr(run, name), getattr(dense, name)
            assert abs(a - b) <= 1e-12, (attack.name, name, a, b)
        for key in run.key_joint.keys() | dense.key_joint.keys():
            a, b = run.key_joint.get(key, 0.0), dense.key_joint.get(key, 0.0)
            assert abs(a - b) <= 1e-12, (attack.name, key, a, b)
    # exact zeros stay exactly zero
    identity = bb84.qkd_run(params, bb84.identity_attack())
    assert identity.eps_sec == 0.0 and identity.advantage == 0.0


def _active(sectors):
    """(active cells, dimension) of each sector table (4, D, D)."""
    return [(np.flatnonzero(np.abs(ops).max(axis=(1, 2)) > 0).tolist(), ops.shape[-1])
            for ops in sectors]


def _cell_sectors(attack):
    """Per (component, basis) of the first position, the sectors of its cells."""
    return [bb84._sectors(ops) for ops in bb84._cells(attack.quantum[0].components)[2]]


def _loop_cells(comps):
    """``bb84._cells``' masses and cell operators, one Kraus vector at a time."""
    w4, cell_ops = [], []
    for comp in comps:
        chan = comp.channel
        env = int(np.prod(chan.out_dims[1:])) if len(chan.out_dims) > 1 else 1
        scale, target = np.sqrt(comp.weight * 0.25), comp.weight * 0.25
        for theta in range(2):
            masses, vecs, cells = np.zeros(4), [], []
            for a in range(2):
                group = []
                for b, op in product(range(2), chan.kraus_ops):
                    out = (op @ bb84._BASIS[theta][a]).reshape(2, env)
                    phi = scale * (bb84._BASIS[theta][b].conj() @ out)
                    norm2 = float(np.vdot(phi, phi).real)
                    if norm2 > 1e-28:
                        group.append((2 * a + b, phi, norm2))
                total = sum(norm2 for _, _, norm2 in group)
                if total > 0.0 and abs(total - target) < 1e-12 * target:
                    fix = target / total
                    group = [(cell, phi * np.sqrt(fix), target if len(group) == 1 else norm2 * fix)
                             for cell, phi, norm2 in group]
                for cell, phi, norm2 in group:
                    masses[cell] += norm2
                    vecs.append(phi)
                    cells.append(cell)
            x = np.array(vecs, dtype=complex).reshape(-1, env).T
            w4.append(masses)
            cell_ops.append(np.stack([x[:, np.equal(cells, c)] @ x[:, np.equal(cells, c)].conj().T
                                      for c in range(4)]))
    return np.array(w4), cell_ops


@pytest.mark.parametrize("build", [
    lambda n: bb84.intercept_resend(n, 0.37), lambda n: bb84.depolarize_attack(n, 0.3),
    bb84.steal_replace_attack, lambda n: _amplitude_damping(n, 0.3), _record_z,
    lambda n: _pauli_isometry(n, (0.7, 0.1, 0.05, 0.15))],
    ids=["intercept-resend", "depolarise", "steal-replace", "amplitude-damping", "record-z",
         "pauli"])
def test_array_pass_matches_the_loop_over_cells(build):
    # one einsum in place of two products per vector: the same masses, cell
    # operators within one ulp of their largest entry (the X-basis products
    # leave dust near 1e-18 in one order and exact zeros in the other), and
    # zero padding where a component's environment is smaller than the largest
    comps = build(1).quantum[0].components
    _, w4, cell_ops = bb84._cells(comps)
    want_w4, want_ops = _loop_cells(comps)
    assert np.array_equal(w4, want_w4)
    for got, want in zip(cell_ops, want_ops):
        env = want.shape[-1]
        ulp = np.finfo(float).eps * np.abs(want).max()
        assert np.abs(got[:, :env, :env] - want).max() <= ulp
        assert not got[:, env:].any() and not got[:, :, env:].any()


def test_sector_layouts_of_shipped_attacks():
    def layouts(attack):
        return [_active(sectors) for sectors in _cell_sectors(attack)]

    def classes(attack):
        return [c.shape for c in bb84._position_tables(attack, 1)[0].classes]

    # depolarise with purification: a = b cells and a != b cells, two 2-d sectors
    # per basis, however much float dust sits between them
    dep = bb84.depolarize_attack(1, 0.3)
    assert layouts(dep) == [[([0, 3], 2), ([1, 2], 2)]] * 2
    # intercept-resend: one-dimensional sectors only, the measured outcome
    ir = bb84.intercept_resend(1, 0.5)
    assert layouts(ir) == [
        [([0, 3], 1)], [([0, 3], 1)], [([0], 1), ([3], 1)], [([0, 1, 2, 3], 1)] * 2,
        [([0, 1, 2, 3], 1)] * 2, [([0], 1), ([3], 1)]]
    # stacked over bases and labels and merged where proportional: one
    # dimension class each, so a rest is one product of classes.  Both bases
    # of depolarise give the same two sectors; intercept-resend's ten merge
    # into four: the pass cells, outcome 0, outcome 1 and the uniform
    # other-basis ones
    assert classes(bb84.identity_attack()) == [(1, 4, 1, 1)]
    assert classes(dep) == [(2, 4, 2, 2)]
    assert classes(ir) == [(4, 4, 1, 1)]
    # steal-replace: two 1-d sectors in Z and one 2-d sector in X, two classes
    # per position and 2^w products per rest
    assert classes(bb84.steal_replace_attack(1)) == [(2, 4, 1, 1), (1, 4, 2, 2)]
    # unequal sectors {0} and {1, 2} in the Z basis keep their own dimensions
    assert layouts(_record_z(1)) == [[([0], 1), ([3], 2)], [([0, 1, 2, 3], 3)]]


def test_padded_sectors_match_oracle():
    # record-z has sectors {0} and {1, 2} of unequal dimensions in the Z basis
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1, h_rows=1)
    attack = _record_z(3)
    p_abort, eps_cor, eps_sec, advantage, _ = oracle_quantities(params, attack)
    run = bb84.qkd_run(params, attack)
    assert abs(p_abort - run.p_abort) <= 1e-12
    assert abs(eps_cor - run.eps_cor) <= 1e-12
    assert abs(eps_sec - run.eps_sec) <= 1e-9
    assert abs(advantage - run.advantage) <= 1e-9
    assert run.eps_sec > 0.0


@pytest.mark.parametrize("scale,n_sectors", [(0.5, 2), (0.999, 2), (1.001, 1), (2.0, 1)])
def test_sector_cutoff(scale, n_sectors):
    # two cells on orthogonal environment states, linked by one small entry
    ops = np.zeros((4, 2, 2), dtype=complex)
    ops[0, 0, 0], ops[3, 1, 1] = 1.0, 0.25
    ops[3, 0, 1] = ops[3, 1, 0] = scale * SECTOR_CUTOFF
    sectors = bb84._sectors(ops)
    assert len(sectors) == n_sectors
    if n_sectors == 2:
        assert _active(sectors) == [([0], 1), ([3], 1)]
        assert [s[:, 0, 0].tolist() for s in sectors] == [[1.0, 0, 0, 0], [0, 0, 0, 0.25]]
    else:
        assert np.array_equal(sectors[0], ops)


@pytest.mark.parametrize("perturb,n_tables",
                         [(0.0, 1), (0.01 * SECTOR_MERGE_TOL, 1), (1e-9, 2)])
def test_sector_merge_tolerance(perturb, n_tables):
    # a table and 2.5 times it, one entry of the copy moved by perturb
    # relative: rounding merges, a real difference does not
    rng = np.random.default_rng(3)
    x = _random_complex(rng, 8, 2).reshape(4, 2, 2)
    ops = x @ x.conj().swapaxes(1, 2)
    copy = 2.5 * ops
    copy[1, 0, 0] *= 1.0 + perturb
    merged = bb84._merge([ops, copy])
    assert len(merged) == n_tables
    if n_tables == 1:
        assert np.allclose(merged[0], 3.5 * ops, rtol=1e-13, atol=0.0)
    else:
        assert np.array_equal(merged, np.stack([ops, copy]))


def _amplitude_damping(n, gamma):
    # Eve keeps the decay record: no bit or phase flip maps the cells onto
    # each other, so no two sectors are proportional
    k0 = np.diag([1.0, np.sqrt(1.0 - gamma)])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    v = np.kron(k0, np.eye(2)[:, [0]]) + np.kron(k1, np.eye(2)[:, [1]])
    return bb84.custom_attack(n, make_channel([v], out_dims=(2, 2)), name="amp-damp")


@pytest.mark.parametrize("build", [lambda n: _amplitude_damping(n, 0.3), _record_z],
                         ids=["amplitude-damping", "record-z"])
def test_channel_without_proportional_sectors_keeps_them(build):
    attack = build(3)
    sectors = [ops for theta in _cell_sectors(attack) for ops in theta]
    classes = bb84._position_tables(attack, 3)[0].classes
    assert sum(len(c) for c in classes) == len(sectors) > 1
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1, h_rows=1)
    p_abort, eps_cor, eps_sec, advantage, _ = oracle_quantities(params, attack)
    run = bb84.qkd_run(params, attack)
    assert abs(p_abort - run.p_abort) <= 1e-12
    assert abs(eps_cor - run.eps_cor) <= 1e-12
    assert abs(eps_sec - run.eps_sec) <= 1e-9
    assert abs(advantage - run.advantage) <= 1e-9
    assert run.advantage > 0.0


def test_rest_memo_with_position_dependent_attack(monkeypatch):
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1, h_rows=1)
    attack = _ir_dep_ir()
    p_abort, eps_cor, eps_sec, advantage, _ = oracle_quantities(params, attack)
    run = bb84.qkd_run(params, attack)
    assert abs(p_abort - run.p_abort) <= 1e-12
    assert abs(eps_cor - run.eps_cor) <= 1e-12
    assert abs(eps_sec - run.eps_sec) <= 1e-9
    assert abs(advantage - run.advantage) <= 1e-9
    rows = bb84.key_rows(params, (0, 0, 0), (-1, 0, 1), (True, True, False))
    # one contraction per distinct rest: (dep, ir), (ir, ir), (ir, dep)
    assert _rest_walks(monkeypatch, bb84._Engine(params, attack), rows)[0] == 3
    uniform = bb84._Engine(params, bb84.intercept_resend(3, 1.0))
    assert _rest_walks(monkeypatch, uniform, rows)[0] == 1


def _rest_walks(monkeypatch, engine, rows):
    """(rest_sums calls, result) of one ``engine.evaluate(*rows)`` call."""
    walks = []
    rest_sums = bb84._Engine.rest_sums

    def counting_sums(self, rest, *args):
        walks.append(rest)
        return rest_sums(self, rest, *args)

    monkeypatch.setattr(bb84._Engine, "rest_sums", counting_sums)
    result = engine.evaluate(*rows)
    monkeypatch.undo()
    return len(walks), result


def test_engine_keeps_nothing_between_calls(monkeypatch):
    # a second evaluate call contracts every distinct rest again: no memo
    # outlives a call, and the call gives the same values
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1, h_rows=1)
    engine = bb84._Engine(params, _ir_dep_ir())
    rows = bb84.key_rows(params, *bb84._joint_keys(params.key_size))
    walks, first = _rest_walks(monkeypatch, engine, rows)
    again, second = _rest_walks(monkeypatch, engine, rows)
    assert walks == again == 3
    assert first[0] == second[0]
    for a, b in zip(first[1:], second[1:]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("attack,products", [
    (bb84.intercept_resend(6, 0.5), 1), (bb84.depolarize_attack(6, 0.3), 1),
    (bb84.steal_replace_attack(6), 2 ** 5)],
    ids=["intercept-resend", "depolarise", "steal-replace"])
def test_one_contraction_per_rest_and_class_product(monkeypatch, attack, products):
    # width 5: intercept-resend has 2^5 x 3^5 basis/label cells and 4^5
    # merged sector tuples per row, and none of them is a contraction of its
    # own; the batches keep the peak under 2 MiB
    params = bb84.default_params(n_qubits=6, t=1, q_tol=0.25, out_len=1, h_rows=1)
    calls = []
    contract = bb84._contract

    def counting_contract(coeff, ops):
        calls.append(tuple(o.shape for o in ops))
        return contract(coeff, ops)

    monkeypatch.setattr(bb84, "_contract", counting_contract)
    engine = bb84._Engine(params, attack)
    rows = bb84.key_rows(params, *bb84._joint_keys(params.key_size))
    tracemalloc.start()
    try:
        engine.evaluate(*rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a uniform attack has one distinct rest
    assert len(calls) == len(set(calls)) == products
    assert peak < 2 ** 21, peak


def test_leaked_and_otp_variants_match_plain_n6():
    params = bb84.default_params(n_qubits=6, t=2, q_tol=0.25, out_len=2, h_rows=1)
    for attack in (bb84.steal_replace_attack(6), bb84.intercept_resend(6, 1.0)):
        run = bb84.qkd_run(params, attack)
        for split in (0, 1, 2):
            assert abs(bb84.leaked_advantage(run, split) - run.advantage) <= 1e-9
        for msg in (0, 1, 3):
            assert abs(bb84.otp_composed_advantage(run, msg) - run.advantage) <= 1e-9


def test_batch_entries_leave_out_the_coefficient_rows():
    # width 3, one scalar sector per position: the stages after the rows hold
    # 4^2, 4 and 1 entries per row; the rows themselves (4^3) are not counted
    ops = [np.ones((1, 4, 1, 1))] * 3
    assert bb84._entries(ops, 3) == bb84._entries(ops, 0) == 16
    # two 2-d sectors per position: each stage doubles, whatever the rows hold
    ops = [np.ones((2, 4, 2, 2))] * 3
    assert bb84._entries(ops, 0) == 4 ** 3 * 2 ** 3
    assert bb84._entries(ops, 3) == 4 ** 3


def test_batches_past_the_bound_fix_the_fewest_positions():
    # width 9, four scalar sectors per position: after the first position
    # every stage holds 4^8 entries per row, over _BATCH_ENTRIES however many
    # positions are fixed, so one is: 4 batches of 4^8 sector tuples, not 4^9
    # batches of one
    ops = [np.ones((4, 4, 1, 1))] * 9
    coeff = np.ones((1, 4 ** 9))
    batches = [m for _, m in islice(bb84._contract(coeff, ops), 5)]
    assert [m.shape for m in batches] == [(1, 4 ** 8)] * 4
    assert all(float(m.sum()) == 4.0 ** 17 for m in batches)


def test_width_eight_batches_split_the_sectors(monkeypatch):
    # intercept-resend at width 8: 4^8 coefficients per row already exceed
    # _BATCH_ENTRIES, but the stages after them fit once one position is
    # fixed, so a batch spans many sector tuples; when the rows counted, every
    # (row, sector tuple) pair was a batch of its own, 16 x 4^8 = 1,048,576
    params = bb84.default_params(n_qubits=10, t=2, q_tol=0.25, out_len=1, h_rows=2)
    batches = []
    contract = bb84._contract

    def counting_contract(coeff, ops):
        for rows, m in contract(coeff, ops):
            batches.append(m.shape[1])
            # fail at once rather than walk a million batches
            assert len(batches) <= 4096, "one batch per (row, sector tuple)"
            yield rows, m

    monkeypatch.setattr(bb84, "_contract", counting_contract)
    engine = bb84._Engine(params, bb84.intercept_resend(10, 0.5))
    rows = bb84.key_rows(params, *bb84._joint_keys(params.key_size))
    tracemalloc.start()
    try:
        p_abort, norms, _, _ = engine.evaluate(*rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # fewer than w positions fixed: every batch holds several sector tuples
    assert min(batches) > 1
    # the coefficient rows (16 x 4^8 values, 8 MiB) and a few batch temporaries
    assert peak < 12 * 2 ** 20, peak
    assert p_abort == 0.234375
    # allowed 4^8 entries, a batch fixes no sector: the same norms
    monkeypatch.setattr(bb84, "_BATCH_ENTRIES", 4 ** 8)
    batches.clear()
    assert np.allclose(engine.evaluate(*rows)[1], norms, rtol=0.0, atol=1e-15)
    assert batches == [4 ** 8] * len(rows[0])


def _evaluated_rows(monkeypatch):
    """A list that gets the number of rows of every ``_Engine.evaluate`` call."""
    counts = []
    evaluate = bb84._Engine.evaluate

    def counting_evaluate(self, select, mix):
        counts.append(len(select))
        return evaluate(self, select, mix)

    monkeypatch.setattr(bb84._Engine, "evaluate", counting_evaluate)
    return counts


def _orbit_attacks(n):
    return [bb84.identity_attack(), bb84.intercept_resend(n, 0.37),
            bb84.intercept_resend(n, 0.5), bb84.depolarize_attack(n, 0.3),
            bb84.steal_replace_attack(n), _pauli_isometry(n, (0.7, 0.1, 0.05, 0.15)),
            _record_z(n), _ir_dep_ir(n)]


def _composed(run):
    """qkd_run's fields and key_joint, the leaked and the one-time-pad advantages."""
    p = run.params
    values = {name: getattr(run, name) for name in
              ("p_abort", "eps_cor", "eps_sec", "advantage", "error_rate")}
    values.update(run.key_joint)
    values["leaked"] = bb84.leaked_advantage(run, p.out_len)
    values["otp"] = bb84.otp_composed_advantage(run, p.key_size - 1)
    return values


@pytest.mark.parametrize("n,t,h_rows,out_len", [(5, 2, 1, 1), (6, 2, 1, 2), (6, 2, 2, 1),
                                                (7, 3, 2, 2)])
def test_orbit_route_matches_every_row(monkeypatch, n, t, h_rows, out_len):
    # the same quantities with every position refused the flip certificate,
    # so every row is evaluated
    params = bb84.default_params(n_qubits=n, t=t, q_tol=0.25, out_len=out_len, h_rows=h_rows)
    nk, syndromes = params.key_size, 2 ** h_rows
    for attack in _orbit_attacks(n):
        counts = _evaluated_rows(monkeypatch)
        orbit = _composed(bb84.qkd_run(params, attack))
        # every attack here is certified (steal-replace only with the
        # per-Kraus phases: in the X basis its Kraus operators flip with
        # signs +1 and -1): one secrecy orbit and key_size joint ones, and
        # key_size OTP orbits
        assert counts == [1 + nk, nk, nk], attack.name
        monkeypatch.setattr(bb84, "_flip_covariant", lambda phi: False)
        counts.clear()
        full = _composed(bb84.qkd_run(params, attack))
        assert counts == [syndromes * (nk + nk * nk), syndromes * nk * nk,
                          syndromes * nk * nk], attack.name
        monkeypatch.undo()
        assert orbit.keys() == full.keys(), attack.name
        for key, value in orbit.items():
            assert abs(value - full[key]) <= 1e-12, (attack.name, key, value, full[key])
    identity = _composed(bb84.qkd_run(params, bb84.identity_attack()))
    assert [identity[k] for k in ("eps_sec", "advantage", "leaked", "otp")] == [0.0] * 4


def _one_damped_position(n):
    from qkdsec.acframework import AttackStrategy

    passed = bb84.intercept_resend(1, 0.0).quantum[0]
    damped = _amplitude_damping(1, 0.3).quantum[0]
    return AttackStrategy(name="one-damped", quantum=(passed,) * (n - 1) + (damped,))


def _stinespring_random(seed):
    from qkdsec.qstate import random_channel, stinespring

    return lambda n: bb84.custom_attack(n, stinespring(random_channel(seed, 2)),
                                        name=f"random-{seed}")


@pytest.mark.parametrize("build", [lambda n: _amplitude_damping(n, 0.3), _stinespring_random(1),
                                   _stinespring_random(2), _one_damped_position],
                         ids=["amplitude-damping", "random-1", "random-2", "one-position"])
def test_uncertified_attacks_evaluate_every_row(monkeypatch, build):
    attack = build(3)
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1, h_rows=1)
    counts = _evaluated_rows(monkeypatch)
    run = bb84.qkd_run(params, attack)
    assert counts == [2 * (2 + 4)]
    assert not bb84._Engine(params, attack).covariant
    p_abort, eps_cor, eps_sec, advantage, _ = oracle_quantities(params, attack)
    assert abs(p_abort - run.p_abort) <= 1e-12
    assert abs(eps_cor - run.eps_cor) <= 1e-12
    assert abs(eps_sec - run.eps_sec) <= 1e-9
    assert abs(advantage - run.advantage) <= 1e-9


@pytest.mark.parametrize("out_len", [1, 2, 3])
@pytest.mark.parametrize("width", [5, 6, 7, 8])
def test_engine_matches_classical_closed_forms(width, out_len):
    # past the dense oracle's reach: the closed forms use no quantum state.
    # At width 8 a row's 4^8 entries exceed _BATCH_ENTRIES, so _contract
    # fixes a leading position's sector; steal-replace, at 0.7-1.9 s per run
    # there, stays at widths 5 to 7
    n = width + 2
    params = bb84.default_params(n_qubits=n, t=2, q_tol=0.25, out_len=out_len, h_rows=2,
                                 seed=width * 10 + out_len)
    cases = [(bb84.intercept_resend(n, p), intercept_resend_labels(p)) for p in (0.37, 0.5, 1.0)]
    if width < 8:
        cases.append((bb84.steal_replace_attack(n), STEAL_REPLACE_LABELS))
    for attack, labels in cases:
        run = bb84.qkd_run(params, attack)
        got = (run.p_abort, run.eps_cor, run.eps_sec, run.advantage)
        want = classical_quantities(params, labels)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), (attack.name, got, want)
        assert min(want[1:]) > 0.0
    # exact zeros stay exact on both sides
    for attack in (bb84.identity_attack(), bb84.intercept_resend(n, 0.0)):
        run = bb84.qkd_run(params, attack)
        assert (run.p_abort, run.eps_cor, run.eps_sec, run.advantage) == (0.0,) * 4
    assert classical_quantities(params, intercept_resend_labels(0.0)) == (0.0,) * 4


def test_engine_and_composition_leave_numpy_ma_unimported():
    # np.unique and np.isin import numpy.ma on first use (numpy 2.4 calls
    # np.ma.is_masked), which cost every fresh process 10-17 ms
    import os
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from qkdsec import cli\n"
        "from qkdsec.protocols import bb84\n"
        "bb84.qkd_run(bb84.default_params(4, 2), bb84.intercept_resend(4, 0.5))\n"
        "cli.main(['compose', 'scenario', '--name', 'parallel-qkd', '--seed', '1'])\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False"
