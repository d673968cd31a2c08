import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsec import qstate as qs
from qkdsec import metrics as mt


def test_make_density_examples():
    tau = qs.make_density(np.eye(2) / 2, (2,))
    assert tau.trace_mass == pytest.approx(1.0, abs=1e-12)
    pure = qs.make_density(np.diag([1.0, 0.0]), (2,))
    assert pure.matrix[0, 0] == pytest.approx(1.0)
    with pytest.raises(qs.NotPSD):
        qs.make_density(np.diag([1.01, -0.01]), (2,))
    with pytest.raises(qs.NotHermitian):
        qs.make_density(np.array([[0.5, 0.3], [0.0, 0.5]]), (2,))
    with pytest.raises(qs.BadTrace):
        qs.make_density(np.eye(2), (2,))
    with pytest.raises(qs.DimMismatch):
        qs.make_density(np.eye(4) / 4, (3,))


def test_make_density_clips_tolerated_negatives():
    m = np.diag([1.0 + 1e-10, -1e-10])
    state = qs.make_density(m, (2,))
    w = qs.hermitian_eig(state.matrix)[0]
    assert w.min() >= 0.0


BAD_VALUES = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_make_density_rejects_non_finite(bad):
    with pytest.raises(qs.NotFinite):
        qs.make_density([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(qs.NotFinite):
        qs.make_density([[0.5, bad], [bad, 0.5]])


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_make_povm_rejects_non_finite(bad):
    with pytest.raises(qs.NotFinite):
        qs.make_povm((0, 1), [[[bad, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_make_channel_rejects_non_finite(bad):
    with pytest.raises(qs.NotFinite):
        qs.make_channel([[[bad, 0.0], [0.0, 1.0]]])


# the finiteness check comes before any arithmetic that would warn on inf - inf
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", BAD_VALUES)
def test_make_cq_rejects_non_finite(bad):
    regs = [("k", (0, 1))]
    # density-matrix, factor and vector branch operators
    for op in ([[bad, 0.0], [0.0, 0.5]], [[0.5, bad], [bad, 0.5]], [bad, 0.0]):
        with pytest.raises(qs.NotFinite):
            qs.make_cq(regs, [((0,), 0.5, op), ((1,), 0.5, [1.0, 0.0])], (2,))
    # one-dimensional quantum part and the branch weight itself
    with pytest.raises(qs.NotFinite):
        qs.make_cq(regs, [((0,), 0.5, bad), ((1,), 0.5, 1.0)])
    with pytest.raises(qs.NotFinite):
        qs.make_cq(regs, [((0,), bad, 1.0), ((1,), 0.5, 1.0)])


def _hermitian_scalars():
    # real, complex within the Hermiticity tolerance, zero and tolerated
    # negative branch operators of a state with no quantum part
    rng = np.random.default_rng(31)
    reals = [1.0, 0.3, 1 / 3, 7, True, np.float64(0.25), np.int64(3), 5e-324,
             1e-300, 1e150, 1.3407807929942596e154]
    reals += list(rng.random(300)) + list(10.0 ** rng.uniform(-320, 150, 300))
    tilted = [complex(x, y) for x in reals[:40] for y in (1e-13, -4.9e-11)]
    tilted += [np.complex128(0.2 + 3e-11j)]
    zeros = [0.0, -0.0, 0, complex(0.0, 1e-12), -1e-12, -1e-9, complex(-5e-10, 2e-11)]
    return reals + tilted + zeros


def test_scalar_cq_factor_matches_canonical_factor_bit_for_bit():
    for z in _hermitian_scalars():
        got = qs._scalar_factor(z)
        want = qs._canonical_factor(z, 1)
        assert got is not None, z
        assert got[0].shape == want[0].shape and got[0].dtype == want[0].dtype
        assert got[0].tobytes() == want[0].tobytes(), z
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes(), z
    # non-Hermitian and non-finite scalars are left to the general path
    for z in (1 + 1j, complex(0.5, 5.1e-11), np.nan, np.inf, complex(1.0, np.nan), 1e200):
        assert qs._scalar_factor(z) is None


def _cq_outcome(op):
    try:
        state = qs.make_cq([("k", (0, 1))], [((0,), 0.5, op), ((1,), 0.25, 1.0)])
    except qs.StateError as exc:
        return type(exc), str(exc)
    return ([(b.assignment, b.weight, b.factor.tobytes()) for b in state.branches],
            state.trace_mass)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_make_cq_scalar_branches_match_matrix_branches():
    # a 1x1 array takes the general path; the scalar path must agree with it
    # on every value and on every error, message included
    errors = {np.nan: qs.NotFinite, np.inf: qs.NotFinite, -np.inf: qs.NotFinite,
              complex(1.0, np.nan): qs.NotFinite, complex(np.inf, 0.0): qs.NotFinite,
              1e200: qs.NotFinite, -1e-3: qs.NotPSD, -2e-9: qs.NotPSD,
              complex(-1.0, 1e-12): qs.NotPSD}
    for z in _hermitian_scalars() + [1 + 1j, complex(0.5, -2e-10)] + list(errors):
        got = _cq_outcome(z)
        assert got == _cq_outcome(np.array([[z]], dtype=complex)), z
        if z in errors:
            assert got[0] is errors[z], z
    assert _cq_outcome(0.0)[0] == [((1,), 0.25, qs._unit_column(1.0).tobytes())]


def test_tensor_product_examples():
    tau2 = qs.maximally_mixed(2)
    tau4 = qs.tensor_product(tau2, tau2)
    assert np.abs(tau4.matrix - np.eye(4) / 4).max() <= 1e-14
    z0 = qs.pure_state([1, 0])
    z1 = qs.pure_state([0, 1])
    z01 = qs.tensor_product(z0, z1)
    assert z01.matrix[1, 1] == pytest.approx(1.0)
    half = qs.DensityOperator((2,), (np.eye(2) / 4).astype(complex), 0.5)
    assert qs.tensor_product(half, tau2).trace_mass == pytest.approx(0.5)
    with pytest.raises(qs.DimensionCap):
        qs.tensor_product(tau2, tau2, max_dim=2)


def test_partial_trace_examples():
    z00 = qs.pure_state([1, 0, 0, 0], dims=(2, 2))
    reduced = qs.partial_trace(z00, [0])
    assert reduced.matrix[0, 0] == pytest.approx(1.0)
    bell = qs.pure_state([1, 0, 0, 1], dims=(2, 2))
    assert np.abs(qs.partial_trace(bell, [0]).matrix - np.eye(2) / 2).max() <= 1e-12
    rho = qs.random_density(4, 8, 3)
    rho = qs.make_density(rho.matrix, (2, 2, 2))
    for keep in ([0], [1, 2], [0, 2]):
        assert qs.partial_trace(rho, keep).trace_mass == pytest.approx(
            rho.trace_mass, abs=1e-12)
    with pytest.raises(qs.EmptyKeep):
        qs.partial_trace(rho, [])


def test_partial_trace_of_tensor_recovers_factor():
    rng = np.random.default_rng(0)
    for seed in range(5):
        a = qs.random_density(seed, 3, 2)
        b = qs.random_density(seed + 100, 2, 2)
        joint = qs.tensor_product(a, b)
        back = qs.partial_trace(joint, [0])
        assert np.abs(back.matrix - a.matrix).max() <= 1e-12


def test_apply_channel_examples():
    state = qs.random_density(7, 2, 2)
    ident = qs.identity_channel(2)
    out = qs.apply_channel(ident, state, 0)
    assert np.abs(out.matrix - state.matrix).max() <= 1e-12
    dep = qs.depolarizing_channel(1.0)
    out = qs.apply_channel(dep, qs.pure_state([1, 0]), 0)
    assert np.abs(out.matrix - np.eye(2) / 2).max() <= 1e-12
    with pytest.raises(qs.DimMismatch):
        qs.apply_channel(ident, qs.maximally_mixed(3), 0)


def test_stinespring_dilation_matches_direct():
    for seed in range(10):
        ch = qs.random_channel(seed, 2, kraus=3)
        state = qs.random_density(seed + 50, 2, 1 + seed % 2)
        direct = qs.apply_channel(ch, state, 0)
        dilated = qs.apply_channel(qs.stinespring(ch), state, 0)
        assert dilated.dims == (2, 3)
        traced = qs.partial_trace(dilated, [0])
        assert np.abs(traced.matrix - direct.matrix).max() <= 1e-10


def test_channel_preserves_trace_randomised():
    rng = np.random.default_rng(11)
    for trial in range(100):
        dim = int(rng.integers(2, 9))
        state = qs.random_density(int(rng.integers(0, 2 ** 31)), dim,
                                  int(rng.integers(1, dim + 1)))
        ch = qs.random_channel(int(rng.integers(0, 2 ** 31)), dim,
                               kraus=int(rng.integers(1, 4)))
        out = qs.apply_channel(ch, state, 0)
        assert abs(out.trace_mass - state.trace_mass) <= 1e-10
        assert abs(float(np.trace(out.matrix).real) - state.trace_mass) <= 1e-10


def test_measure_povm_examples():
    dist, post = qs.measure_povm(qs.basis_povm(2), qs.maximally_mixed(2))
    assert dist.prob(0) == pytest.approx(0.5, abs=1e-12)
    only = qs.make_povm(("all",), [np.eye(3)], (3,))
    dist, _ = qs.measure_povm(only, qs.maximally_mixed(3))
    assert dist.prob("all") == pytest.approx(1.0, abs=1e-12)
    plus = qs.pure_state([1, 1])
    dist, post = qs.measure_povm(qs.basis_povm(2), plus)
    assert dist.prob(0) == pytest.approx(0.5, abs=1e-12)
    assert set(post.register_names()) == {"outcome"}
    with pytest.raises(qs.DimMismatch):
        qs.measure_povm(qs.basis_povm(3), plus)


def test_hermitian_eig_exported():
    w, _ = qs.hermitian_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])


def test_make_cq_and_flatten_examples():
    env = qs.pure_state([1, 1]).matrix
    single = qs.make_cq([("k", (0,))], [((0,), 1.0, env)], (2,))
    flat = qs.flatten_cq(single)
    assert flat.dims == (1, 2)
    assert np.abs(flat.matrix - env).max() <= 1e-12

    env2 = qs.random_density(3, 2, 2).matrix
    uniform = qs.make_cq([("k", (0, 1))],
                         [((0,), 0.5, env2), ((1,), 0.5, env2)], (2,))
    flat = qs.flatten_cq(uniform)
    tau_k = np.eye(2) / 2
    assert np.abs(flat.matrix - np.kron(tau_k, env2)).max() <= 1e-10

    total = sum(b.weight for b in uniform.branches)
    assert total == pytest.approx(uniform.trace_mass, abs=1e-12)

    with pytest.raises(qs.DuplicateAssignment):
        qs.make_cq([("k", (0,))], [((0,), 0.5, env), ((0,), 0.5, env)], (2,))
    with pytest.raises(qs.AlphabetMismatch):
        qs.make_cq([("k", (0,))], [((5,), 1.0, env)], (2,))


def test_cq_roundtrip_preserves_weights():
    rng = np.random.default_rng(12)
    for trial in range(20):
        nk = int(rng.integers(2, 4))
        weights = rng.random(nk)
        weights /= weights.sum()
        branches = [((k,), float(weights[k]),
                     qs.random_density(int(rng.integers(0, 2 ** 31)), 2, 2).matrix)
                    for k in range(nk)]
        state = qs.make_cq([("k", tuple(range(nk)))], branches, (2,))
        flat = qs.flatten_cq(state)
        back = qs.cq_from_density(flat, [("k", tuple(range(nk)))])
        for orig, rec in zip(state.branches, back.branches):
            assert abs(orig.weight - rec.weight) <= 1e-12


def test_flatten_agreement_with_block_distance():
    # block-structured distances equal the flattened computation
    rng = np.random.default_rng(21)
    for trial in range(100):
        nk = int(rng.integers(2, 4))
        dim_e = int(rng.integers(1, 4))
        def rand_cq():
            weights = rng.random(nk)
            weights /= weights.sum()
            rows = []
            for k in range(nk):
                rho = qs.random_density(int(rng.integers(0, 2 ** 31)), dim_e,
                                        int(rng.integers(1, dim_e + 1)))
                rows.append(((k,), float(weights[k]), rho.matrix))
            return qs.make_cq([("k", tuple(range(nk)))], rows, (dim_e,))
        a, b = rand_cq(), rand_cq()
        block = mt.cq_trace_distance(a, b)
        flat = mt.trace_distance(qs.flatten_cq(a), qs.flatten_cq(b))
        assert abs(block - flat) <= 1e-9


def test_random_density_contract():
    pure = qs.random_density(1, 4, 1)
    assert mt.von_neumann_entropy(pure) <= 1e-9
    assert np.abs(qs.random_density(7, 3, 2).matrix
                  - qs.random_density(7, 3, 2).matrix).max() == 0.0
    full = qs.random_density(2, 5, 5)
    w = qs.hermitian_eig(full.matrix)[0]
    assert w.min() > 0.0
    with pytest.raises(qs.DimMismatch):
        qs.random_density(0, 2, 3)


def test_revalidation_idempotent():
    state = qs.random_density(9, 6, 3)
    again = qs.validate(state)
    assert np.abs(again.matrix - state.matrix).max() <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=6))
def test_random_density_always_valid(seed, dim):
    state = qs.random_density(seed, dim, 1 + seed % dim)
    qs.validate(state)


def test_matrix_fixture_roundtrip(tmp_path):
    state = qs.random_density(5, 4, 2)
    state = qs.make_density(state.matrix, (2, 2))
    path = tmp_path / "state.mat"
    qs.save_matrix(path, state)
    back = qs.load_matrix(path)
    assert back.dims == (2, 2)
    assert np.abs(back.matrix - state.matrix).max() <= 1e-12


def test_cq_fixture_roundtrip(tmp_path):
    env = qs.random_density(8, 2, 2).matrix
    state = qs.make_cq([("k", (0, 1))], [((0,), 0.25, env), ((1,), 0.75, env)], (2,))
    path = tmp_path / "state.cq"
    qs.save_cq_fixture(path, state)
    back = qs.load_cq_fixture(path)
    assert len(back.branches) == 2
    weights = sorted(b.weight for b in back.branches)
    assert weights == pytest.approx([0.25, 0.75], abs=1e-12)
