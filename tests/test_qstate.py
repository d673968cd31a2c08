import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsec import qstate as qs
from qkdsec import metrics as mt
from qkdsec.tolerances import TRACE_TOL


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
def test_classical_distribution_rejects_non_finite(bad):
    with pytest.raises(qs.NotFinite):
        qs.ClassicalDistribution((0, 1), [bad, bad])


@pytest.mark.parametrize("probs", [1.0, [[1.0]]], ids=["scalar", "matrix"])
def test_classical_distribution_needs_one_probability_per_symbol(probs):
    with pytest.raises(qs.AlphabetMismatch, match="one probability per symbol required"):
        qs.ClassicalDistribution(("a",), probs)


_OVER = [[1.5, 0.0], [0.0, 0.0]]      # eigenvalues [0, 1.5]
_UNDER = [[-0.5, 0.0], [0.0, 0.0]]    # eigenvalues [-0.5, 0]
_SKEW = [[0.0, 1.0], [0.0, 0.0]]
_WIDE = np.eye(3)


@pytest.mark.parametrize("elements, error, message", [
    ([_SKEW, _OVER], qs.NotHermitian, "not Hermitian"),
    ([_UNDER, _OVER], qs.NotPSD, r"\[-5.000e-01, 0.000e\+00\]"),
    ([np.eye(2), _WIDE, _UNDER], qs.DimMismatch, "share one shape"),
    ([np.eye(2), [[np.inf, 0.0], [0.0, 0.0]], _OVER], qs.NotFinite, "NaN or infinite"),
    ([], qs.DimMismatch, "at least one element"),
], ids=["hermitian-before-range", "first-range-failure", "shape-before-range",
        "finite-before-range", "empty"])
def test_make_povm_reports_elements_in_input_order(elements, error, message):
    # the shape, finiteness and Hermiticity of every element are checked
    # before the one stacked range spectrum, which names its first failure
    with pytest.raises(error, match=message):
        qs.make_povm(range(len(elements)), elements, (2,))


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


def _classical_outcome(build, registers, branches):
    try:
        state = build(registers, branches)
    except qs.StateError as exc:
        return type(exc), str(exc)
    return ([(b.assignment, b.weight, b.factor.tobytes(), b.factor.flags.writeable)
             for b in state.branches], state.registers, state.quantum_dims, state.trace_mass)


def test_make_cq_op_contract():
    # a square op is a density matrix, never silently a factor
    op = [[0.5, 0.3], [0.1, 0.5]]
    with pytest.raises(qs.NotHermitian):
        qs.make_density(op)
    with pytest.raises(qs.NotHermitian):
        qs.make_cq([("K", (0,))], [((0,), 1.0, op)], (2,))
    with pytest.raises(qs.NotHermitian):
        qs.make_cq([("K", (0,))], [((0,), 1.0, [[0.6 + 0.8j]])])
    # a vector or a non-square qdim x k matrix is a factor F of F F^dagger
    column = qs.make_cq([("K", (0,))], [((0,), 0.5, [0.6, 0.8j])], (2,))
    wide = qs.make_cq([("K", (0,))], [((0,), 0.5, [[0.6, 0.0, 0.0], [0.0, 0.8j, 0.0]])],
                      (2,))
    assert column.trace_mass == pytest.approx(0.5, abs=1e-15)
    assert wide.trace_mass == pytest.approx(0.5, abs=1e-15)
    # anything else is refused
    with pytest.raises(qs.DimMismatch):
        qs.make_cq([("K", (0,))], [((0,), 1.0, np.full((2, 2, 2), 0.25))], (2,))
    with pytest.raises(qs.DimMismatch):
        qs.make_cq([("K", (0,))], [((0,), 1.0, [1.0, 0.0, 0.0])], (2,))


def test_make_cq_errors_keep_input_order():
    # the ops' shapes and Hermiticity are checked in one pass, then their
    # spectra in one stacked call whose first failure raises, with the
    # message a row-at-a-time build gives
    regs = [("K", (0, 1, 2))]
    not_psd = [[1.0, 0.0], [0.0, -0.5]]
    less_psd = [[1.0, 0.0], [0.0, -0.25]]
    not_hermitian = [[0.5, 0.3], [0.1, 0.5]]
    fine = np.eye(2) / 2
    psd_message = "branch operator has eigenvalue -5.000e-01"
    hermitian_message = ("branch operator is not Hermitian: max |M - M^dagger| = 2.000e-01 "
                         "exceeds 1e-10")
    cases = [
        ([((0,), 0.3, not_hermitian), ((1,), 0.3, not_psd)], qs.NotHermitian,
         hermitian_message),
        ([((0,), 0.3, fine), ((1,), 0.3, not_psd), ((2,), 0.3, less_psd)], qs.NotPSD,
         psd_message),
        # a row of zero weight is dropped before its op is read
        ([((0,), 0.3, fine), ((1,), 0.0, not_hermitian), ((2,), 0.3, not_psd)], qs.NotPSD,
         psd_message),
        ([((0,), 0.3, fine), ((1,), 0.3, [[1.0, 0.0]]), ((2,), 0.3, not_psd)],
         qs.DimMismatch, "branch operator of shape (1, 2) is not a matrix on dimension 2"),
    ]
    for rows, error, message in cases:
        with pytest.raises(error) as caught:
            qs.make_cq(regs, rows, (2,))
        assert str(caught.value) == message, rows


def test_make_classical_cq_matches_make_cq():
    # same branches, order, weights, factors, mass and errors as make_cq
    # with a unit scalar quantum part
    regs = [("x", (0, 1, 10, "a")), qs.Register("y", ("p", "q", 2))]
    rng = np.random.default_rng(7)
    words = [(x, y) for x in (0, 1, 10, "a") for y in ("p", "q", 2)]
    cases = []
    for _ in range(40):
        picked = rng.permutation(len(words))[:rng.integers(1, len(words) + 1)]
        weights = rng.random(len(picked)) / len(picked)
        weights[rng.random(len(picked)) < 0.2] = 0.0
        cases.append([(words[i], w) for i, w in zip(picked, weights)])
    cases += [
        [((0, "p"), 0.5), ([1, "q"], 0.5)],            # list assignment
        [((0, "p"), -1e-13), ((1, "q"), 0.5)],         # tolerated negative weight
        [((0, "p"), -1e-3)],                           # negative weight
        [((0, "p"), np.nan)], [((0, "p"), np.inf)],    # non-finite weights
        [((0, "p"), 0.7), ((1, "q"), 0.4)],            # mass above one
        [((0, "p"), 0.5), ((0, "p"), 0.5)],            # duplicate
        [((3, "p"), 0.5)], [((0, "r"), 0.5)],          # outside the alphabets
        [((0,), 0.5)], [(0, 0.5)],                     # wrong number of values
        [],
    ]
    for branches in cases:
        got = _classical_outcome(qs.make_classical_cq, regs, branches)
        want = _classical_outcome(qs.make_cq, regs, [(a, w, 1.0) for a, w in branches])
        assert got == want, branches
        # the column core meets every case too; it cannot spell a wrong
        # number of values or a value outside the alphabet, so those become
        # missing columns or indices past the end, and only the error class
        # must agree
        columns = _classical_outcome(
            lambda r, b: qs.make_classical_cq_columns(r, *_as_columns(r, b)), regs, branches)
        if got[0] in (qs.RegisterMismatch, qs.AlphabetMismatch):
            assert columns[0] is got[0], branches
        else:
            assert columns == got, branches
    state = qs.make_classical_cq(regs, cases[0])
    assert len({id(b.factor) for b in state.branches}) == 1
    # numpy would wrap a negative index to the alphabet's end
    with pytest.raises(qs.AlphabetMismatch, match="index -1 outside the 4 values of register x"):
        qs.make_classical_cq_columns(regs, [[0, -1], [0, 1]], [0.25, 0.25])
    with pytest.raises(qs.AlphabetMismatch, match="index 3 outside the 3 values of register y"):
        qs.make_classical_cq_columns(regs, [[0, 1], [0, 3]], [0.25, 0.25])
    with pytest.raises(qs.AlphabetMismatch, match="integers"):
        qs.make_classical_cq_columns(regs, [[0.0], [1.0]], [0.25])
    with pytest.raises(qs.RegisterMismatch):
        qs.make_classical_cq_columns(regs, [[0, 1], [0]], [0.25, 0.25])
    # a row's repeat is checked before its weight
    with pytest.raises(qs.DuplicateAssignment, match=r"assignment \(0, 'p'\) appears twice"):
        qs.make_classical_cq_columns(regs, [[0, 1, 0], [0, 1, 0]], [0.25, 0.25, np.nan])
    with pytest.raises(qs.DuplicateAssignment, match=r"assignment \(1, 'q'\) appears twice"):
        qs.make_cq(regs, [((1, "q"), 0.25, 1.0), ((0, "p"), 0.25, 1.0), ((1, "q"), 0.0, 1.0)])


_X, _Y = (0, 1, 2, 3, 4), ("p", "q")
_WORDS = [(0, "p"), (1, "q"), (2, "p"), (3, "q"), (4, "p")]
# (field of the row it changes: 0 assignment, 1 weight, 2 op; new value,
# error, message); each is the only fault of its input
_ROW_FAULTS = [
    (0, (0,), qs.RegisterMismatch, "assignment (0,) has 1 values for 2 registers"),
    (0, (7, "p"), qs.AlphabetMismatch, "value 7 not in alphabet of register x"),
    (0, (1, "q"), qs.DuplicateAssignment, "assignment (1, 'q') appears twice"),
    (1, np.nan, qs.NotFinite, "branch weight nan is not finite"),
    (1, -np.inf, qs.NotFinite, "branch weight -inf is not finite"),
    (1, -0.25, qs.BadTrace, "negative branch weight -0.25"),
    (1, 0.75, qs.BadTrace, "branch weights sum to 1.25 > 1"),
    (2, [[1.0, 0.0]], qs.DimMismatch,
     "branch operator of shape (1, 2) is not a matrix on dimension 2"),
    (2, [[np.nan, 0.0], [0.0, 0.5]], qs.NotFinite,
     "branch operator is not finite (squared norm nan)"),
    (2, [[0.5, 0.3], [0.1, 0.5]], qs.NotHermitian,
     "branch operator is not Hermitian: max |M - M^dagger| = 2.000e-01 exceeds 1e-10"),
    (2, [[1.0, 0.0], [0.0, -0.5]], qs.NotPSD, "branch operator has eigenvalue -5.000e-01"),
]
_ELEMENT_FAULTS = [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], qs.DimMismatch, "POVM elements must share one shape"),
    ([[np.nan, 0.0], [0.0, 0.0]], qs.NotFinite, "POVM element has a NaN or infinite entry"),
    (_SKEW, qs.NotHermitian, "POVM element not Hermitian (defect 1.000e+00)"),
    (_OVER, qs.NotPSD, "POVM element eigenvalues [0.000e+00, 1.500e+00] outside [0, 1]"),
]


def _raises_exactly(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert (type(caught.value), str(caught.value)) == (error, message)


@pytest.mark.parametrize("row", [0, 2, 4], ids=["first", "middle", "last"])
def test_single_fault_names_its_error_in_any_row(row):
    # the checks run one kind at a time over all rows, so a lone fault is
    # named with the same error and message wherever its row is
    regs = [("x", _X), ("y", _Y)]
    for field, value, error, message in _ROW_FAULTS:
        rows = [[a, 0.125, np.diag([1.0, 0.0])] for a in _WORDS]
        rows[row][field] = value
        _raises_exactly(lambda: qs.make_cq(regs, rows, (2,)), error, message)
        if field == 2:
            continue
        pairs = [(a, w) for a, w, _ in rows]
        _raises_exactly(lambda: qs.make_classical_cq(regs, pairs), error, message)
        if len(rows[row][0]) == 2 and rows[row][0][0] in _X:
            columns = [[_X.index(a[0]) for a, _ in pairs], [_Y.index(a[1]) for a, _ in pairs]]
            _raises_exactly(
                lambda: qs.make_classical_cq_columns(regs, columns, [w for _, w in pairs]),
                error, message)
    for index in (5, -1):
        columns = [list(range(5)), [0, 1, 0, 1, 0]]
        columns[0][row] = index
        _raises_exactly(lambda: qs.make_classical_cq_columns(regs, columns, [0.125] * 5),
                        qs.AlphabetMismatch, f"index {index} outside the 5 values of register x")
    for value, error, message in _ELEMENT_FAULTS:
        elements = [np.eye(2) / 5] * 5
        elements[row] = value
        _raises_exactly(lambda: qs.make_povm(range(5), elements, (2,)), error, message)


@pytest.mark.parametrize("alphabet", [("a", "a"), (1, True), (0, 1, 0.0)],
                         ids=["same", "one-and-true", "zero-and-float-zero"])
def test_register_refuses_a_repeated_value(alphabet):
    # equal values would give one assignment two branches: a state with
    # mass 1/2 on each would read as far from all mass on the one value
    with pytest.raises(qs.AlphabetMismatch, match="alphabet of register x repeats a value"):
        qs.Register("x", alphabet)
    with pytest.raises(qs.AlphabetMismatch, match="repeats a value"):
        qs.make_classical_cq_columns([("x", alphabet)], [[0, 1]], [0.5, 0.5])


def _as_columns(registers, branches):
    """One index column per value position of the branches' assignments,
    a value outside its alphabet as the index one past the alphabet's end."""
    regs = qs._registers(registers)
    rows = []
    for assignment, _ in branches:
        assignment = tuple(assignment) if isinstance(assignment, (tuple, list)) \
            else (assignment,)
        rows.append([reg.alphabet.index(v) if v in reg.alphabet else len(reg.alphabet)
                     for reg, v in zip(regs, assignment)])
    columns = [list(c) for c in zip(*rows)] if rows else [[] for _ in regs]
    return columns, [w for _, w in branches]


def test_branches_in_alphabet_order():
    # alphabet positions order the branches, not the values' strings
    state = qs.make_classical_cq([("x", (2, 10, "b"))], [(("b",), 0.25), ((10,), 0.25),
                                                        ((2,), 0.25)])
    assert [b.assignment for b in state.branches] == [(2,), (10,), ("b",)]


def test_equal_strings_order_by_alphabet_position():
    # 1 and "1" (and 2 and "2") print alike; their alphabet positions order
    # them: permuted inputs give one branch order and one distance
    regs = [("x", ("1", 1, "a")), ("y", (2, "2"))]
    words = [(x, y) for x in ("1", 1, "a") for y in (2, "2")]
    real = [0.1, 0.2, 0.3, 0.05, 0.15, 0.2]
    ideal = [0.3, 0.1, 0.1, 0.2, 0.2, 0.1]
    perm = [5, 3, 1, 4, 0, 2]
    want = [("1", 2), ("1", "2"), (1, 2), (1, "2"), ("a", 2), ("a", "2")]
    states = []
    for weights in (real, ideal):
        pairs = list(zip(words, weights))
        states.append([qs.make_classical_cq(regs, pairs),
                       qs.make_classical_cq(regs, [pairs[i] for i in perm]),
                       qs.make_cq(regs, [(a, w, 1.0) for a, w in reversed(pairs)])])
        for state in states[-1]:
            assert [b.assignment for b in state.branches] == want
    total = 0.0
    for a in want:
        total += abs(real[words.index(a)] - ideal[words.index(a)])
    for r in states[0]:
        for s in states[1]:
            assert mt.cq_trace_distance(r, s) == 0.5 * total


def test_equal_strings_distance_ignores_hash_seed():
    # set iteration order of str values follows PYTHONHASHSEED; the
    # distance must not: 0.3 + 0.1 + 0.2 and 0.3 + 0.2 + 0.1 differ
    import subprocess
    import sys

    script = (
        "from qkdsec import qstate as qs, metrics as mt\n"
        "regs = [('x', ('0', '1', 1)), ('y', (2,))]\n"
        "r = qs.make_classical_cq(regs, [(('0', 2), 0.3), (('1', 2), 0.1), ((1, 2), 0.2)])\n"
        "s = qs.make_classical_cq(regs, [])\n"
        "print(mt.cq_trace_distance(r, s).hex(), mt.cq_trace_distance(s, r).hex())\n")
    out = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out.add(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                               capture_output=True, text=True).stdout)
    assert out == {f"{(0.5 * (0.3 + 0.1 + 0.2)).hex()} {(0.5 * (0.3 + 0.1 + 0.2)).hex()}\n"}


def test_codes_beyond_int64():
    # 10^20 assignments do not fit an int64 code; Python int codes keep the
    # order, the errors and the distance
    from cq_oracle import oracle_distance

    regs = [(f"r{i}", tuple(range(10))) for i in range(20)]
    rng = np.random.default_rng(3)
    words = [tuple(rng.integers(0, 10, 20).tolist()) for _ in range(9)]
    r = qs.make_classical_cq(regs, [(a, 0.1) for a in words[:8]])
    s = qs.make_cq(regs, [(a, 0.1, 1.0) for a in words[2:]])
    assert r.codes.dtype == object
    # every alphabet is range(10), so alphabet order is numeric order
    assert [b.assignment for b in r.branches] == sorted(words[:8])
    assert mt.cq_trace_distance(r, s) == oracle_distance(r, s)
    assert len(qs.tensor_cq(r, s).branches) == 8 * 7
    with pytest.raises(qs.DuplicateAssignment):
        qs.make_classical_cq(regs, [(words[0], 0.1), (words[1], 0.1), (words[0], 0.1)])


def test_constructors_keep_branch_order():
    regs = [("K", (0, 1)), ("E", (2, 10))]
    # rest-major input, and an alphabet whose string order is not numeric
    pairs = [(k, e) for e in (10, 2) for k in (0, 1)]
    quantum = qs.make_cq(regs, [(a, 0.25, np.eye(2) / 2) for a in pairs], (2,))
    classical = qs.make_classical_cq(regs, [(a, 0.25) for a in pairs])
    states = [quantum, classical, qs.tensor_cq(classical, quantum),
              mt.uniform_key_twin(classical), mt.uniform_key_twin(quantum)]
    for state in states:
        keys = [tuple(map(qs.Register.index, state.registers, b.assignment))
                for b in state.branches]
        assert len(keys) > 1
        assert keys == sorted(keys)


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
    ident = qs.make_channel([np.eye(2)])
    out = qs.apply_channel(ident, state, 0)
    assert np.abs(out.matrix - state.matrix).max() <= 1e-12
    dep = qs.depolarizing_channel(1.0)
    out = qs.apply_channel(dep, qs.pure_state([1, 0]), 0)
    assert np.abs(out.matrix - np.eye(2) / 2).max() <= 1e-12
    with pytest.raises(qs.DimMismatch):
        qs.apply_channel(ident, qs.maximally_mixed(3), 0)


@pytest.mark.parametrize("kraus", [0, -1])
def test_random_channel_needs_a_kraus_operator(kraus):
    with pytest.raises(qs.DimMismatch, match="kraus >= 1"):
        qs.random_channel(1, 3, kraus=kraus)


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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=6))
def test_random_density_always_valid(seed, dim):
    state = qs.random_density(seed, dim, 1 + seed % dim)
    # the construction invariants hold again on the state's own matrix
    again = qs.make_density(state.matrix, state.dims)
    assert abs(again.trace_mass - state.trace_mass) <= TRACE_TOL


def _loop_codes(sizes, columns):
    # the mixed-radix codes one register at a time, as Python ints
    codes = [0] * (len(columns[0]) if len(columns) else 0)
    for size, column in zip(sizes, columns):
        codes = [code * size + int(i) for code, i in zip(codes, column)]
    return codes


_CODE_REGS = [("b", tuple(range(5))), ("m", ("p", "q", "r")), ("t", tuple(range(7)))]


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, np.int64])
@pytest.mark.parametrize("rows", [0, 1, 9, 40])
def test_validated_codes_match_the_per_register_loop(dtype, rows):
    regs = qs._registers(_CODE_REGS)
    sizes = [len(r.alphabet) for r in regs]
    rng = np.random.default_rng([rows, np.dtype(dtype).itemsize])
    words = rng.permutation(np.prod(sizes))[:rows]
    columns = np.array(np.unravel_index(words, sizes), dtype=dtype).reshape(3, rows)
    codes, order, weights = qs._validated(regs, columns, np.full(rows, 1.0 / 64))
    want = _loop_codes(sizes, columns)
    assert codes.dtype == np.int64 and codes.tolist() == want
    assert order.tolist() == sorted(range(rows), key=want.__getitem__)
    assert weights.tolist() == [1.0 / 64] * rows


def test_validated_codes_with_no_registers():
    codes, order, _ = qs._validated((), [], [0.5])
    assert codes.dtype == np.int64 and codes.tolist() == [0] and order.tolist() == [0]
    codes, _, _ = qs._validated((), np.empty((0, 0), dtype=np.uint8), [])
    assert codes.tolist() == []
    with pytest.raises(qs.DuplicateAssignment, match=r"assignment \(\) appears twice"):
        qs._validated((), [], [0.25, 0.25])


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, np.int64])
def test_validated_names_the_first_index_outside_its_alphabet(dtype):
    regs = qs._registers(_CODE_REGS)
    columns = np.array([[0, 1, 4, 2], [0, 2, 1, 0], [6, 0, 3, 5]], dtype=dtype)
    weights = [0.25] * 4
    bad = [(1, 2, 3, "m")]  # the alphabet size itself
    if np.dtype(dtype).kind == "i":
        bad.append((0, 2, -1, "b"))
    if dtype == np.uint64:
        bad.append((2, 0, 2**64 - 1, "t"))
    for r, row, value, name in bad:
        faulty = columns.copy()
        faulty[r, row] = value
        # a later fault in an earlier register does not change the one named
        faulty[0, 3] = 5
        size = len(regs[r].alphabet)
        with pytest.raises(qs.AlphabetMismatch) as caught:
            qs._validated(regs, faulty, weights)
        assert str(caught.value) == f"index {value} outside the {size} values of register {name}"
    with pytest.raises(qs.AlphabetMismatch, match="alphabet indices must be integers, got bool"):
        qs._validated(regs, columns.astype(bool), weights)
    repeated = columns.copy()
    repeated[:, 3] = repeated[:, 1]
    with pytest.raises(qs.DuplicateAssignment, match=r"assignment \(1, 'r', 0\) appears twice"):
        qs._validated(regs, repeated, weights)


@pytest.mark.parametrize("sizes, dtype", [([2] * 62, np.int64), ([2] * 63, object),
                                          ([2] * 62 + [1] * 8, np.int64)],
                         ids=["product-2-62", "product-2-63", "70-registers"])
def test_validated_codes_beyond_int64_are_python_ints(sizes, dtype):
    # 2^63 assignments do not fit an int64 code; numpy's index arrays stop
    # at 64 dimensions, so 70 registers of product 2^62 take the loop
    registers = len(sizes)
    regs = tuple(qs.Register(f"r{i}", tuple(range(size))) for i, size in enumerate(sizes))
    rng = np.random.default_rng(registers)
    columns = rng.integers(0, 2, size=(registers, 6)) * (np.array(sizes)[:, None] - 1)
    codes, order, _ = qs._validated(regs, columns, [0.125] * 6)
    want = _loop_codes(sizes, columns)
    assert codes.dtype == dtype and codes.tolist() == want
    assert order.tolist() == sorted(range(6), key=want.__getitem__)
    columns[registers - 1, 2] = sizes[-1]
    with pytest.raises(qs.AlphabetMismatch,
                       match=rf"index {sizes[-1]} outside the {sizes[-1]} values of register "
                             rf"r{registers - 1}$"):
        qs._validated(regs, columns, [0.125] * 6)
