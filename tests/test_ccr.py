import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from opalg import (
    CcrSpace,
    ConstantEigenvalues,
    FiniteEigenvalues,
    NumericalError,
    PowerTailEigenvalues,
    Scenario,
    ShapeMismatchError,
    ValidationError,
    build_fock_operators,
    gaussian_equivalence_verdict,
    moment_oracle,
    pair_partitions,
    parse_scenario,
    quasi_invariance_exponent,
    quasi_invariance_factor,
    run_scenario,
    wick_moment,
)


def _random_space(rng, n):
    a = rng.normal(size=(n, n))
    gram = a @ a.T + n * np.eye(n)
    k = np.eye(n) + 0.4 * rng.normal(size=(n, n))
    return CcrSpace(gram, k)


def unit_space(n):
    return CcrSpace(np.eye(n), np.eye(n))


def test_pair_partition_counts():
    # (m-1)!! pairings for even m
    assert sum(1 for _ in pair_partitions(2)) == 1
    assert sum(1 for _ in pair_partitions(4)) == 3
    assert sum(1 for _ in pair_partitions(6)) == 15
    assert sum(1 for _ in pair_partitions(8)) == 105


def test_pair_partitions_are_ordered_and_cover():
    for partition in pair_partitions(6):
        flat = [i for pair in partition for i in pair]
        assert sorted(flat) == list(range(6))
        assert all(i < j for i, j in partition)
    for m in range(11):
        assert list(pair_partitions(m)) == list(oracles.pair_partitions_by_recursion(tuple(range(m))))


def test_ccr_space_validation():
    with pytest.raises(ValueError):
        CcrSpace(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError):
        CcrSpace(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CcrSpace(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))


@pytest.mark.parametrize("scale", ["1e155", "1e-155"])
def test_ccr_space_out_of_double_range_is_a_schema_error(scale):
    # K = 1e155 I overflows S = K K*; K = 1e-155 I has condition number 1, but
    # its covariance K^-T G K^-1 overflows.  Either used to reach a report
    # (cocycle residual nan, or a vacuous pass) with numpy warnings on the way
    text = f"kind: ccr\nspace:\n  gram: [[1, 0], [0, 1]]\n  k: [[{scale}, 0], [0, {scale}]]\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
    assert (err.value.path, err.value.line) == ("space", 3)
    assert str(err.value).endswith("S = K K*, K^-1 or the covariance leaves double range")


def test_wick_moment_examples():
    space = unit_space(2)
    q = np.array([1.0, 2.0])
    assert wick_moment(space, [q]) == 0.0
    qp = np.array([0.5, -1.0])
    assert wick_moment(space, [q, qp]) == pytest.approx(oracles.pair_value(space, q, qp),
                                                        abs=1e-14)
    # oracle: the 3 pairings of (q,q,q,q) each contribute pair(q,q)^2
    expected = 3.0 * oracles.pair_value(space, q, q) ** 2
    assert wick_moment(space, [q, q, q, q]) == pytest.approx(expected, rel=1e-14)


def test_wick_moment_with_unit_pairs_counts_partitions():
    space = unit_space(1)
    q = np.array([1.0])
    for m, count in ((2, 1), (4, 3), (6, 15)):
        assert wick_moment(space, [q] * m) == pytest.approx(count, rel=1e-12)


def test_moment_oracle_basics():
    space = unit_space(2)
    assert moment_oracle(space, []) == 1.0
    assert moment_oracle(space, [np.array([1.0, 0.0])]) == 0.0
    with pytest.raises(NumericalError):
        moment_oracle(space, [np.array([1.0, 0.0])] * 7)


def test_vector_dimension_mismatch_rejected():
    from opalg import ShapeMismatchError

    space = unit_space(2)
    with pytest.raises(ShapeMismatchError):
        wick_moment(space, [np.array([1.0, 0.0, 0.0])] * 2)
    with pytest.raises(ShapeMismatchError):
        quasi_invariance_factor(space, np.zeros(3), np.zeros(2))


def test_moment_oracle_matches_wick_on_random_instances():
    rng = np.random.default_rng(61)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        space = _random_space(rng, n)
        for m in (2, 4, 6):
            args = [rng.normal(size=n) for _ in range(m)]
            wick = wick_moment(space, args)
            oracle = moment_oracle(space, args)
            assert abs(wick - oracle) <= 1e-6 * max(abs(wick), 1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_wick_moment_and_oracle_equal_their_loops(n, seed):
    # the array forms do the same arithmetic as the per-pairing and per-level loops
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n)
    for m in range(9):
        args = [rng.normal(size=n) for _ in range(m)]
        assert wick_moment(space, args) == oracles.wick_by_partitions(space, args)
        if m % 2 == 0 and 2 <= m <= 6:
            assert moment_oracle(space, args) == oracles.moment_oracle_by_levels(space, args)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-4, 1e-2, 1.0, 1e2, 1e4]))
def test_moment_tables_equal_the_loops_row_by_row(n, count, seed, scale):
    # the table of one call is the per-pairing and per-level loops of each row;
    # rows repeat vectors, and a zero vector (zero K^-1 image) gives 0.0 rows
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    space = CcrSpace(a @ a.T + n * np.eye(n), scale * (np.eye(n) + 0.4 * rng.normal(size=(n, n))))
    vectors = [rng.normal(size=n) for _ in range(count)] + [np.zeros(n)]
    for m in (2, 4, 6):
        index = rng.integers(0, count + 1, size=(6, m))
        index[0] = 0                                    # one vector m times
        index[1] = 0
        index[1, 1] = count                             # the zero vector next to it
        wick = wick_moment(space, vectors, index)
        oracle = moment_oracle(space, vectors, index)
        assert wick.shape == oracle.shape == (6,)
        for row, wv, ov in zip(index, wick.tolist(), oracle.tolist()):
            args = [vectors[i] for i in row]
            assert wv == oracles.wick_by_partitions(space, args)
            assert ov == oracles.moment_oracle_by_levels(space, args)
            if count in row:
                assert wv == ov == 0.0 and math.copysign(1.0, ov) == 1.0


def test_moment_tables_check_their_multi_indices():
    space = unit_space(2)
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
    assert wick_moment(space, vectors, np.zeros((0, 2), dtype=int)).shape == (0,)
    assert moment_oracle(space, vectors, np.zeros((3, 0), dtype=int)).tolist() == [1.0] * 3
    for index in ([0, 1], [[0.0, 1.0]]):
        with pytest.raises(ShapeMismatchError):
            wick_moment(space, vectors, index)
    for index in ([[0, 2]], [[-1, 0]]):
        with pytest.raises(ValueError):
            moment_oracle(space, vectors, index)


@pytest.mark.parametrize("wick, oracle", [(math.inf, math.inf), (math.nan, 1.0)])
def test_a_non_finite_moment_row_fails_the_cross_validation(wick, oracle, monkeypatch):
    # the relative residual of such a row is nan, which max(worst, rel) dropped:
    # the worst_rel line read pass beside it
    from opalg import ccr
    from opalg.scenarios import KINDS

    def first_row(table, value):
        def patched(space, vectors, index):
            out = table(space, vectors, index)
            out[0] = value
            return out
        return patched

    monkeypatch.setattr(ccr, "wick_moment", first_row(ccr.wick_moment, wick))
    monkeypatch.setattr(ccr, "moment_oracle", first_row(ccr.moment_oracle, oracle))
    report = run_scenario(parse_scenario(KINDS["ccr"].demo))
    _, rows = report.tables["moments"]
    assert math.isnan(rows[0][3]) and any(math.isfinite(row[3]) for row in rows)
    worst = next(line for line in report.lines
                 if line.startswith("moment_cross_validation_worst_rel = "))
    assert worst.startswith("moment_cross_validation_worst_rel = +nan") and worst.endswith(" FAIL")


def test_stacked_quasi_invariance_factor_matches_single_calls():
    rng = np.random.default_rng(69)
    for n in (1, 3, 5):
        space = _random_space(rng, n)
        q, u = rng.normal(size=(2, 4, 3, n))
        stacked = quasi_invariance_factor(space, q, u)
        assert stacked.shape == (4, 3)
        single = np.array([[quasi_invariance_factor(space, a, b) for a, b in zip(*rows)]
                           for rows in zip(q, u)])
        assert np.max(np.abs(stacked - single) / np.abs(single)) <= 1e-13
        # one vector broadcast against a stack
        spread = quasi_invariance_factor(space, q[0, 0], u)
        single = np.array([[quasi_invariance_factor(space, q[0, 0], b) for b in rows] for rows in u])
        assert np.max(np.abs(spread - single) / np.abs(single)) <= 1e-13
        with pytest.raises(ShapeMismatchError):
            quasi_invariance_factor(space, np.zeros((4, n + 1)), np.zeros((4, n + 1)))
        with pytest.raises(ShapeMismatchError):
            quasi_invariance_factor(space, np.zeros((4, n)), np.zeros((4, n + 1)))


def test_quasi_invariance_at_zero():
    rng = np.random.default_rng(62)
    space = _random_space(rng, 3)
    u = rng.normal(size=3)
    assert quasi_invariance_factor(space, np.zeros(3), u) == 1.0


def test_cocycle_identity_random_triples():
    rng = np.random.default_rng(63)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        space = _random_space(rng, n)
        q, qp, u = (rng.normal(size=n) for _ in range(3))
        lhs = quasi_invariance_factor(space, q + qp, u)
        rhs = (quasi_invariance_factor(space, q, u)
               * quasi_invariance_factor(space, qp, u + space.gram_image(q)))
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst <= 1e-10


def test_cocycle_check_fails_when_the_factors_overflow():
    # K = 1e5 I: every sample's a(q + q', u) overflows to inf or underflows to
    # 0, but their exponents stay finite, so all 100 samples are judged and
    # the rounding of exponents near 1e10 fails the law
    space = CcrSpace(np.eye(2), 1e5 * np.eye(2))
    q, qp, u = np.random.default_rng(2024).normal(size=(100, 3, 2)).transpose(1, 0, 2)
    gap = (quasi_invariance_exponent(space, q, u)
           + quasi_invariance_exponent(space, qp, u + space.gram_image(q))
           - quasi_invariance_exponent(space, q + qp, u))
    assert gap.shape == (100,) and np.all(np.isfinite(gap))
    with np.errstate(over="ignore", under="ignore"):
        factor = quasi_invariance_factor(space, q + qp, u)
    assert np.all((factor == 0.0) | np.isinf(factor))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_scenario(Scenario("ccr", {"space": space}))
    worst = float(np.max(np.abs(np.expm1(gap))))
    assert 0.0 < worst < math.inf
    assert (f"cocycle_residual_rel = {worst:+.12e} [tol 1.0e-10 default, computed] FAIL"
            in report.lines)
    # K = 1e10 I: the gaps pass log(max double), so the residual reads inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_scenario(Scenario("ccr", {"space": CcrSpace(np.eye(2), 1e10 * np.eye(2))}))
    assert "cocycle_residual_rel = +inf [tol 1.0e-10 default, computed] FAIL" in report.lines


def test_cocycle_check_judges_the_samples_left_in_range():
    # K = 30 I: 54 of the 100 samples' factors leave double range; their
    # exponents do not, and all 100 satisfy the law to 1e-12
    space = CcrSpace(np.eye(2), 30.0 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_scenario(Scenario("ccr", {"space": space}))
    line = next(line for line in report.lines if line.startswith("cocycle_residual_rel"))
    assert line.endswith(" pass") and "inf" not in line


def test_cocycle_check_passes_on_finite_factors():
    report = run_scenario(Scenario("ccr", {"space": unit_space(3)}))
    line = next(line for line in report.lines if line.startswith("cocycle_residual_rel"))
    assert line.endswith(" pass") and "inf" not in line


def test_one_dimensional_shift_identity_by_quadrature():
    # K = sqrt(2): mu(u + u_q) = a_K(q, u)^2 mu(u), checked pointwise and in mass
    space = CcrSpace(np.eye(1), np.sqrt(2.0) * np.eye(1))
    sigma = math.sqrt(space.covariance[0, 0])
    grid = np.linspace(-8 * sigma, 8 * sigma, 4001)
    dens = np.array([oracles.gaussian_density(space, np.array([w])) for w in grid])
    mass = np.trapezoid(dens, grid)
    assert abs(mass - 1.0) <= 1e-6
    for q in (0.3, -1.2):
        shift = space.gram_image(np.array([q]))[0]
        worst = 0.0
        for w in grid[::40]:
            lhs = oracles.gaussian_density(space, np.array([w + shift]))
            rhs = quasi_invariance_factor(space, np.array([q]), np.array([w])) ** 2 \
                * oracles.gaussian_density(space, np.array([w]))
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-8


def test_gaussian_density_examples():
    space = unit_space(1)
    assert oracles.gaussian_density(space, np.array([0.0])) == pytest.approx(
        (2 * np.pi) ** -0.5, abs=1e-12)
    rng = np.random.default_rng(64)
    space3 = _random_space(rng, 3)
    w = rng.normal(size=3)
    assert oracles.gaussian_density(space3, w) == oracles.gaussian_density(space3, -w)


def test_gaussian_density_mass_in_two_dimensions():
    space = CcrSpace(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([[1.2, 0.1], [0.0, 0.9]]))
    sigmas = np.sqrt(np.diagonal(space.covariance))
    nx = 401
    xs = np.linspace(-8 * sigmas[0], 8 * sigmas[0], nx)
    ys = np.linspace(-8 * sigmas[1], 8 * sigmas[1], nx)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    sigma_inv = np.linalg.inv(space.covariance)
    quad = np.einsum("ki,ij,kj->k", pts, sigma_inv, pts)
    norm = (2 * np.pi) ** -1 * np.linalg.det(space.covariance) ** -0.5
    dens = (norm * np.exp(-0.5 * quad)).reshape(nx, nx)
    # vectorized evaluation must match the scalar entry point
    probe = pts[nx * nx // 3]
    assert oracles.gaussian_density(space, probe) == pytest.approx(
        float(norm * np.exp(-0.5 * probe @ sigma_inv @ probe)), rel=1e-10)
    mass = np.trapezoid(np.trapezoid(dens, ys, axis=1), xs)
    assert abs(mass - 1.0) <= 1e-6


def test_fock_ladder_entries():
    space = unit_space(1)
    fock = build_fock_operators(space, 3)
    up = fock.a_plus(np.array([1.0]))
    sub = [up[k + 1, k] for k in range(3)]
    assert sub == pytest.approx([1.0, math.sqrt(2.0), math.sqrt(3.0)], abs=1e-15)
    down = fock.a_minus(np.array([1.0]))
    assert np.array_equal(down, up.conj().T)


def test_fock_vacuum_and_number_operator():
    rng = np.random.default_rng(65)
    space = _random_space(rng, 3)
    fock = build_fock_operators(space, 5)
    vac = fock.vacuum()
    for k in range(3):
        q = np.zeros(3)
        q[k] = 1.0
        assert np.max(np.abs(fock.a_minus(q) @ vac)) == 0.0


def test_fock_commutator_exact_on_protected_subspace():
    rng = np.random.default_rng(66)
    space = unit_space(3)
    fock = build_fock_operators(space, 6)
    prot = fock.protected_indices()
    for _ in range(10):
        q = rng.normal(size=3)
        qp = rng.normal(size=3)
        comm = fock.a_minus(q) @ fock.a_plus(qp) - fock.a_plus(qp) @ fock.a_minus(q)
        defect = comm - space.inner(q, qp) * np.eye(fock.dim)
        # sqrt(k) round-off only; truncation leaks are confined to the boundary
        assert np.max(np.abs(defect[np.ix_(prot, prot)])) <= 1e-13


def test_fock_generating_function_second_moment():
    # K = sqrt(2) * identity gives Z_F with second moment <q|q>/2
    rng = np.random.default_rng(68)
    gram = np.eye(3)
    space = CcrSpace(gram, np.sqrt(2.0) * np.eye(3))
    for _ in range(10):
        q = rng.normal(size=3)
        got = moment_oracle(space, [q, q])
        assert abs(got - 0.5 * space.inner(q, q)) <= 1e-8


def test_fock_basis_size_guard():
    with pytest.raises(NumericalError):
        build_fock_operators(unit_space(4), 40)


@st.composite
def _small_fock_shapes(draw):
    """(n, n_max) with at most 500 basis states: C(n + n_max, n) is symmetric in the
    two, so draw the shorter side (C(12, 6) > 500 bounds it by 5), the longer, and
    which of them is n."""
    short = draw(st.integers(1, 5))
    longest = max(b for b in range(short, 500) if math.comb(short + b, short) <= 500)
    side = draw(st.integers(short, longest))
    return draw(st.sampled_from([(short, side), (side, short)]))


@settings(max_examples=60, deadline=None)
@given(shape=_small_fock_shapes())
def test_ranked_ladders_equal_the_tuple_enumeration(shape):
    n, n_max = shape
    fock = build_fock_operators(unit_space(n), n_max)
    states, raise_rows, lower_rows, raise_values = oracles.fock_ladders_by_tuples(n, n_max)
    assert fock.dim == len(states)
    assert np.array_equal(fock.occupations, np.array(states))
    assert np.array_equal(fock.raise_rows, raise_rows)
    assert np.array_equal(fock.lower_rows, lower_rows)
    assert np.array_equal(fock.raise_values, raise_values)


def test_fock_space_with_more_modes_than_the_recursion_limit():
    # one recursion level per mode overflowed the stack here
    n = sys.getrecursionlimit() + 100
    fock = build_fock_operators(CcrSpace(np.eye(n), np.eye(n)), 1)
    assert fock.dim == n + 1
    # e_{n-1}, ..., e_0 follow the vacuum in lexicographic order
    assert np.array_equal(fock.raise_rows[:, 0], n - np.arange(n))


def test_ccr_scenario_with_more_modes_than_the_recursion_limit():
    # built in code: parsing a document this size is slow; every mode's
    # annihilator is checked on the vacuum in one array expression
    n = sys.getrecursionlimit() + 100
    report = run_scenario(Scenario("ccr", {"space": CcrSpace(np.eye(n), np.eye(n)), "fock": 1}))
    checks = [line for line in report.lines if line.endswith((" pass", " FAIL"))]
    assert len(checks) == 3 and all(line.endswith(" pass") for line in checks)
    assert f"fock_basis_size = {n + 1} [computed]" in report.lines
    assert ("vacuum_annihilation = +0.000000000000e+00 [tol 0.0e+00 default, computed] pass"
            in report.lines)


def _traced_peak_mb(func):
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_fock_size_guard_runs_before_enumeration():
    # C(65, 5) = 8.3 million tuples: enumerating them would take over 1 GB
    def build():
        with pytest.raises(NumericalError, match="truncated basis of size 8259888 exceeds limit 5000"):
            build_fock_operators(unit_space(5), 60)
    assert _traced_peak_mb(build) < 1.0


def test_fock_build_and_defect_stay_small():
    # dense ladders for this basis (2002 states, 5 modes) and their transposes take 320 MB
    space = unit_space(5)
    q, qp = np.eye(5)[0], np.eye(5)[-1]
    defect = []
    peak = _traced_peak_mb(lambda: defect.append(
        build_fock_operators(space, 9).commutator_defect(q, qp)))
    assert defect == [0.0]
    assert peak < 16.0, f"peak {peak:.1f} MB"


def _dense_commutator_defect(fock, q, qp):
    """The dense reference: [a-(q), a+(q')] - <q, q'> I on the protected block."""
    comm = fock.a_minus(q) @ fock.a_plus(qp) - fock.a_plus(qp) @ fock.a_minus(q)
    defect = comm - fock.space.inner(q, qp) * np.eye(fock.dim)
    prot = fock.protected_indices()
    return float(np.max(np.abs(defect[np.ix_(prot, prot)])))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), n_max=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_index_array_ladders_match_dense_products(n, n_max, seed):
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n)
    fock = build_fock_operators(space, n_max)
    q, qp = rng.normal(size=n), rng.normal(size=n)
    scale = (1.0 + n_max) * max(1.0, float(np.sum(np.abs(space.mode_coefficients(q))))
                                * float(np.sum(np.abs(space.mode_coefficients(qp)))))
    defect = fock.commutator_defect(q, qp)
    assert defect <= 1e-13 * scale
    assert defect == oracles.commutator_defect_by_mode_pairs(fock, q, qp)
    assert abs(defect - _dense_commutator_defect(fock, q, qp)) <= 1e-13 * scale
    v = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    assert np.max(np.abs(fock.a_minus_action(q, v) - fock.a_minus(q) @ v)) <= 1e-13 * scale
    assert not np.any(fock.a_minus_action(q, fock.vacuum()))
    both = fock.a_minus_action(np.stack([q, qp]), v)
    assert np.max(np.abs(both - np.stack([fock.a_minus(q) @ v, fock.a_minus(qp) @ v]))) <= 1e-13 * scale
    # the same kernels on distorted ladder values, where the defect is of order one,
    # still agree with the dense products built from those values
    fock.raise_values = fock.raise_values * rng.uniform(0.5, 1.5, size=fock.raise_values.shape)
    dense = _dense_commutator_defect(fock, q, qp)
    assert abs(fock.commutator_defect(q, qp) - dense) <= 1e-13 * scale
    assert fock.commutator_defect(q, qp) == oracles.commutator_defect_by_mode_pairs(fock, q, qp)
    assert np.max(np.abs(fock.a_minus_action(q, v) - fock.a_minus(q) @ v)) <= 1e-13 * scale


# the Fock shapes of the benchmark's workloads, (n, n_max), up to 2002 basis states
WORKLOAD_FOCK_SHAPES = [(5, 9), (4, 10), (4, 8), (4, 7), (4, 6), (3, 8), (3, 6)]


@settings(max_examples=60, deadline=None)
@given(shape=st.one_of(st.sampled_from(WORKLOAD_FOCK_SHAPES),
                       st.tuples(st.integers(1, 5), st.integers(1, 9))),
       seed=st.integers(0, 2**32 - 1), distort=st.booleans())
def test_commutator_defect_equals_the_mode_pair_merge_at_workload_sizes(shape, seed, distort):
    # the entries are added without a merge in the order the oracle's merge adds
    # them, so the two agree bit for bit, on distorted ladder values too, where
    # the defect is of order one; the dense products are left out at these sizes
    n, n_max = shape
    rng = np.random.default_rng(seed)
    fock = build_fock_operators(_random_space(rng, n), n_max)
    if distort:
        fock.raise_values = fock.raise_values * rng.uniform(0.5, 1.5, size=fock.raise_values.shape)
    for q, qp in ((rng.normal(size=n), rng.normal(size=n)), (np.eye(n)[0], np.eye(n)[-1])):
        assert fock.commutator_defect(q, qp) == oracles.commutator_defect_by_mode_pairs(fock, q, qp)


def test_commutator_defect_merges_nothing(monkeypatch):
    fock = build_fock_operators(unit_space(4), 7)

    def refuse(*args, **kwargs):
        raise AssertionError("commutator_defect merged its entries")
    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(np, "bincount", refuse)
    assert fock.commutator_defect(np.eye(4)[0], np.eye(4)[-1]) == 0.0


def test_gaussian_equivalence_verdicts():
    assert gaussian_equivalence_verdict(ConstantEigenvalues(2.0)).verdict == "convergent"
    assert gaussian_equivalence_verdict(PowerTailEigenvalues(1.0, 2.0)).verdict == "convergent"
    const = gaussian_equivalence_verdict(ConstantEigenvalues(2 * 1.3**2))
    assert const.verdict == "divergent"
    slow = gaussian_equivalence_verdict(PowerTailEigenvalues(1.0, 0.9))
    assert slow.verdict == "divergent"
    finite = gaussian_equivalence_verdict(FiniteEigenvalues((1.0, 5.0, 0.1)))
    assert finite.verdict == "convergent"
    assert gaussian_equivalence_verdict(object()).verdict == "undecided"
