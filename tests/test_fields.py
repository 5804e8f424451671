import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from opalg import (
    EuclideanLattice,
    MassShellGrid,
    NumericalError,
    TestFunction,
    WightmanEvaluator,
    chronological_reorder,
    commutator_identity_check,
    klein_gordon_residual,
    l_form,
    mass_kernel_witness,
    parse_scenario,
    pauli_jordan,
    pauli_jordan_minus,
    run_scenario,
    shell_bilinear_form,
    tau_decompose,
    three_momentum_form,
    wightman_n_point,
)

GRID = MassShellGrid(1.0, cutoff=4.0, points=13)   # small grid for unit tests


def _random_real_test_function(grid, rng):
    pos = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    neg = np.conj(pos[grid.flip])
    return TestFunction(grid, pos, neg)


def test_grid_is_symmetric_with_positive_weights():
    assert np.max(np.abs(GRID.momenta + GRID.momenta[GRID.flip])) == 0.0
    assert np.all(GRID.weights > 0.0)
    assert np.all(GRID.omega >= GRID.mass)
    assert np.array_equal(GRID.flip[GRID.flip], np.arange(GRID.size))


def test_grid_parameter_validation():
    with pytest.raises(ValueError):
        MassShellGrid(0.0)
    with pytest.raises(ValueError):
        MassShellGrid(1.0, points=8)


def test_equal_time_pauli_jordan_vanishes_exactly():
    for x_vec in ([0.0, 0.3, -0.7, 0.2], [0.0, 1.0, 0.0, 0.0]):
        assert pauli_jordan(GRID, x_vec) == 0.0


def test_pauli_jordan_minus_translation_invariance_of_two_point():
    ev = WightmanEvaluator(GRID)
    x = np.array([0.3, 0.1, -0.2, 0.5])
    y = np.array([-0.2, 0.4, 0.3, 0.0])
    shift = np.array([0.7, -0.3, 0.2, 0.1])
    assert abs(ev.two_point(x, y) - ev.two_point(x + shift, y + shift)) <= 1e-12


def test_klein_gordon_residual_refines_quadratically():
    grid = MassShellGrid(1.0, cutoff=6.0, points=33)
    x = np.array([0.37, 0.21, -0.45, 0.11])
    coarse = klein_gordon_residual(grid, x, 0.08)
    fine = klein_gordon_residual(grid, x, 0.04)
    assert 3.2 <= coarse / fine <= 4.8


def test_shell_form_zero_and_single_point():
    zero = TestFunction(GRID, np.zeros(GRID.size), np.zeros(GRID.size))
    psi = _random_real_test_function(GRID, np.random.default_rng(71))
    assert shell_bilinear_form(GRID, psi, zero) == 0.0
    # unit excitation at p = 0: the form returns exactly the weight dp^3/omega
    origin = int(np.argmin(GRID.omega))
    pos = np.zeros(GRID.size, dtype=complex)
    pos[origin] = 1.0
    bump = TestFunction(GRID, pos, pos.copy())
    value = shell_bilinear_form(GRID, bump, bump)
    assert value.real == pytest.approx(GRID.spacing**3 / GRID.mass, abs=1e-15)
    assert value.imag == 0.0


def test_shell_form_positivity_on_real_test_functions():
    rng = np.random.default_rng(72)
    for _ in range(100):
        psi = _random_real_test_function(GRID, rng)
        val = shell_bilinear_form(GRID, psi, psi)
        scale = float(np.max(np.abs(psi.pos))) ** 2
        assert val.real >= -1e-12 * scale
        assert abs(val.imag) <= 1e-12 * scale


def test_shell_form_degeneracy_witness():
    # a profile vanishing on the shell restricts to zero sheet data: the form
    # cannot see it although the profile is nonzero off shell
    def off_shell(p0, p):
        return p0 * p0 - np.sum(p * p, axis=1) - GRID.mass**2

    psi = TestFunction.from_profile(GRID, off_shell)
    assert np.max(np.abs(psi.pos)) <= 1e-12
    assert abs(shell_bilinear_form(GRID, psi, psi)) <= 1e-20
    assert abs(off_shell(np.array([0.0]), np.zeros((1, 3)))[0]) == GRID.mass**2


def test_grid_mismatch_rejected():
    from opalg import ShapeMismatchError

    other = MassShellGrid(1.0, cutoff=4.0, points=9)
    psi = _random_real_test_function(GRID, np.random.default_rng(79))
    phi = _random_real_test_function(other, np.random.default_rng(80))
    with pytest.raises(ShapeMismatchError):
        shell_bilinear_form(GRID, psi, phi)


def test_reality_constraint_enforced():
    pos = np.zeros(GRID.size, dtype=complex)
    pos[0] = 1.0
    neg = np.zeros(GRID.size, dtype=complex)   # misses the mirrored entry
    with pytest.raises(ValueError):
        TestFunction(GRID, pos, neg)


def test_tau_decompose_even_and_odd_data():
    rng = np.random.default_rng(73)
    psi = _random_real_test_function(GRID, rng)
    even = psi.even_part()
    odd = psi.odd_part()
    tau_plus_even, tau_minus_even = tau_decompose(GRID, even)
    assert np.max(np.abs(tau_minus_even)) == 0.0
    tau_plus_odd, tau_minus_odd = tau_decompose(GRID, odd)
    assert np.max(np.abs(tau_plus_odd)) == 0.0
    assert np.max(np.abs(tau_minus_odd)) > 0.0


def test_tau_components_orthogonal_under_l_form():
    rng = np.random.default_rng(74)
    for _ in range(10):
        psi = _random_real_test_function(GRID, rng)
        phi = _random_real_test_function(GRID, rng)
        cross = l_form(GRID, psi.even_part(), phi.odd_part())
        scale = max(float(np.max(np.abs(psi.pos))), float(np.max(np.abs(phi.pos)))) ** 2
        assert abs(cross) <= 1e-10 * scale


def test_tau_plus_isometry():
    rng = np.random.default_rng(75)
    for _ in range(10):
        psi = _random_real_test_function(GRID, rng)
        even = psi.even_part()
        tau_plus, _ = tau_decompose(GRID, psi)
        lhs = three_momentum_form(GRID, tau_plus, tau_plus)
        rhs = l_form(GRID, even, even)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_tau_minus_isometry():
    rng = np.random.default_rng(76)
    for _ in range(10):
        psi = _random_real_test_function(GRID, rng)
        odd = psi.odd_part()
        _, tau_minus = tau_decompose(GRID, psi)
        lhs = three_momentum_form(GRID, tau_minus, tau_minus)
        rhs = l_form(GRID, odd, odd)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_wightman_odd_orders_vanish():
    x = np.array([0.1, 0.2, 0.3, 0.4])
    assert wightman_n_point(GRID, [x]) == 0.0
    assert wightman_n_point(GRID, [x, x, x]) == 0.0


def test_wightman_two_point_at_coincident_arguments():
    x = np.array([0.1, -0.2, 0.3, 0.0])
    got = wightman_n_point(GRID, [x, x])
    # direct grid sum oracle at separation zero
    expected = 0.5 * (2 * np.pi) ** -3 * np.sum(GRID.weights)
    assert got == pytest.approx(expected + 0.0j, abs=1e-12)


def test_wightman_four_point_is_three_pairings():
    ev = WightmanEvaluator(GRID)
    pts = [np.array([0.1 * k, 0.2, -0.1 * k, 0.3]) for k in range(4)]
    got = ev(pts)
    expected = (
        ev.two_point(pts[0], pts[1]) * ev.two_point(pts[2], pts[3])
        + ev.two_point(pts[0], pts[2]) * ev.two_point(pts[1], pts[3])
        + ev.two_point(pts[0], pts[3]) * ev.two_point(pts[1], pts[2])
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_four_point_two_point_consistency():
    ev = WightmanEvaluator(GRID)
    x = np.array([0.2, 0.1, 0.0, -0.3])
    y = np.array([-0.1, 0.4, 0.2, 0.1])
    lhs = ev([x, x, y, y])
    rhs = 2.0 * ev.two_point(x, y) ** 2 + ev.two_point(x, x) * ev.two_point(y, y)
    assert abs(lhs - rhs) <= 1e-10


def test_pair_scale_threads_non_fock_covariance():
    ev1 = WightmanEvaluator(GRID, pair_scale=1.0)
    ev2 = WightmanEvaluator(GRID, pair_scale=2.25)
    pts = [np.array([0.1 * k, 0.0, 0.2, -0.1]) for k in range(4)]
    assert ev2(pts) == pytest.approx(2.25**2 * ev1(pts), rel=1e-12)


def test_commutator_identity():
    rng = np.random.default_rng(77)
    for _ in range(10):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        assert commutator_identity_check(GRID, x, y) <= 1e-10
    x = np.array([0.5, 0.1, 0.2, 0.3])
    assert commutator_identity_check(GRID, x, x) <= 1e-15
    # equal time, different space: both sides vanish
    y = np.array([0.5, -0.4, 0.0, 0.8])
    assert abs(pauli_jordan(GRID, x - y)) == 0.0


def test_mass_witness_separates_shell_forms():
    report = mass_kernel_witness(1.0, 2.0, cutoff=6.0, points=33)
    assert report.verdict == "inequivalent"
    assert report.separation_ratio >= 1e4
    assert report.value_on_first_shell <= 1e-8 * report.value_on_second_shell
    assert report.value_on_second_shell >= 0.1 * report.value_on_second_shell


def test_mass_witness_symmetry_and_degenerate_cases():
    forward = mass_kernel_witness(1.0, 2.0, cutoff=6.0, points=17)
    backward = mass_kernel_witness(2.0, 1.0, cutoff=6.0, points=17)
    assert forward.verdict == backward.verdict == "inequivalent"
    assert forward.separation_ratio >= 1e4
    assert backward.separation_ratio >= 1e4
    same = mass_kernel_witness(1.0, 1.0)
    assert same.verdict == "equivalent-by-construction"
    close = mass_kernel_witness(1.0, 1.0 + 1e-9, cutoff=6.0, points=17)
    assert close.verdict == "undecided"
    assert "resolution" in close.hint


def test_euclidean_propagator_even_and_decaying():
    lattice = EuclideanLattice(1.0, cutoff=6.0, points=17)
    rng = np.random.default_rng(78)
    for _ in range(5):
        x = rng.normal(size=4)
        assert lattice.propagator(x) == lattice.propagator(-x)
    values = [lattice.propagator(np.array([t, 0.0, 0.0, 0.0]))
              for t in (0.15, 0.3, 0.45, 0.6)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_euclidean_green_identity_residual_refines():
    coarse = EuclideanLattice(1.0, cutoff=6.0, points=9).green_identity_residual()
    mid = EuclideanLattice(1.0, cutoff=6.0, points=17).green_identity_residual()
    assert mid <= 0.05
    assert mid < coarse


def test_chronological_reorder_small_orders():
    ev = WightmanEvaluator(GRID)
    x = np.array([0.4, 0.1, 0.0, 0.2])
    y = np.array([-0.3, 0.2, 0.1, 0.0])
    assert chronological_reorder([x], ev) == ev([x])
    # later-first ordering survives as the single theta term
    assert chronological_reorder([x, y], ev) == pytest.approx(ev([x, y]), rel=1e-12)
    swapped = chronological_reorder([y, x], ev)
    assert swapped == pytest.approx(chronological_reorder([x, y], ev), rel=1e-12)


def test_chronological_reorder_coincident_times():
    ev = WightmanEvaluator(GRID)
    x = np.array([0.2, 0.5, 0.0, 0.0])
    y = np.array([0.2, -0.1, 0.3, 0.0])
    got = chronological_reorder([x, y], ev)
    expected = 0.5 * (ev([x, y]) + ev([y, x]))
    assert got == pytest.approx(expected, rel=1e-12)


def test_chronological_reorder_symmetric_in_arguments():
    ev = WightmanEvaluator(GRID)
    pts = [np.array([0.3, 0.1, 0.0, 0.0]),
           np.array([-0.2, 0.0, 0.4, 0.1]),
           np.array([0.1, 0.2, -0.1, 0.3])]
    base = chronological_reorder(pts, ev)
    swapped = chronological_reorder([pts[1], pts[0], pts[2]], ev)
    assert abs(base - swapped) <= 1e-12 * max(abs(base), 1.0)


def test_chronological_reorder_rejects_large_orders():
    ev = WightmanEvaluator(GRID)
    with pytest.raises(NumericalError):
        chronological_reorder([np.zeros(4)] * 7, ev)


# The folded sums and the full-grid oracles add the same terms in another
# order, with each phase split into per-axis cosines.  For |x_i| <= 2 and a
# cutoff <= 6 every phase is below 60 in size, so each term carries a relative
# error of a few times 60 ulp (~1e-14); the summation adds about log2(N^4) ulp.
# 1e-13 (about 450 ulp) times the sum of the absolute values of the terms
# bounds both with room to spare.
FOLD_TOL = 1e-13

# That relative model stops at underflow: a product that lands below the
# smallest normal double is rounded to a multiple of the smallest subnormal s,
# an absolute error of up to s/2 however small the exact value (additions of
# subnormals are exact).  D(x) at |x0| ~ 1e-308 is such a case: sin(omega x0)
# is subnormal, and each full-grid term takes up to 3 such roundings, each
# folded term up to 5.  8 s per full-grid point covers both sums; it is below
# 1e-316 on every grid here, so it cannot hide an error in a normal-range value.
UNDERFLOW_PER_POINT = 8 * np.finfo(float).smallest_subnormal

coordinates = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
four_vectors = st.lists(coordinates, min_size=4, max_size=4).map(np.array)


@settings(max_examples=80, deadline=None)
@given(points=st.integers(1, 10).map(lambda k: 2 * k + 1), mass=st.floats(0.1, 3.0),
       cutoff=st.floats(0.5, 6.0), x=four_vectors)
@example(points=3, mass=1.0, cutoff=4.0, x=np.zeros(4))
@example(points=21, mass=0.5, cutoff=6.0, x=np.array([0.0, 0.0, 1.3, 0.0]))
@example(points=9, mass=2.0, cutoff=3.0, x=np.array([1.1, 0.0, 0.0, 0.0]))
@example(points=7, mass=1.0, cutoff=1.0, x=np.array([2.2250738585072014e-308, 0.0, 0.0, 0.0]))
def test_folded_shell_sums_match_the_full_grid(points, mass, cutoff, x):
    grid = MassShellGrid(mass, cutoff, points)
    underflow = UNDERFLOW_PER_POINT * points**3
    for folded, by_grid in ((pauli_jordan_minus, oracles.pauli_jordan_minus_by_grid),
                            (pauli_jordan, oracles.pauli_jordan_by_grid)):
        want, scale = by_grid(grid, x)
        assert abs(folded(grid, x) - want) <= FOLD_TOL * scale + underflow


@settings(max_examples=60, deadline=None)
@given(points=st.integers(1, 5).map(lambda k: 2 * k + 1), mass=st.floats(0.1, 3.0),
       cutoff=st.floats(0.5, 6.0), x=four_vectors)
@example(points=3, mass=1.0, cutoff=6.0, x=np.zeros(4))
@example(points=11, mass=0.3, cutoff=6.0, x=np.array([0.0, 0.0, 0.0, 1.7]))
def test_folded_euclidean_propagator_matches_the_full_grid(points, mass, cutoff, x):
    lattice = EuclideanLattice(mass, cutoff, points)
    want, scale = oracles.euclidean_propagator_by_grid(lattice, x)
    assert abs(lattice.propagator(x) - want) <= FOLD_TOL * scale


@settings(max_examples=40, deadline=None)
@given(points=st.integers(1, 10).map(lambda k: 2 * k + 1), cutoff=st.floats(1.0, 6.0),
       first=st.floats(0.05, 0.95), second=st.floats(0.05, 0.95))
@example(points=17, cutoff=6.0, first=1 / 6, second=2 / 6)
def test_folded_witness_shell_values_match_the_full_grid(points, cutoff, first, second):
    mass_first, mass_second = first * cutoff, second * cutoff
    assume(abs(mass_first - mass_second) >= 2 * cutoff / (points - 1) / 10.0)
    report = mass_kernel_witness(mass_first, mass_second, cutoff, points)
    want = oracles.witness_shell_values_by_grid(mass_first, mass_second, cutoff, points)
    got = (report.value_on_first_shell, report.value_on_second_shell)
    for value, reference in zip(got, want):
        assert abs(value - reference) <= FOLD_TOL * reference


# Each time-dependent phase is evaluated once per distinct shell frequency and
# gathered onto the octant, and the Klein-Gordon stencil shares one sheet per
# time slice.  Both do the arithmetic of the per-point oracles in the same
# order, so the values must be equal, not merely close.
@st.composite
def repeating_four_vectors(draw):
    pool = draw(st.lists(coordinates, min_size=1, max_size=4))
    return np.array([draw(st.sampled_from(pool)) for _ in range(4)])


odd_points = st.integers(1, 20).map(lambda k: 2 * k + 1)


@settings(max_examples=60, deadline=None)
@given(points=odd_points, mass=st.floats(0.1, 3.0), cutoff=st.floats(0.5, 6.0),
       x=repeating_four_vectors(), h=st.floats(0.01, 0.5))
@example(points=41, mass=1.0, cutoff=6.0, x=np.array([0.37, 0.21, -0.45, 0.11]), h=0.08)
@example(points=3, mass=1.0, cutoff=4.0, x=np.zeros(4), h=0.04)
@example(points=33, mass=0.8, cutoff=6.0, x=np.array([-1.5, -1.5, -1.5, -1.5]), h=0.5)
@example(points=29, mass=1.2, cutoff=6.0, x=np.array([-0.0, 0.3, 0.3, -0.0]), h=0.04)
def test_shell_sums_equal_the_per_point_oracles(points, mass, cutoff, x, h):
    grid = MassShellGrid(mass, cutoff, points)
    assert pauli_jordan_minus(grid, x) == oracles.pauli_jordan_minus_by_octant(grid, x)
    assert pauli_jordan(grid, x) == oracles.pauli_jordan_by_octant(grid, x)
    assert klein_gordon_residual(grid, x, h) == oracles.klein_gordon_residual_by_octant(grid, x, h)


@settings(max_examples=40, deadline=None)
@given(points=odd_points, mass=st.floats(0.1, 3.0), cutoff=st.floats(0.5, 6.0))
@example(points=41, mass=1.0, cutoff=6.0)
def test_shell_index_rebuilds_octant_omega_bitwise(points, mass, cutoff):
    grid = MassShellGrid(mass, cutoff, points)
    values, index = grid.shells
    assert np.all(np.diff(values) > 0.0)
    assert index.shape == grid.octant_omega.shape
    assert np.array_equal(values[index].view(np.uint64), grid.octant_omega.view(np.uint64))


def test_shells_are_far_fewer_than_octant_points():
    # omega depends on p only through p^2 = spacing^2 (k1^2 + k2^2 + k3^2)
    grid = MassShellGrid(1.0, 6.0, 41)
    assert grid.octant_omega.size == 21**3
    assert grid.shells[0].size == 1007


def test_large_field_scenario_runs_in_bounded_memory():
    # the full N^3 x 3 and N^4 x 4 momentum arrays of these sizes would take
    # several hundred MB; the octant sums stay far below
    text = ("kind: field\nfield:\n  mass: 1.0\n  second_mass: 2.0\n  points: 121\n"
            "  sample_points: [[0.1, 0.2, -0.3, 0.4], [-0.2, 0.1, 0.0, 0.3]]\n"
            "  euclidean: {points: 51}\n")
    scenario = parse_scenario(text)
    tracemalloc.start()
    try:
        report = run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "FAIL" not in report.render()
    assert peak < 40 << 20
