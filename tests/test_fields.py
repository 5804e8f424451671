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
    commutator_identity_check,
    klein_gordon_residuals,
    mass_kernel_witness,
    parse_scenario,
    pauli_jordan,
    pauli_jordan_minus,
    run_scenario,
)
from opalg.fields import OCTANT_POINT_LIMIT, _fold, _minus_sheet, _octant_sum

GRID = MassShellGrid(1.0, cutoff=4.0, points=13)   # small grid for unit tests


def test_grid_is_symmetric_with_positive_weights():
    momenta, flip = oracles.grid_momenta(GRID, 3), oracles.grid_flip(GRID)
    assert np.max(np.abs(momenta + momenta[flip])) == 0.0
    assert np.all(oracles.grid_weights(GRID) > 0.0)
    assert np.all(oracles.grid_omega(GRID) >= GRID.mass)
    assert np.array_equal(flip[flip], np.arange(GRID.points**3))


def test_grid_parameter_validation():
    with pytest.raises(ValueError):
        MassShellGrid(0.0)
    with pytest.raises(ValueError):
        MassShellGrid(1.0, points=8)


def test_equal_time_pauli_jordan_vanishes_exactly():
    for x_vec in ([0.0, 0.3, -0.7, 0.2], [0.0, 1.0, 0.0, 0.0]):
        assert pauli_jordan(GRID, x_vec) == 0.0


def test_pauli_jordan_minus_translation_invariance_of_two_point():
    x = np.array([0.3, 0.1, -0.2, 0.5])
    y = np.array([-0.2, 0.4, 0.3, 0.0])
    shift = np.array([0.7, -0.3, 0.2, 0.1])
    # x - y and (x + shift) - (y + shift) differ in the last bits
    assert abs(pauli_jordan_minus(GRID, x - y)
               - pauli_jordan_minus(GRID, (x + shift) - (y + shift))) <= 1e-12


def test_klein_gordon_residual_refines_quadratically():
    grid = MassShellGrid(1.0, cutoff=6.0, points=33)
    x = np.array([0.37, 0.21, -0.45, 0.11])
    coarse, fine = klein_gordon_residuals(grid, x, (0.08, 0.04))
    assert 3.2 <= coarse / fine <= 4.8


def test_wightman_two_point_at_coincident_arguments():
    x = np.array([0.1, -0.2, 0.3, 0.0])
    got = pauli_jordan_minus(GRID, x - x) / 1j    # W2(x, x) = D^-(0) / i
    # direct grid sum oracle at separation zero
    expected = 0.5 * (2 * np.pi) ** -3 * np.sum(oracles.grid_weights(GRID))
    assert got == pytest.approx(expected + 0.0j, abs=1e-12)


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
    report = mass_kernel_witness(MassShellGrid(1.0, cutoff=6.0, points=33), 2.0)
    assert report.verdict == "inequivalent"
    assert report.separation_ratio >= 1e4
    assert report.value_on_first_shell <= 1e-8 * report.value_on_second_shell
    assert report.value_on_second_shell >= 0.1 * report.value_on_second_shell


def test_mass_witness_symmetry_and_degenerate_cases():
    forward = mass_kernel_witness(MassShellGrid(1.0, cutoff=6.0, points=17), 2.0)
    backward = mass_kernel_witness(MassShellGrid(2.0, cutoff=6.0, points=17), 1.0)
    assert forward.verdict == backward.verdict == "inequivalent"
    assert forward.separation_ratio >= 1e4
    assert backward.separation_ratio >= 1e4
    same = mass_kernel_witness(MassShellGrid(1.0), 1.0)
    assert same.verdict == "equivalent-by-construction"
    close = mass_kernel_witness(MassShellGrid(1.0, cutoff=6.0, points=17), 1.0 + 1e-9)
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
    coarse_lattice = EuclideanLattice(1.0, cutoff=6.0, points=9)
    mid_lattice = EuclideanLattice(1.0, cutoff=6.0, points=17)
    for lattice in (coarse_lattice, mid_lattice):    # the identity takes w(-e) as w(e)
        h = 8.0 / (lattice.cutoff * (lattice.points - 1))
        for e in h * np.eye(4):
            assert lattice.propagator(-e) == lattice.propagator(e)
    coarse = coarse_lattice.green_identity_residual(coarse_lattice.propagator(np.zeros(4)))
    mid = mid_lattice.green_identity_residual(mid_lattice.propagator(np.zeros(4)))
    assert mid <= 0.05
    assert mid < coarse


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
    report = mass_kernel_witness(MassShellGrid(mass_first, cutoff, points), mass_second)
    want = oracles.witness_shell_values_by_grid(mass_first, mass_second, cutoff, points)
    got = (report.value_on_first_shell, report.value_on_second_shell)
    for value, reference in zip(got, want):
        assert abs(value - reference) <= FOLD_TOL * reference


# Each time-dependent phase is evaluated once per distinct shell frequency and
# gathered onto the octant, and the Klein-Gordon stencil shares one sheet per
# time slice: the sheets are those of the per-point oracles bit for bit.  The
# sums contract them one axis at a time, where the oracles form every term and
# add them exactly rounded, so each D^-, D and w value is bounded by FOLD_TOL
# times the sum of the absolute values of its terms (plus the underflow
# allowance, for D at subnormal sin(omega x0)), and the Klein-Gordon residual
# by the stencil applied to those bounds.
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
    underflow = UNDERFLOW_PER_POINT * points**3
    for got, oracle in ((pauli_jordan_minus, oracles.pauli_jordan_minus_by_octant),
                        (pauli_jordan, oracles.pauli_jordan_by_octant)):
        want, scale = oracle(grid, x)
        assert abs(got(grid, x) - want) <= FOLD_TOL * scale + underflow
    want, scale = oracles.klein_gordon_residual_by_octant(grid, x, h)
    assert abs(klein_gordon_residuals(grid, x, (h,))[0] - want) <= FOLD_TOL * scale


@settings(max_examples=60, deadline=None)
@given(points=odd_points, mass=st.floats(0.1, 3.0), cutoff=st.floats(0.5, 6.0),
       x=repeating_four_vectors(), steps=st.lists(st.floats(0.01, 0.5), min_size=1, max_size=3))
@example(points=41, mass=1.0, cutoff=6.0, x=np.array([0.37, 0.21, -0.45, 0.11]),
         steps=[0.08, 0.04])
@example(points=29, mass=1.2, cutoff=6.0, x=np.array([-0.0, 0.3, 0.3, -0.0]), steps=[0.04])
def test_klein_gordon_partial_contractions_equal_the_full_sums(points, mass, cutoff, x, steps):
    # the neighbours along x1 and x2 start from the center's contractions over x3
    # (and x2): the residuals are those of a full octant sum per stencil point
    grid = MassShellGrid(mass, cutoff, points)
    assert (klein_gordon_residuals(grid, x, steps)
            == oracles.klein_gordon_residuals_unshared(grid, x, steps))


@settings(max_examples=60, deadline=None)
@given(points=st.integers(1, 10).map(lambda k: 2 * k + 1), mass=st.floats(0.1, 3.0),
       cutoff=st.floats(0.5, 6.0), x=repeating_four_vectors())
@example(points=21, mass=1.0, cutoff=6.0, x=np.array([0.37, 0.21, -0.45, 0.11]))
@example(points=3, mass=1.0, cutoff=6.0, x=np.zeros(4))
def test_euclidean_propagator_matches_the_octant_oracle(points, mass, cutoff, x):
    lattice = EuclideanLattice(mass, cutoff, points)
    want, scale = oracles.euclidean_propagator_by_octant(lattice, x)
    assert abs(lattice.propagator(x) - want) <= FOLD_TOL * scale


# Every octant sheet above is symmetric under permutations of its axes (it
# depends on p only through p^2 and mu), so it cannot tell which cosine
# vector meets which axis.  The contraction itself is checked on arbitrary
# sheets: axis i must meet cos(p x_i).
@settings(max_examples=40, deadline=None)
@given(dims=st.sampled_from([3, 4]), size=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       x=four_vectors)
def test_octant_sum_contracts_axis_i_with_coordinate_i(dims, size, seed, x):
    rng = np.random.default_rng(seed)
    sheet = rng.normal(size=(size,) * dims) + 1j * rng.normal(size=(size,) * dims)
    half_axis = rng.uniform(0.0, 6.0, size)
    want, scale = oracles.octant_sum_by_terms(sheet, half_axis, x[:dims])
    assert abs(_octant_sum(sheet, half_axis, x[:dims]) - want) <= FOLD_TOL * scale


@settings(max_examples=40, deadline=None)
@given(points=odd_points, mass=st.floats(0.1, 3.0), cutoff=st.floats(0.5, 6.0))
@example(points=41, mass=1.0, cutoff=6.0)
def test_shell_index_rebuilds_octant_omega_bitwise(points, mass, cutoff):
    grid = MassShellGrid(mass, cutoff, points)
    values, index = grid.shells
    assert np.all(np.diff(values) > 0.0)
    assert index.shape == grid.octant_omega.shape
    assert np.array_equal(values[index].view(np.uint64), grid.octant_omega.view(np.uint64))


# the exponent -i(omega x0) of the sheet at -x0 is the negated one at x0 (the
# product -1j * t gives the real part +0 for either sign of t), so the sheet is
# the conjugate wherever the cosine is even and the sine odd bit for bit; the
# bytes also catch a change in the sign of a zero
nonzero_times = st.floats(1e-300, 1e3).flatmap(lambda t: st.sampled_from([t, -t]))


@settings(max_examples=60, deadline=None)
@given(points=odd_points, mass=st.floats(0.1, 3.0), cutoff=st.floats(0.5, 6.0), x0=nonzero_times)
@example(points=41, mass=1.0, cutoff=6.0, x0=0.37)
@example(points=33, mass=0.8, cutoff=6.0, x0=-1e-14)
def test_sheet_at_minus_x0_is_the_conjugate_bit_for_bit(points, mass, cutoff, x0):
    grid = MassShellGrid(mass, cutoff, points)
    assert _minus_sheet(grid, -x0).tobytes() == _minus_sheet(grid, x0).conj().tobytes()


def test_sheet_at_time_zero_equals_its_conjugate():
    # at x0 = 0 every phase is 1 and the conjugate differs only in the sign of
    # the zero imaginary parts, which no modulus sees
    sheet = _minus_sheet(GRID, 0.0)
    assert not np.any(sheet.imag)
    assert np.array_equal(sheet, sheet.conj())


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


def test_octant_limit_admits_the_largest_grids():
    # field N = 255 (128^3) and Euclidean N = 75 (38^4) are the largest accepted
    for points, dims in ((255, 3), (75, 4)):
        assert _fold(points, 0.1, dims)[1].size <= OCTANT_POINT_LIMIT
        with pytest.raises(NumericalError, match=f"over the limit {OCTANT_POINT_LIMIT}"):
            _fold(points + 2, 0.1, dims)
