import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from opalg import (
    NumericalError,
    PowerTail,
    QubitConfig,
    equivalence_verdict,
    local_transition_element,
    purity_check,
    transition_residual,
)
from opalg.qubits import PARTIAL_SUM_WINDOW, TRANSITION_SITE_CAP, LocalTransition, partial_sum

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def test_unit_norm_enforced():
    with pytest.raises(ValueError):
        QubitConfig([1.0, 1.0])
    with pytest.raises(ValueError):
        QubitConfig(E1, overrides={2: np.array([0.5, 0.5])})
    with pytest.raises(ValueError):
        PowerTail(1.0, -2.0)


def test_finite_difference_is_equivalent():
    base = QubitConfig(E1)
    moved = QubitConfig(E1, overrides={1: E2, 5: E2, 9: np.array([0.6, 0.8])})
    verdict = equivalence_verdict(base, moved)
    assert verdict.verdict == "convergent"
    assert "finite set" in verdict.justification


def test_power_tail_p1_is_equivalent_with_tail_estimate():
    tail = QubitConfig(tail=PowerTail(1.0, 1.0))
    flat = QubitConfig(E1)
    verdict = equivalence_verdict(tail, flat)
    assert verdict.verdict == "convergent"
    # tail oracle: defect_s = 1 - cos(1/s) matches 1/(2 s^2) within 1% beyond s = 10
    sites = np.arange(11, 10_001)
    exact = np.sum(1.0 - np.cos(1.0 / sites))
    estimate = np.sum(0.5 / sites.astype(float) ** 2)
    assert exact == pytest.approx(estimate, rel=0.01)


def test_power_tail_half_is_divergent():
    tail = QubitConfig(tail=PowerTail(1.0, 0.5))
    verdict = equivalence_verdict(tail, QubitConfig(E1))
    assert verdict.verdict == "divergent"
    assert "exponent 1" in verdict.justification


def test_mismatched_tail_exponents_use_leading_term():
    a = QubitConfig(tail=PowerTail(1.0, 2.0))
    b = QubitConfig(tail=PowerTail(0.5, 0.4))
    assert equivalence_verdict(a, b).verdict == "divergent"
    c = QubitConfig(tail=PowerTail(0.5, 0.8))
    assert equivalence_verdict(a, c).verdict == "convergent"


def test_same_tail_different_amplitude():
    a = QubitConfig(tail=PowerTail(1.0, 0.75))
    b = QubitConfig(tail=PowerTail(0.25, 0.75))
    # delta = 0.75 s^-0.75, defect exponent 1.5 > 1
    assert equivalence_verdict(a, b).verdict == "convergent"
    c = QubitConfig(tail=PowerTail(0.25, 0.4))
    d = QubitConfig(tail=PowerTail(1.0, 0.4))
    assert equivalence_verdict(c, d).verdict == "divergent"


def test_constant_off_axis_default_against_tail_diverges():
    tail = QubitConfig(tail=PowerTail(1.0, 2.0))
    skew = QubitConfig(np.array([0.6, 0.8]))
    verdict = equivalence_verdict(tail, skew)
    assert verdict.verdict == "divergent"
    assert "positive constant" in verdict.justification


def test_incompatible_defaults_without_tail_are_undecided():
    a = QubitConfig(E1)
    b = QubitConfig(np.array([0.6, 0.8]))
    verdict = equivalence_verdict(a, b)
    assert verdict.verdict == "undecided"
    assert partial_sum(a, b) > 0.0


def test_verdict_is_symmetric():
    pairs = [
        (QubitConfig(tail=PowerTail(1.0, 1.0)), QubitConfig(E1)),
        (QubitConfig(tail=PowerTail(1.0, 0.5)), QubitConfig(E1)),
        (QubitConfig(E1), QubitConfig(np.array([0.6, 0.8]))),
        (QubitConfig(E1, overrides={3: E2}), QubitConfig(E1)),
    ]
    for a, b in pairs:
        assert equivalence_verdict(a, b).verdict == equivalence_verdict(b, a).verdict


def test_verdict_reflexive_and_finite_perturbation_stable():
    tail = QubitConfig(tail=PowerTail(1.0, 0.5))
    assert equivalence_verdict(tail, tail).verdict == "convergent"
    perturbed = QubitConfig(tail=PowerTail(1.0, 0.5), overrides={7: E2})
    flat = QubitConfig(E1)
    assert equivalence_verdict(tail, flat).verdict == "divergent"
    assert equivalence_verdict(perturbed, flat).verdict == "divergent"


# The dense marginal States and the Kronecker b are the reference path, kept
# in tests/oracles.py; these first tests check that reference itself.
def test_finite_marginal_two_sites():
    config = QubitConfig(E1)
    algebra, state = oracles.finite_marginal_state(config, [1, 2])
    assert algebra.blocks == (4,)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.max(np.abs(state.densities[0] - expected)) <= 1e-12
    assert purity_check(algebra, state) == "pure"


def test_finite_marginal_superposition_site():
    plus = QubitConfig((E1 + E2) / np.sqrt(2))
    _, state = oracles.finite_marginal_state(plus, [1])
    assert np.max(np.abs(state.densities[0] - 0.5 * np.ones((2, 2)))) <= 1e-12


def test_marginal_consistency_partial_trace_oracle():
    rng = np.random.default_rng(42)
    v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    config = QubitConfig(E1, overrides={
        1: v1 / np.linalg.norm(v1), 2: v2 / np.linalg.norm(v2)})
    _, two = oracles.finite_marginal_state(config, [1, 2])
    _, one = oracles.finite_marginal_state(config, [1])
    rho = two.densities[0].reshape(2, 2, 2, 2)
    traced = np.einsum("ikjk->ij", rho)   # partial trace over the second site
    assert np.max(np.abs(traced - one.densities[0])) <= 1e-12


def _random_unit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def test_marginal_cap():
    # refused before the 2^k vectors are built: 2^40 entries would be 16 TiB
    sites = tuple(range(1, 41))
    transition = LocalTransition(sites, (np.eye(2),) * len(sites))
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="40 sites exceeds cap 12"):
            transition_residual(QubitConfig(E1), QubitConfig(E1), transition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the cap itself is allowed: 4^12 entries, compared a block of rows at a time
    rng = np.random.default_rng(44)
    overrides = {s: _random_unit(rng) for s in range(1, TRANSITION_SITE_CAP + 1)}
    moved = QubitConfig(E1, overrides=overrides)
    transition = local_transition_element(QubitConfig(E1), moved)
    assert len(transition.sites) == TRANSITION_SITE_CAP
    assert transition_residual(QubitConfig(E1), moved, transition) <= 1e-14


def test_local_transition_identity():
    config = QubitConfig(E1)
    result = local_transition_element(config, config)
    assert result.sites == () and result.unitaries == ()
    assert np.array_equal(oracles.local_transition_matrix(result), np.eye(1))


def test_local_transition_single_flip():
    base = QubitConfig(E1)
    flipped = QubitConfig(E1, overrides={4: E2})
    result = local_transition_element(base, flipped)
    assert result.sites == (4,)
    assert np.max(np.abs(result.unitaries[0] - np.array([[0.0, 1.0], [1.0, 0.0]]))) <= 1e-12
    _verify_transition(base, flipped, result)


def test_local_transition_two_sites():
    rng = np.random.default_rng(43)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    base = QubitConfig(E1)
    moved = QubitConfig(E1, overrides={2: E2, 6: v})
    result = local_transition_element(base, moved)
    assert result.sites == (2, 6)
    _verify_transition(base, moved, result)


def _verify_transition(base, moved, result):
    from opalg import evaluate_state

    algebra, f = oracles.finite_marginal_state(base, result.sites)
    _, g = oracles.finite_marginal_state(moved, result.sites)
    b = algebra.element([oracles.local_transition_matrix(result)])
    for k in range(algebra.dim):
        e = algebra.basis_element(k)
        assert abs(evaluate_state(g, e) - evaluate_state(f, b.star * e * b)) <= 1e-9
    assert transition_residual(base, moved, result) <= 1e-9


def test_local_transition_absent_for_infinite_support():
    tail = QubitConfig(tail=PowerTail(1.0, 1.0))
    assert local_transition_element(tail, QubitConfig(E1)) is None


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), tail=st.booleans(),
       replaced=st.one_of(st.none(), st.integers(0, 5)))
@example(k=1, seed=80796, tail=True, replaced=None)    # 1.63e-14 from a one-site defect of 1.53e-14
def test_transition_residual_agrees_with_dense_oracle(k, seed, tail, replaced):
    rng = np.random.default_rng(seed)
    model = PowerTail(float(rng.uniform(0.1, 2.0)), 1.0) if tail else None
    default = E1 if tail else _random_unit(rng)
    sites = sorted(rng.choice(np.arange(1, 30), size=k, replace=False).tolist())
    first = QubitConfig(default, {s: _random_unit(rng) for s in sites}, model)
    second = QubitConfig(default, {s: _random_unit(rng) for s in sites}, model)
    transition = local_transition_element(first, second)
    assert transition.sites == tuple(sites)
    if replaced is not None:
        # a wrong u_s: the identity no longer holds and the residual is O(1)
        unitaries = list(transition.unitaries)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        unitaries[replaced % k] = q
        transition = LocalTransition(transition.sites, tuple(unitaries))
    got = transition_residual(first, second, transition)
    want = oracles.transition_residual_by_marginals(first, second, transition)
    assert abs(got - want) <= 1e-12 * max(1.0, want)
    if replaced is None:
        # x = tensor (sigma'(s) + d_s) with the one-site defects d_s = u_s sigma(s) - sigma'(s)
        # against w = tensor sigma'(s): to first order max |w w* - x x*| <= 2 sum_s max |d_s|,
        # every entry being at most 1 in modulus, and forming the k-fold products, one more
        # product, the difference and its modulus rounds by a few ulps per site
        defects = sum(float(np.max(np.abs(u @ first.vector_at(s) - second.vector_at(s))))
                      for s, u in zip(transition.sites, transition.unitaries))
        assert got <= 2.0 * defects + 4 * (k + 1) * np.finfo(float).eps


def _random_config(rng, kind):
    default = E1 if kind == "e1" else _random_unit(rng)
    tail = PowerTail(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.2, 3.0))) \
        if kind == "tail" else None
    # overrides on both sides of the window's last site
    count = int(rng.integers(0, 8))
    sites = rng.choice([1, 2, 3, 17, 500, PARTIAL_SUM_WINDOW - 1, PARTIAL_SUM_WINDOW,
                        PARTIAL_SUM_WINDOW + 1, 10**6], size=count, replace=False)
    return QubitConfig(default, {int(s): _random_unit(rng) for s in sites}, tail)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.tuples(*[st.sampled_from(["e1", "const", "tail"])] * 2))
def test_partial_sum_equals_the_mask_form(seed, kinds):
    rng = np.random.default_rng(seed)
    first, second = (_random_config(rng, kind) for kind in kinds)
    assert partial_sum(first, second) == oracles.partial_sum_by_masks(first, second)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("moved", ["first", "second", "both"])
def test_partial_sum_of_one_tail_equals_the_mask_form(moved, seed):
    # overrides at the window's first and last sites and past it, besides random ones
    rng = np.random.default_rng(seed)
    tail = PowerTail(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.2, 3.0)))
    pool = [2, 17, 500, PARTIAL_SUM_WINDOW - 1, 10**6]
    configs = []
    for side in ("first", "second"):
        sites = [1, PARTIAL_SUM_WINDOW, PARTIAL_SUM_WINDOW + 1]
        sites += rng.choice(pool, size=int(rng.integers(0, 3)), replace=False).tolist()
        overrides = {int(s): _random_unit(rng) for s in sites} if moved in (side, "both") else {}
        configs.append(QubitConfig(E1, overrides, tail))
    assert partial_sum(*configs) == oracles.partial_sum_by_masks(*configs)


def test_partial_sum_of_one_tail_holds_no_complex_window():
    # under half of the 1407 KiB at which three (2, 10 000) complex windows peak
    turn = np.array([0.6, 0.8j])
    first = QubitConfig(overrides={1: E2, PARTIAL_SUM_WINDOW: turn}, tail=PowerTail(1.3, 0.75))
    second = QubitConfig(overrides={1: turn, 9: turn}, tail=PowerTail(1.3, 0.75))
    partial_sum(first, second)
    tracemalloc.start()
    try:
        partial_sum(first, second)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1407 * 1024 // 2


def test_configurations_of_one_tail_share_its_window(monkeypatch):
    # sites 3 and 9 are overridden in the first configuration only, site 3 in both
    turn = np.array([0.6, 0.8j])
    first = QubitConfig(overrides={3: E2, 9: turn}, tail=PowerTail(1.3, 0.75))
    second = QubitConfig(overrides={3: turn}, tail=PowerTail(1.3, 0.75))
    v, w = first.window_vectors(PARTIAL_SUM_WINDOW), second.window_vectors(PARTIAL_SUM_WINDOW)
    own = np.abs(np.conj(v[0]) * w[0] + np.conj(v[1]) * w[1])    # each with its own window
    angles = []
    tail_angles = PowerTail.angles
    monkeypatch.setattr(PowerTail, "angles",
                        lambda self, sites: angles.append(len(sites)) or tail_angles(self, sites))
    assert partial_sum(first, second) == float(np.sum(np.abs(own - 1.0)))
    assert angles == [PARTIAL_SUM_WINDOW]
    partial_sum(first, QubitConfig(tail=PowerTail(1.3, 0.5)))    # another tail: a window each
    assert angles == [PARTIAL_SUM_WINDOW] * 3


FINITE_SUPPORT = "configurations differ on a finite set of sites"
SIDE_KINDS = ("e1", "off-axis", "zero tail", "tail")


def _side(rng, kind):
    """An e_1 default with a random phase, an off-axis default, a tail with c = +-0 or a tail
    with c != 0 (amplitudes and powers from small pools, so two sides can share a tail),
    with overrides at random sites."""
    default, tail = np.exp(2j * np.pi * rng.uniform()) * E1, None
    if kind == "off-axis":
        default = _random_unit(rng)
    elif kind != "e1":
        amplitudes = [0.0, -0.0] if kind == "zero tail" else [-1.0, 0.25, 1.0]
        tail = PowerTail(float(rng.choice(amplitudes)), float(rng.choice([0.5, 1.0, 2.0])))
    sites = rng.choice(np.arange(1, 10), size=int(rng.integers(0, 4)), replace=False)
    return QubitConfig(default, {int(s): _random_unit(rng) for s in sites}, tail)


sides = st.builds(_side, st.integers(0, 2**32 - 1).map(np.random.default_rng),
                  st.sampled_from(SIDE_KINDS))


@settings(max_examples=200, deadline=None)
@given(first=sides, second=sides)
@example(first=QubitConfig(tail=PowerTail(0.0, 1.0)), second=QubitConfig(E1))
@example(first=QubitConfig(tail=PowerTail(0.0, 1.0), overrides={2: E2}),
         second=QubitConfig(tail=PowerTail(-0.0, 2.0)))
def test_transition_exists_exactly_when_the_verdict_finds_finite_support(first, second):
    for a, b in ((first, second), (second, first)):
        transition = local_transition_element(a, b)
        assert (transition is None) == (equivalence_verdict(a, b).justification != FINITE_SUPPORT)
        if transition is not None:
            assert set(transition.sites) <= set(a.overrides) | set(b.overrides)
            assert transition_residual(a, b, transition) <= 1e-12
