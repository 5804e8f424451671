"""Discretized free scalar field of mass m on a symmetric momentum lattice.

All mass-shell integrals become finite sums over a cubic 3-momentum grid with
the weight dp^3 / omega, omega = sqrt(p^2 + m^2).  Test functions carry their
Fourier data on the two shell sheets p_0 = +-omega; the algebraic identities
(commutator relation, Wick expansion, tau-splitting isometries) then hold
exactly on the grid, while the differential ones (Klein-Gordon, the Euclidean
Green identity) hold to the order of the finite-difference stencil.

The lattice sums are folded onto the octant p_i >= 0.  Each axis holds the
integer multiples k * spacing, k = -(N-1)/2 .. (N-1)/2, so it is exactly
symmetric, and every weight (dp^3/omega, omega itself, 1/(p^2 + m^2)) depends
on p only through the squares p_i^2.  Expanding e^{ip.x} = prod_i (cos(p_i x_i)
+ i sin(p_i x_i)), every term with a sine is odd in some p_i and cancels
against its mirror image, so

    sum_p f(p^2) e^{ip.x} = sum_{p_i >= 0} mu(p) f(p^2) prod_i cos(p_i x_i),

with the multiplicity mu(p) = prod_i (1 if p_i = 0 else 2).  A sum then costs
((N+1)/2)^d weights times one length-(N+1)/2 cosine vector per axis instead of
N^d phases; only the rounding differs from the direct sum.  The full-grid
arrays that test functions live on are derived on first use.

The time dependence of a shell sum, e^{-i omega x0} or sin(omega x0), depends
on p only through omega, and the octant of an N-point grid holds far fewer
distinct omega values than points (1007 of 9261 at N = 41).  Each such phase
is evaluated once per distinct shell (``MassShellGrid.shells``) and gathered
back onto the octant, which gives the very array a per-point evaluation
gives.  The weighted phase mu w e^{-i omega x0} is a sheet shared by every
point of one time slice: the Klein-Gordon stencil builds three (x0, x0 + h,
x0 - h) for its nine points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .ccr import pair_partitions
from .errors import NumericalError, ShapeMismatchError

TWO_PI = 2.0 * np.pi
REALITY_TOL = 1e-12     # TestFunction: |neg(p) - conj(pos(-p))| relative to the sheet scale


def _fold(points: int, spacing: float, dims: int):
    """Octant p_i >= 0 of the symmetric lattice with ``points`` per axis.

    Returns the half axis k * spacing (k = 0 .. points // 2), p^2 on the
    ``dims``-dimensional octant and the multiplicity mu(p) of each octant
    point: the number of lattice points (+-p_1, ..., +-p_dims) it stands for.
    """
    half = np.arange(points // 2 + 1) * spacing
    axis_mult = np.full(half.size, 2.0)
    axis_mult[0] = 1.0
    p_squared = sum(np.ix_(*[half**2] * dims))
    return half, p_squared, math.prod(np.ix_(*[axis_mult] * dims))


def _cosines(half_axis: np.ndarray, coords) -> list:
    """One vector cos(p_i x_i) over the half axis per coordinate x_i."""
    return [np.cos(half_axis * xi) for xi in coords]


def _four_vector(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ShapeMismatchError(f"{what} points are 4-vectors")
    return x


class MassShellGrid:
    """Symmetric 3-momentum lattice with the mass-shell measure weights.

    Holds the octant arrays the sums run over: ``octant_omega``,
    ``octant_p_squared`` and the folded weights ``octant_weights`` = mu dp^3 /
    omega.  The full-grid ``momenta``, ``omega``, ``weights`` and ``flip``
    (the index permutation p -> -p) are built on first use.
    """

    def __init__(self, mass: float, cutoff: Optional[float] = None, points: int = 33):
        if mass <= 0.0:
            raise ValueError("mass must be positive")
        if points < 3 or points % 2 == 0:
            raise ValueError("points must be odd and at least 3 (grid symmetric about 0)")
        self.mass = float(mass)
        self.cutoff = float(cutoff) if cutoff is not None else 6.0 * self.mass
        self.points = int(points)
        # integer multiples of the spacing: the grid is exactly p -> -p symmetric
        self.spacing = 2.0 * self.cutoff / (self.points - 1)
        self.size = self.points**3
        self.half_axis, self.octant_p_squared, mult = _fold(self.points, self.spacing, 3)
        self.octant_omega = np.sqrt(self.octant_p_squared + self.mass**2)
        self.octant_weights = mult * self.spacing**3 / self.octant_omega

    @cached_property
    def shells(self):
        """Distinct values of ``octant_omega`` and the index rebuilding it from them.

        Found on the float values themselves, so values[index] is
        ``octant_omega`` bit for bit.
        """
        values, index = np.unique(self.octant_omega, return_inverse=True)
        return values, index.reshape(self.octant_omega.shape)

    @cached_property
    def momenta(self) -> np.ndarray:
        axis = (np.arange(self.points) - self.points // 2) * self.spacing
        mesh = np.meshgrid(axis, axis, axis, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    @cached_property
    def omega(self) -> np.ndarray:
        return np.sqrt(np.sum(self.momenta**2, axis=1) + self.mass**2)

    @cached_property
    def weights(self) -> np.ndarray:
        return self.spacing**3 / self.omega

    @cached_property
    def flip(self) -> np.ndarray:
        # reversing all three axes of the cube reverses the flat index
        return np.arange(self.size - 1, -1, -1)

    def __eq__(self, other):
        return (
            isinstance(other, MassShellGrid)
            and other.mass == self.mass
            and other.cutoff == self.cutoff
            and other.points == self.points
        )

    def __hash__(self):
        return hash((self.mass, self.cutoff, self.points))

    def __repr__(self):
        return f"MassShellGrid(m={self.mass}, cutoff={self.cutoff}, points={self.points})"


class TestFunction:
    """Fourier data on the two shell sheets, subject to the reality constraint.

    ``pos`` holds psi^F(omega, p), ``neg`` holds psi^F(-omega, p); reality of
    the position-space function requires neg(p) = conj(pos(-p)).
    """

    __test__ = False  # keep pytest collection away from the Test* name

    def __init__(self, grid: MassShellGrid, pos, neg):
        self.grid = grid
        pos = np.asarray(pos, dtype=complex)
        neg = np.asarray(neg, dtype=complex)
        if pos.shape != (grid.size,) or neg.shape != (grid.size,):
            raise ShapeMismatchError("sheet data must have one value per grid point")
        scale = max(float(np.max(np.abs(pos))), float(np.max(np.abs(neg))), 1.0)
        defect = float(np.max(np.abs(neg - np.conj(pos[grid.flip]))))
        if defect > REALITY_TOL * scale:
            raise ValueError(f"reality constraint violated (defect {defect:.3e})")
        self.pos = pos
        self.neg = neg

    @classmethod
    def from_profile(cls, grid: MassShellGrid, profile: Callable) -> "TestFunction":
        """Restrict a momentum-space profile psi^F(p0, p) to the two sheets."""
        p = grid.momenta
        pos = np.asarray(profile(grid.omega, p), dtype=complex)
        neg = np.asarray(profile(-grid.omega, p), dtype=complex)
        return cls(grid, pos, neg)

    def even_part(self) -> "TestFunction":
        half = 0.5 * (self.pos + self.neg)
        return TestFunction(self.grid, half, half)

    def odd_part(self) -> "TestFunction":
        half = 0.5 * (self.pos - self.neg)
        return TestFunction(self.grid, half, -half)


def _minus_sheet(grid: MassShellGrid, x0: float) -> np.ndarray:
    """mu w e^{-i omega x0} over the octant, one exp per distinct shell."""
    omega, index = grid.shells
    return grid.octant_weights * np.exp(-1j * (omega * x0))[index]


def _minus_value(grid: MassShellGrid, sheet: np.ndarray, space) -> complex:
    """D^- at the spatial point ``space`` of the time slice ``sheet`` belongs to."""
    total = np.einsum("ijk,i,j,k->", sheet, *_cosines(grid.half_axis, space))
    return complex(0.5j * TWO_PI**-3 * total)


def pauli_jordan_minus(grid: MassShellGrid, x) -> complex:
    """Negative-frequency commutator function on the positive mass shell.

    Discretizes i (2 pi)^-3 * integral of exp(-i(omega x0 - p.x)) d^3p/(2 omega),
    as the octant sum of mu w e^{-i omega x0} prod_i cos(p_i x_i).
    """
    x = _four_vector(x, "spacetime")
    return _minus_value(grid, _minus_sheet(grid, x[0]), x[1:])


def pauli_jordan(grid: MassShellGrid, x) -> complex:
    """Full commutator function D_m(x) = D^-(x) - D^-(-x), in manifestly odd form.

    The octant sum of mu w sin(omega x0) prod_i cos(p_i x_i): the cosine
    parts of D^-(x) and D^-(-x) cancel term by term, and every term carries
    the factor sin(omega x0), so the equal-time value is an exact zero.
    """
    x = _four_vector(x, "spacetime")
    omega, index = grid.shells
    sheet = grid.octant_weights * np.sin(omega * x[0])[index]
    total = np.einsum("ijk,i,j,k->", sheet, *_cosines(grid.half_axis, x[1:]))
    return complex(TWO_PI**-3 * total)


def shell_bilinear_form(grid: MassShellGrid, psi: TestFunction, phi: TestFunction) -> complex:
    """(psi | phi)_m = sum_p w(p) psi^F(-omega, -p) phi^F(omega, p).

    Positive on real test functions; the measure normalization (2 pi)^-3 is
    absorbed so a unit single-point excitation returns exactly its weight.
    """
    if psi.grid != grid or phi.grid != grid:
        raise ShapeMismatchError("test functions live on a different grid")
    return complex(np.sum(grid.weights * psi.neg[grid.flip] * phi.pos))


def l_form(grid: MassShellGrid, psi: TestFunction, phi: TestFunction) -> complex:
    """Real bilinear form on the quotient: the symmetrized shell pairing."""
    if psi.grid != grid or phi.grid != grid:
        raise ShapeMismatchError("test functions live on a different grid")
    first = np.sum(grid.weights * psi.neg[grid.flip] * phi.pos)
    second = np.sum(grid.weights * psi.pos[grid.flip] * phi.neg)
    return complex(0.5 * (first + second))


def three_momentum_form(grid: MassShellGrid, q1: np.ndarray, q2: np.ndarray) -> complex:
    """<q | q'> = sum_p dp^3 q(-p) q'(p) on 3-momentum functions."""
    return complex(grid.spacing**3 * np.sum(q1[grid.flip] * q2))


def tau_decompose(grid: MassShellGrid, psi: TestFunction):
    """Split a test function into instantaneous field and momentum data.

    tau+ = omega^-1/2 (psi^F(omega) + psi^F(-omega)) / 2 and
    tau- = omega^-1/2 (psi^F(omega) - psi^F(-omega)) / (2i); both are
    isometries of the even/odd summands onto 3-momentum space, mutually
    orthogonal under the real shell form.
    """
    scale = grid.omega**-0.5
    tau_plus = scale * 0.5 * (psi.pos + psi.neg)
    tau_minus = scale * (psi.pos - psi.neg) / 2j
    return tau_plus, tau_minus


class WightmanEvaluator:
    """n-point functions of the free state, with a cached two-point table.

    ``pair_scale`` multiplies every two-point factor; the default 1 is the
    Fock case and constant non-Fock covariances enter as c^2.
    """

    def __init__(self, grid: MassShellGrid, pair_scale: float = 1.0):
        self.grid = grid
        self.pair_scale = float(pair_scale)
        self._cache = {}

    def two_point(self, x, y) -> complex:
        diff = tuple(np.round(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), 14))
        if diff not in self._cache:
            self._cache[diff] = self.pair_scale * pauli_jordan_minus(self.grid, diff) / 1j
        return self._cache[diff]

    def __call__(self, points: Sequence) -> complex:
        n = len(points)
        if n == 0:
            return complex(1.0)
        if n % 2 == 1:
            return complex(0.0)
        if n == 2:
            return self.two_point(points[0], points[1])
        total = 0.0 + 0.0j
        for partition in pair_partitions(n):
            prod = 1.0 + 0.0j
            for i, j in partition:
                prod *= self.two_point(points[i], points[j])
            total += prod
        return complex(total)


def wightman_n_point(grid: MassShellGrid, points: Sequence, pair_scale: float = 1.0) -> complex:
    """Wick n-point value: odd orders vanish, even orders sum pair products."""
    return WightmanEvaluator(grid, pair_scale)(points)


def commutator_identity_check(grid: MassShellGrid, x, y) -> float:
    """Residual of W2(x,y) - W2(y,x) + i D_m(x-y); an exact grid identity."""
    ev = WightmanEvaluator(grid)
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return abs(ev.two_point(x, y) - ev.two_point(y, x) + 1j * pauli_jordan(grid, d))


def klein_gordon_residual(grid: MassShellGrid, x, h: float) -> float:
    """|(box_h + m^2) D^-| with centered second differences of step h.

    The center and its six spatial neighbours share the time slice x0, and
    with it one sheet; only the two time neighbours need their own.
    """
    x = _four_vector(x, "spacetime")
    sheet = _minus_sheet(grid, x[0])
    center = _minus_value(grid, sheet, x[1:])
    acc = 0.0 + 0.0j
    for axis in range(4):
        e = np.zeros(4)
        e[axis] = h
        up, down = x + e, x - e
        if axis == 0:
            sheets = _minus_sheet(grid, up[0]), _minus_sheet(grid, down[0])
        else:
            sheets = sheet, sheet
        second = (
            _minus_value(grid, sheets[0], up[1:]) + _minus_value(grid, sheets[1], down[1:])
            - 2.0 * center
        ) / h**2
        acc += second if axis == 0 else -second
    return abs(acc + grid.mass**2 * center)


@dataclass
class MassWitnessReport:
    mass_first: float
    mass_second: float
    value_on_first_shell: float
    value_on_second_shell: float
    separation_ratio: float
    verdict: str                 # inequivalent | equivalent-by-construction | undecided
    hint: str = ""


def mass_kernel_witness(mass_first: float, mass_second: float,
                        cutoff: float = 6.0, points: int = 33) -> MassWitnessReport:
    """Test function separating the shell forms of two masses.

    The momentum profile exp(-beta (p0^2 - p^2 - m'^2)^2) is constant on each
    shell: exactly 1 on the m'-shell and exp(-beta (m^2 - m'^2)^2) on the
    m-shell, so beta chosen from the squared-mass gap makes the two quadratic
    forms differ by many orders of magnitude.
    """
    if mass_first == mass_second:
        return MassWitnessReport(
            mass_first, mass_second, float("nan"), float("nan"), 1.0,
            "equivalent-by-construction", "identical masses give identical shell forms",
        )
    if max(mass_first, mass_second) >= cutoff:
        raise ValueError("both mass shells must lie inside the momentum cutoff")
    grid_a = MassShellGrid(mass_first, cutoff, points)
    grid_b = MassShellGrid(mass_second, cutoff, points)
    if abs(mass_first - mass_second) < grid_a.spacing / 10.0:
        return MassWitnessReport(
            mass_first, mass_second, float("nan"), float("nan"), float("nan"),
            "undecided",
            f"shell separation {abs(mass_first - mass_second):.3e} below resolution; "
            f"decrease the lattice spacing under 10 * |m - m'|",
        )
    gap = mass_first**2 - mass_second**2
    beta = math.log(1e10) / (2.0 * gap * gap)
    width = max(cutoff / 3.0, 1e-6)

    def shell_value(grid):
        # (psi | psi)_m of the profile restricted to the shell: the profile
        # depends on p only through p^2, so both sheets carry the same data
        p_squared = grid.octant_p_squared
        bump = np.exp(-p_squared / (2.0 * width**2))
        offshell = grid.octant_omega * grid.octant_omega - p_squared - mass_second**2
        sheet = np.exp(-beta * offshell**2) * bump
        return float(np.sum(grid.octant_weights * sheet * sheet))

    value_a = shell_value(grid_a)
    value_b = shell_value(grid_b)
    ratio = value_b / value_a if value_a > 0.0 else float("inf")
    return MassWitnessReport(
        mass_first, mass_second, value_a, value_b, ratio, "inequivalent",
        "witness concentrated on the second shell and suppressed on the first",
    )


class EuclideanLattice:
    """Band-limited Euclidean propagator of a massive scalar field.

    The momentum sum uses the continuum weight 1/(p^2 + m^2), held folded on
    the octant as ``octant_weights`` = mu / (p^2 + m^2); the full-grid
    ``momenta`` and ``p_squared`` are built on first use.  The companion
    lattice solve (weight 1/(phat^2 + m^2)) provides the exact Green-identity
    oracle the propagator is compared against.
    """

    def __init__(self, mass: float, cutoff: float = 6.0, points: int = 17):
        if mass <= 0.0:
            raise ValueError("mass must be positive")
        if points < 3 or points % 2 == 0:
            raise ValueError("points must be odd and at least 3")
        self.mass = float(mass)
        self.cutoff = float(cutoff)
        self.points = int(points)
        self.spacing = 2.0 * self.cutoff / (self.points - 1)
        self.axis = (np.arange(self.points) - self.points // 2) * self.spacing
        self.half_axis, p_squared, mult = _fold(self.points, self.spacing, 4)
        self.octant_weights = mult / (p_squared + self.mass**2)
        self.measure = TWO_PI**-4 * self.spacing**4

    @cached_property
    def momenta(self) -> np.ndarray:
        mesh = np.meshgrid(self.axis, self.axis, self.axis, self.axis, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    @cached_property
    def p_squared(self) -> np.ndarray:
        return np.sum(self.momenta**2, axis=1)

    def propagator(self, x) -> float:
        """w(x) = (2 pi)^-4 sum_p dp^4 cos(p.x) / (p^2 + m^2); even in x exactly."""
        x = _four_vector(x, "Euclidean")
        cosines = _cosines(self.half_axis, x)
        return float(self.measure * np.einsum("ijkl,i,j,k,l->", self.octant_weights, *cosines))

    def band_limited_delta(self, x) -> float:
        """Image of the delta under the momentum cutoff (product of Dirichlet sums)."""
        x = np.asarray(x, dtype=float)
        val = self.measure
        for xi in x:
            val *= float(np.sum(np.cos(self.axis * xi)))
        return val

    def green_identity_residual(self) -> float:
        """Relative defect of (-lap_h + m^2) w against the band-limited delta at 0.

        The reference value is exact for the lattice Green function (weights
        1/(phat^2 + m^2)), so this measures the continuum-vs-lattice symbol
        mismatch: O(h^2) with the step h = 8 / (cutoff * (points - 1)).
        """
        h = 8.0 / (self.cutoff * (self.points - 1))
        origin = np.zeros(4)
        w0 = self.propagator(origin)
        lap = 0.0
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            lap += (self.propagator(e) + self.propagator(-e) - 2.0 * w0) / h**2
        lhs = -lap + self.mass**2 * w0
        ref = self.band_limited_delta(origin)
        return abs(lhs - ref) / ref


def euclidean_propagator(mass: float, x, cutoff: float = 6.0, points: int = 17) -> float:
    """Convenience wrapper building the lattice for a single evaluation."""
    return EuclideanLattice(mass, cutoff, points).propagator(x)


def chronological_reorder(points: Sequence, evaluator: Callable) -> complex:
    """Sum over permutations with Heaviside time-ordering factors.

    theta(0) = 1/2 breaks ties at coincident times; the result is symmetric
    under argument exchange by construction.  Limited to k <= 6 points.
    """
    import itertools as _it

    pts = [np.asarray(p, dtype=float) for p in points]
    k = len(pts)
    if k > 6:
        raise NumericalError("chronological_reorder supports at most 6 points")
    if k == 0:
        return complex(evaluator([]))
    total = 0.0 + 0.0j
    for perm in _it.permutations(range(k)):
        weight = 1.0
        for a, b in zip(perm, perm[1:]):
            dt = pts[a][0] - pts[b][0]
            weight *= 0.5 if dt == 0.0 else (1.0 if dt > 0.0 else 0.0)
            if weight == 0.0:
                break
        if weight == 0.0:
            continue
        total += weight * evaluator([pts[i] for i in perm])
    return complex(total)
