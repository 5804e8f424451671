"""Discretized free scalar field of mass m on a symmetric momentum lattice.

All mass-shell integrals become finite sums over a cubic 3-momentum grid with
the weight dp^3 / omega, omega = sqrt(p^2 + m^2).  The commutator relation
then holds exactly on the grid, while the differential identities
(Klein-Gordon, the Euclidean Green identity) hold to the order of the
finite-difference stencil.

The lattice sums are folded onto the octant p_i >= 0.  Each axis holds the
integer multiples k * spacing, k = -(N-1)/2 .. (N-1)/2, so it is exactly
symmetric, and every weight (dp^3/omega, omega itself, 1/(p^2 + m^2)) depends
on p only through the squares p_i^2.  Expanding e^{ip.x} = prod_i (cos(p_i x_i)
+ i sin(p_i x_i)), every term with a sine is odd in some p_i and cancels
against its mirror image, so

    sum_p f(p^2) e^{ip.x} = sum_{p_i >= 0} mu(p) f(p^2) prod_i cos(p_i x_i),

with the multiplicity mu(p) = prod_i (1 if p_i = 0 else 2).  A sum then costs
((N+1)/2)^d weights times one length-(N+1)/2 cosine vector per axis instead of
N^d phases, contracted one axis at a time; only the rounding differs from the
direct sum.

The time dependence of a shell sum, e^{-i omega x0} or sin(omega x0), depends
on p only through omega, and the octant of an N-point grid holds far fewer
distinct omega values than points (1007 of 9261 at N = 41).  Each such phase
is evaluated once per distinct shell (``MassShellGrid.shells``) and gathered
back onto the octant, which gives the very array a per-point evaluation
gives.  The weighted phase mu w e^{-i omega x0} is a sheet shared by every
point of one time slice: the Klein-Gordon stencils at h and h/2 build five
(x0, x0 +- h, x0 +- h/2) for their seventeen points.  The sheet at -x0 is
the complex conjugate of the one at x0, bit for bit wherever omega x0 is not
zero: the exponent is i(-omega x0) either way, and the cosine is even and the
sine odd in it.  The commutator check takes W2(y, x) from the conjugate of the
sheet W2(x, y) is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NumericalError, ShapeMismatchError

TWO_PI = 2.0 * np.pi
# largest octant _fold builds: 128^3 (field N = 255) and 38^4 (Euclidean N = 75) fit
OCTANT_POINT_LIMIT = 1 << 21


def _fold(points: int, spacing: float, dims: int):
    """Octant p_i >= 0 of the symmetric lattice with ``points`` per axis.

    Returns the half axis k * spacing (k = 0 .. points // 2), p^2 on the
    ``dims``-dimensional octant and the multiplicity mu(p) of each octant
    point: the number of lattice points (+-p_1, ..., +-p_dims) it stands for.
    Every lattice sizes its arrays here, so an octant past
    ``OCTANT_POINT_LIMIT`` is refused before any of them exists.
    """
    octant = (points // 2 + 1) ** dims
    if octant > OCTANT_POINT_LIMIT:
        raise NumericalError(f"{points} points per axis give a {dims}-d octant of {octant} "
                             f"points, over the limit {OCTANT_POINT_LIMIT}")
    half = np.arange(points // 2 + 1) * spacing
    axis_mult = np.full(half.size, 2.0)
    axis_mult[0] = 1.0
    p_squared = sum(np.ix_(*[half**2] * dims))
    return half, p_squared, math.prod(np.ix_(*[axis_mult] * dims))


def _octant_sum(sheet: np.ndarray, half_axis: np.ndarray, coords):
    """sum over the octant of sheet * prod_i cos(p_i x_i), contracting the last axis first."""
    for xi in reversed(coords):
        sheet = sheet @ np.cos(half_axis * xi)
    return sheet


def _four_vector(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ShapeMismatchError(f"{what} points are 4-vectors")
    return x


class MassShellGrid:
    """Symmetric 3-momentum lattice with the mass-shell measure weights.

    Holds the octant arrays the sums run over: ``octant_omega``,
    ``octant_p_squared`` and the folded weights ``octant_weights`` = mu dp^3 /
    omega.
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

    def __repr__(self):
        return f"MassShellGrid(m={self.mass}, cutoff={self.cutoff}, points={self.points})"


def _minus_sheet(grid: MassShellGrid, x0: float) -> np.ndarray:
    """mu w e^{-i omega x0} over the octant, one exp per distinct shell."""
    omega, index = grid.shells
    return grid.octant_weights * np.exp(-1j * (omega * x0))[index]


def _minus_value(grid: MassShellGrid, sheet: np.ndarray, space) -> complex:
    """D^- at the spatial point ``space`` of the time slice ``sheet`` belongs to."""
    return complex(0.5j * TWO_PI**-3 * _octant_sum(sheet, grid.half_axis, space))


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
    return complex(TWO_PI**-3 * _octant_sum(sheet, grid.half_axis, x[1:]))


def commutator_identity_check(grid: MassShellGrid, x, y) -> float:
    """Residual of W2(x,y) - W2(y,x) + i D_m(x-y); an exact grid identity.

    The two-point function is W2(x,y) = D^-(x - y) / i, taken at x - y
    rounded to 14 decimals.  y - x rounds to its negative, so W2(y,x) sums
    the conjugate of the sheet of W2(x,y).  Where x0 = y0 both differences
    read +0 and the conjugate differs from that sheet only in the sign of
    zero imaginary parts, which the modulus does not see.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = _four_vector(np.round(x - y, 14), "spacetime")
    sheet = _minus_sheet(grid, d[0])
    w_xy = _minus_value(grid, sheet, d[1:]) / 1j
    w_yx = _minus_value(grid, sheet.conj(), np.round(y - x, 14)[1:]) / 1j
    return abs(w_xy - w_yx + 1j * pauli_jordan(grid, x - y))


def klein_gordon_residuals(grid: MassShellGrid, x, steps) -> tuple:
    """|(box_h + m^2) D^-| with centered second differences, one per step h of ``steps``.

    The center and its six spatial neighbours at every step share the time
    slice x0, and with it one sheet and the center value; only the two time
    neighbours of each step need their own.  The neighbours along x1 and x2
    start from the center's contractions over x3 (and x2), bit for bit.
    """
    x = _four_vector(x, "spacetime")
    sheet = _minus_sheet(grid, x[0])
    c3 = sheet @ np.cos(grid.half_axis * x[3])
    # [a - 1] for the spatial axis a: the center's sheet with the axes after a contracted
    shared = (c3 @ np.cos(grid.half_axis * x[2]), c3, sheet)
    center = _minus_value(grid, shared[0], x[1:2])
    residuals = []
    for h in steps:
        acc = 0.0 + 0.0j
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            up, down = x + e, x - e
            if axis == 0:
                sheets, rest = (_minus_sheet(grid, up[0]), _minus_sheet(grid, down[0])), slice(1, 4)
            else:
                sheets, rest = (shared[axis - 1],) * 2, slice(1, axis + 1)
            second = (
                _minus_value(grid, sheets[0], up[rest]) + _minus_value(grid, sheets[1], down[rest])
                - 2.0 * center
            ) / h**2
            acc += second if axis == 0 else -second
        residuals.append(abs(acc + grid.mass**2 * center))
    return tuple(residuals)


@dataclass
class MassWitnessReport:
    mass_first: float
    mass_second: float
    value_on_first_shell: float
    value_on_second_shell: float
    separation_ratio: float
    verdict: str                 # inequivalent | equivalent-by-construction | undecided
    hint: str = ""


def mass_kernel_witness(grid: MassShellGrid, mass_second: float) -> MassWitnessReport:
    """Test function separating the shell forms of ``grid``'s mass m and m' = ``mass_second``.

    The momentum profile exp(-beta (p0^2 - p^2 - m'^2)^2) is constant on each
    shell: exactly 1 on the m'-shell and exp(-beta (m^2 - m'^2)^2) on the
    m-shell, so beta chosen from the squared-mass gap makes the two quadratic
    forms differ by many orders of magnitude.  The m'-shell is summed on the
    lattice of ``grid``.
    """
    mass_first, cutoff = grid.mass, grid.cutoff
    if mass_first == mass_second:
        return MassWitnessReport(
            mass_first, mass_second, float("nan"), float("nan"), 1.0,
            "equivalent-by-construction", "identical masses give identical shell forms",
        )
    if max(mass_first, mass_second) >= cutoff:
        raise ValueError("both mass shells must lie inside the momentum cutoff")
    grid_b = MassShellGrid(mass_second, cutoff, grid.points)
    if abs(mass_first - mass_second) < grid.spacing / 10.0:
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

    value_a = shell_value(grid)
    value_b = shell_value(grid_b)
    ratio = value_b / value_a if value_a > 0.0 else float("inf")
    return MassWitnessReport(
        mass_first, mass_second, value_a, value_b, ratio, "inequivalent",
        "witness concentrated on the second shell and suppressed on the first",
    )


class EuclideanLattice:
    """Band-limited Euclidean propagator of a massive scalar field.

    The momentum sum uses the continuum weight 1/(p^2 + m^2), held folded on
    the octant as ``octant_weights`` = mu / (p^2 + m^2).  The companion
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

    def propagator(self, x) -> float:
        """w(x) = (2 pi)^-4 sum_p dp^4 cos(p.x) / (p^2 + m^2); even in x exactly."""
        x = _four_vector(x, "Euclidean")
        return float(self.measure * _octant_sum(self.octant_weights, self.half_axis, x))

    def band_limited_delta(self, x) -> float:
        """Image of the delta under the momentum cutoff (product of Dirichlet sums)."""
        x = np.asarray(x, dtype=float)
        val = self.measure
        for xi in x:
            val *= float(np.sum(np.cos(self.axis * xi)))
        return val

    def green_identity_residual(self, w0: float) -> float:
        """Relative defect of (-lap_h + m^2) w against the band-limited delta at 0.

        ``w0`` is w(0) from :meth:`propagator`, which the caller already has.
        The reference value is exact for the lattice Green function (weights
        1/(phat^2 + m^2)), so this measures the continuum-vs-lattice symbol
        mismatch: O(h^2) with the step h = 8 / (cutoff * (points - 1)).
        """
        h = 8.0 / (self.cutoff * (self.points - 1))
        origin = np.zeros(4)
        lap = 0.0
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            lap += (2.0 * self.propagator(e) - 2.0 * w0) / h**2    # w(-e) == w(e)
        lhs = -lap + self.mass**2 * w0
        ref = self.band_limited_delta(origin)
        return abs(lhs - ref) / ref
