"""Hermite-cubic finite elements for a clamped vibrating beam.

The transverse displacement of a beam clamped at x=0 is discretized with
cubic Hermite elements on a uniform mesh: two degrees of freedom per
node (displacement and slope), the clamped node eliminated.  The support
motion phi(t) is lifted into the interior with a quartic profile h(x)
so the computational unknown satisfies homogeneous clamped conditions,
which turns the moving support into an equivalent distributed load

    f(x, t) = f_tilde(x, t) - h(x) phi''(t) - k2 h''''(x) phi(t).

Load vectors are integrated with fixed 4-point Gauss-Legendre quadrature
per element (exact for the quartic lifting times the cubic basis) and
averaged over each time step with 2-point Gauss quadrature.  Without
f_tilde the density is separable, -h(x) phi''(t) + (8 k2 / L^4) phi(t),
so a window's load is its averages of phi'' and phi times two fixed
scattered vectors (:meth:`LoadAssembler.time_averaged` with
``separable`` and :meth:`LoadAssembler.from_coefficients`); with f_tilde
the density is sampled and scattered for every window
(:meth:`LoadAssembler.time_averaged`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import BandedSpd, BoxConstraint

HALF_BANDWIDTH = 3

# 4-point Gauss-Legendre rule mapped to [0, 1]
_G4 = np.sqrt(3.0 / 7.0 + 2.0 / 7.0 * np.sqrt(6.0 / 5.0))
_g4 = np.sqrt(3.0 / 7.0 - 2.0 / 7.0 * np.sqrt(6.0 / 5.0))
GAUSS4_POINTS = 0.5 * (1.0 + np.array([-_G4, -_g4, _g4, _G4]))
GAUSS4_WEIGHTS = 0.5 * np.array(
    [
        (18.0 - np.sqrt(30.0)) / 36.0,
        (18.0 + np.sqrt(30.0)) / 36.0,
        (18.0 + np.sqrt(30.0)) / 36.0,
        (18.0 - np.sqrt(30.0)) / 36.0,
    ]
)

# 2-point Gauss-Legendre rule mapped to [0, 1] (time averaging)
GAUSS2_POINTS = 0.5 * (1.0 + np.array([-1.0, 1.0]) / np.sqrt(3.0))


# ---------------------------------------------------------------------------
# mesh and numbering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of J elements on [0, L]; nodes x_0=0 .. x_J=L."""

    L: float
    J: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.L <= 0.0:
            raise ValueError("beam length must be positive")
        if self.J < 1:
            raise ValueError("need at least one element")
        object.__setattr__(self, "h", self.L / self.J)
        object.__setattr__(self, "nodes", np.linspace(0.0, self.L, self.J + 1))


@dataclass(frozen=True)
class DofMap:
    """Global numbering after eliminating the clamped node.

    Free nodes are 1..J; node i carries the displacement DOF 2i-2 and
    the slope DOF 2i-1 (0-based), so the tip displacement is DOF 2J-2
    and the tip slope 2J-1.  Elements couple at most DOFs 3 apart.
    """

    J: int

    @property
    def ndof(self) -> int:
        return 2 * self.J

    @property
    def tip_disp(self) -> int:
        return 2 * self.J - 2

    @property
    def tip_slope(self) -> int:
        return 2 * self.J - 1

    def disp_index(self, node: int) -> int:
        if not 1 <= node <= self.J:
            raise ValueError("free nodes are 1..J")
        return 2 * node - 2

    def slope_index(self, node: int) -> int:
        if not 1 <= node <= self.J:
            raise ValueError("free nodes are 1..J")
        return 2 * node - 1

    @property
    def half_bandwidth(self) -> int:
        return min(HALF_BANDWIDTH, self.ndof - 1)

    def element_dofs(self, e: int):
        """(global indices, local indices) of the retained DOFs of element e."""
        if e == 0:
            return np.array([0, 1]), np.array([2, 3])
        base = 2 * e - 2
        return np.arange(base, base + 4), np.arange(4)


# ---------------------------------------------------------------------------
# shape functions and elemental matrices
# ---------------------------------------------------------------------------


def hermite_shape(s, h: float) -> np.ndarray:
    """The four Hermite basis functions at local coordinate s in [0, 1].

    Ordered (left value, left slope, right value, right slope); the
    slope functions are scaled by the element length h so the DOFs are
    physical slopes.
    """
    s = np.asarray(s, dtype=float)
    return np.array(
        [
            1.0 - 3.0 * s**2 + 2.0 * s**3,
            h * s * (1.0 - s) ** 2,
            3.0 * s**2 - 2.0 * s**3,
            h * s**2 * (s - 1.0),
        ]
    )


def elemental_mass(h: float) -> np.ndarray:
    """Consistent mass matrix of one Hermite element of length h (unit density)."""
    if h <= 0.0:
        raise ValueError("element length must be positive")
    h2 = h * h
    h3 = h2 * h
    return (
        np.array(
            [
                [156.0 * h, 22.0 * h2, 54.0 * h, -13.0 * h2],
                [22.0 * h2, 4.0 * h3, 13.0 * h2, -3.0 * h3],
                [54.0 * h, 13.0 * h2, 156.0 * h, -22.0 * h2],
                [-13.0 * h2, -3.0 * h3, -22.0 * h2, 4.0 * h3],
            ]
        )
        / 420.0
    )


def elemental_stiffness(h: float, k2: float) -> np.ndarray:
    """Bending stiffness matrix of one element (k2 = EI / rho S)."""
    if h <= 0.0:
        raise ValueError("element length must be positive")
    if k2 <= 0.0:
        raise ValueError("k2 must be positive")
    c = k2
    ch = k2 * h
    ch2 = ch * h
    return (
        np.array(
            [
                [12.0 * c, 6.0 * ch, -12.0 * c, 6.0 * ch],
                [6.0 * ch, 4.0 * ch2, -6.0 * ch, 2.0 * ch2],
                [-12.0 * c, -6.0 * ch, 12.0 * c, -6.0 * ch],
                [6.0 * ch, 2.0 * ch2, -6.0 * ch, 4.0 * ch2],
            ]
        )
        / (h * h * h)
    )


# ---------------------------------------------------------------------------
# support motion and model data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportMotion:
    """Support displacement phi(t) with its first two derivatives."""

    value: Callable
    d1: Callable
    d2: Callable

    @classmethod
    def sine(cls, amplitude: float, omega: float) -> "SupportMotion":
        """phi(t) = amplitude * sin(omega t)."""
        a, w = float(amplitude), float(omega)
        return cls(
            value=lambda t: a * np.sin(w * np.asarray(t, dtype=float)),
            d1=lambda t: a * w * np.cos(w * np.asarray(t, dtype=float)),
            d2=lambda t: -a * w * w * np.sin(w * np.asarray(t, dtype=float)),
        )

    @classmethod
    def constant(cls, value: float) -> "SupportMotion":
        c = float(value)
        return cls(
            value=lambda t: c + 0.0 * np.asarray(t, dtype=float),
            d1=lambda t: 0.0 * np.asarray(t, dtype=float),
            d2=lambda t: 0.0 * np.asarray(t, dtype=float),
        )

    @classmethod
    def zero(cls) -> "SupportMotion":
        return cls.constant(0.0)


@dataclass(frozen=True)
class BeamModel:
    """Physical data of the clamped beam between two stops.

    ``g_lower``/``g_upper`` are either plain numbers — stops acting on
    the tip displacement only, the standard setup — or callables of x
    giving per-node bounds for a distributed obstacle (either may be
    +-inf / return +-inf for one-sided or absent constraints).  Numeric
    stops step through the tip solvers, callable ones through projected
    Gauss-Seidel on the whole box, however many bounds are finite.
    """

    k2: float
    L: float
    g_lower: float | Callable = -np.inf
    g_upper: float | Callable = np.inf
    phi: SupportMotion = field(default_factory=SupportMotion.zero)
    f_tilde: Callable | None = None

    def __post_init__(self):
        if self.k2 <= 0.0:
            raise ValueError("k2 must be positive")
        if self.L <= 0.0:
            raise ValueError("beam length must be positive")
        if self.tip_only:
            if np.isfinite(self.g_lower) and self.g_lower >= 0.0:
                raise ValueError("lower stop must sit strictly below zero")
            if np.isfinite(self.g_upper) and self.g_upper <= 0.0:
                raise ValueError("upper stop must sit strictly above zero")

    @classmethod
    def symmetric_stops(cls, k2, L, g, phi=None, f_tilde=None) -> "BeamModel":
        """Stops at -g and +g acting on the tip (g = inf for no stops)."""
        if not g > 0.0:
            raise ValueError("gap g must be positive")
        return cls(
            k2=k2,
            L=L,
            g_lower=-g,
            g_upper=g,
            phi=phi if phi is not None else SupportMotion.zero(),
            f_tilde=f_tilde,
        )

    @property
    def tip_only(self) -> bool:
        return not (callable(self.g_lower) or callable(self.g_upper))

    def box(self, dofs: DofMap, mesh: Mesh | None = None) -> BoxConstraint:
        """Box constraint on the DOF vector induced by the stops."""
        if self.tip_only:
            return BoxConstraint.single(
                dofs.ndof, dofs.tip_disp, float(self.g_lower), float(self.g_upper)
            )
        if mesh is None:
            raise ValueError("distributed bounds need the mesh for node positions")
        lo = np.full(dofs.ndof, -np.inf)
        hi = np.full(dofs.ndof, np.inf)
        for node in range(1, dofs.J + 1):
            x = mesh.nodes[node]
            lo[dofs.disp_index(node)] = (
                self.g_lower(x) if callable(self.g_lower) else self.g_lower
            )
            hi[dofs.disp_index(node)] = (
                self.g_upper(x) if callable(self.g_upper) else self.g_upper
            )
        return BoxConstraint(lo, hi)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalMatrices:
    """Assembled mass and stiffness matrices (banded, clamped DOFs removed)."""

    mass: BandedSpd
    stiffness: BandedSpd


def _assemble_banded(ke: np.ndarray, J: int) -> BandedSpd:
    """Sum one 4 x 4 element matrix over the J elements, in banded storage.

    Element e couples the (value, slope) DOFs of nodes e and e+1 (node 0
    is the clamp).  Its upper triangle in band layout is ``local``; its
    right-node columns go to node e+1 and its left-node columns to
    node e, one slice add each over the whole element stack.  A node's
    entries get the right end of the element before it and then the left
    end of the one after it, the order of an element-by-element loop, so
    the sums are the same to the bit.  The clamped node's columns and its
    couplings, which fall outside the matrix, are dropped.
    """
    bw = HALF_BANDWIDTH
    local = np.zeros((bw + 1, 4))
    for b in range(4):
        local[bw - b :, b] = ke[: b + 1, b]
    nodes = np.zeros((bw + 1, J + 1, 2))
    nodes[:, 1:] = local[:, None, 2:]
    nodes[:, :-1] += local[:, None, :2]
    ab = nodes.reshape(bw + 1, -1)[:, 2:]
    ab[np.add.outer(np.arange(bw + 1), np.arange(2 * J)) < bw] = 0.0
    return BandedSpd(ab[bw - DofMap(J).half_bandwidth :])


def assemble(mesh: Mesh, model: BeamModel) -> GlobalMatrices:
    """Assemble global M and S from the elemental matrices."""
    return GlobalMatrices(
        mass=_assemble_banded(elemental_mass(mesh.h), mesh.J),
        stiffness=_assemble_banded(elemental_stiffness(mesh.h, model.k2), mesh.J),
    )


# ---------------------------------------------------------------------------
# lifting of the support motion
# ---------------------------------------------------------------------------


def _check_domain(x, L: float):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > L):
        raise ValueError(f"position outside the beam [0, {L}]")
    return x


def lifting(x, L: float):
    """Lifting profile h(x) and its fourth derivative.

    h carries the unit support displacement into the interior:
    h(0)=1, h'(0)=0 and h''(L)=h'''(L)=0, with the constant fourth
    derivative -8/L^4.
    """
    x = _check_domain(x, L)
    xi = x / L
    value = 1.0 - 2.0 * xi**2 + (4.0 / 3.0) * xi**3 - (1.0 / 3.0) * xi**4
    d4 = np.broadcast_to(np.float64(-8.0 / L**4), value.shape).copy()
    return value, d4


def lifting_slope(x, L: float):
    """First derivative h'(x) of the lifting profile."""
    x = _check_domain(x, L)
    xi = x / L
    return (-4.0 * xi + 4.0 * xi**2 - (4.0 / 3.0) * xi**3) / L


# ---------------------------------------------------------------------------
# load vectors
# ---------------------------------------------------------------------------


#: Sample budget of one block of load windows: a block holds
#: max(16, LOAD_BLOCK_SAMPLES // 4J, LOAD_BLOCK_SAMPLES // 512) windows of
#: two Gauss times each: 431 at J=19 and 64 from J=128 up.  The sampled
#: route's buffer is about 512 KB whatever the horizon up to J=128 and
#: grows with J past it; the separable route has none.  At 1 a block holds
#: 16 windows.
LOAD_BLOCK_SAMPLES = 2**15


def _node_windows(samples: np.ndarray) -> np.ndarray:
    """The (..., J, 8) view of each free node's 8 samples in (..., 4J + 4) samples."""
    return np.lib.stride_tricks.sliding_window_view(samples, 8, axis=-1)[..., ::4, :]


class LoadAssembler:
    """Precomputed quadrature scatter for load vectors on a fixed mesh.

    Free node i (1..J) is the right end of element i-1 and the left end
    of element i, so its (value, slope) load reads the 8 density samples
    of those two elements (4 Gauss points each; zeros past the tip).
    ``node_weights[k, d]`` is weight times basis value of the node's DOF
    d at the k-th of those samples, and a load vector is the
    ``(J x 8) @ (8 x 2)`` product over a strided view of the samples.

    A block holds up to ``block_rows`` time windows (see
    :data:`LOAD_BLOCK_SAMPLES`).  The sampled route owns the samples: one
    ``(2, block_rows, 4J + 4)`` buffer, made on its first block, so a
    block is one density pass and one product.  Every entry is computed
    elementwise in the same order for one time as for a block, so a block
    is bit-identical to its windows one at a time.

    ``basis`` holds the scatters of -h(x_q) and of 8 k2 / L^4, the loads
    of phi'' = 1 and of phi = 1.  Without f_tilde a window's load is
    their combination with the window's averages of phi'' and phi, so
    the separable route samples only these two rows.
    """

    def __init__(self, mesh: Mesh, model: BeamModel):
        self.mesh = mesh
        self.model = model
        self.xq = (mesh.nodes[:-1, None] + GAUSS4_POINTS * mesh.h).ravel()
        shapes = hermite_shape(GAUSS4_POINTS, mesh.h) * (GAUSS4_WEIGHTS * mesh.h)
        self.node_weights = np.vstack([shapes[2:].T, shapes[:2].T])
        self.block_rows = max(16, LOAD_BLOCK_SAMPLES // self.xq.size, LOAD_BLOCK_SAMPLES // 512)
        self._neg_h_q = -lifting(self.xq, mesh.L)[0]
        self._c_phi = 8.0 * model.k2 / mesh.L**4

    @cached_property
    def basis(self) -> np.ndarray:
        """Built on first use, so runs that sample their loads never pay for it."""
        samples = np.zeros((2, self.xq.size + 4))
        samples[0, :-4], samples[1, :-4] = self._neg_h_q, self._c_phi
        return (_node_windows(samples) @ self.node_weights).reshape(2, -1)

    @cached_property
    def _samples(self) -> np.ndarray:
        """The sampled route's buffer, made on its first block."""
        return np.zeros((2, self.block_rows, self.xq.size + 4))

    def _fill(self, ts: np.ndarray) -> np.ndarray:
        """Write f(x_q, t) for the (m, k) times ``ts`` into the sample buffer."""
        m, k = ts.shape
        dens = self._samples[:m, :k, :-4]
        phi, f_tilde = self.model.phi, self.model.f_tilde
        np.multiply(self._neg_h_q, np.broadcast_to(phi.d2(ts), ts.shape)[..., None], out=dens)
        dens += self._c_phi * np.broadcast_to(phi.value(ts), ts.shape)[..., None]
        if f_tilde is not None:
            for node_rows, node_ts in zip(dens, ts):
                for row, t in zip(node_rows, node_ts):
                    row += f_tilde(self.xq, t)
        return dens

    def _scatter(self, ts: np.ndarray) -> np.ndarray:
        """Load vectors at the (m, k) times ``ts``, shape (m, k, J, 2)."""
        m, k = ts.shape
        self._fill(ts)
        return _node_windows(self._samples[:m, :k]) @ self.node_weights

    def time_averaged(
        self, n, dt: float, horizon: float | None = None, *, separable: bool = False
    ) -> np.ndarray:
        """Average load over [n dt, (n+1) dt], normalized by 1/dt.

        If the window runs past the horizon T the integral stops at T
        while the 1/dt normalization is kept, so the final partial
        window is weighted by its actual length (zero past T).  ``n`` is
        one window index, giving one vector, or an array of k indices,
        giving the (k x 2J) block of their vectors, built ``block_rows``
        windows per pass.

        With ``separable`` (no f_tilde) the density is not sampled: the
        result is the windows' averages of phi'' and phi, shape
        n.shape + (2,), the load's coefficients over ``basis``, which
        :meth:`from_coefficients` turns into the load.  They are computed
        elementwise at the same Gauss times, so a block of windows is
        bit-identical to its windows one at a time.
        """
        if separable and self.model.f_tilde is not None:
            raise ValueError("a load with f_tilde is not separable")
        ns = np.asarray(n)
        a = ns * dt
        b = (ns + 1) * dt
        if horizon is not None:
            b = np.minimum(b, horizon)
        width = b - a
        scale = 0.5 * width / dt
        if separable:
            t0, t1 = (a + p * width for p in GAUSS2_POINTS)
            phi = self.model.phi
            out = np.stack(
                [scale * (phi.d2(t0) + phi.d2(t1)), scale * (phi.value(t0) + phi.value(t1))],
                axis=-1,
            )
            out[width <= 0.0] = 0.0
            return out
        out = np.zeros(ns.shape + (2 * self.mesh.J,))
        flat = out.reshape(-1, out.shape[-1])
        a, width, scale = a.ravel(), width.ravel(), scale.ravel()
        live = np.flatnonzero(width > 0.0)
        for i in range(0, live.size, self.block_rows):
            rows = live[i : i + self.block_rows]
            ts = a[rows] + GAUSS2_POINTS[:, None] * width[rows]
            l0, l1 = self._scatter(ts).reshape(2, rows.size, -1)
            flat[rows] = scale[rows, None] * (l0 + l1)
        return out

    def from_coefficients(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (..., 2J) loads c0 * basis[0] + c1 * basis[1] of (..., 2) coefficients,
        written into ``out`` when given.

        Formed elementwise, so a row's bits do not depend on the rows
        around it.
        """
        out = np.multiply(coeffs[..., :1], self.basis[0], out=out)
        out += coeffs[..., 1:] * self.basis[1]
        return out


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def interpolate_profile(mesh: Mesh, value_fn, slope_fn) -> np.ndarray:
    """DOF vector of the Hermite interpolant of a (value, slope) profile."""
    out = np.empty(2 * mesh.J)
    xs = mesh.nodes[1:]
    out[0::2] = np.asarray(value_fn(xs), dtype=float)
    out[1::2] = np.asarray(slope_fn(xs), dtype=float)
    return out
