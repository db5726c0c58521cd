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
averaged over each time step with 2-point Gauss quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def hermite_shape_d1(s, h: float) -> np.ndarray:
    """First x-derivatives of the Hermite basis at local coordinate s."""
    s = np.asarray(s, dtype=float)
    return np.array(
        [
            (-6.0 * s + 6.0 * s**2) / h,
            1.0 - 4.0 * s + 3.0 * s**2,
            (6.0 * s - 6.0 * s**2) / h,
            3.0 * s**2 - 2.0 * s,
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
    +-inf / return +-inf for one-sided or absent constraints).
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
            if not (np.isfinite(self.g_lower) or np.isfinite(self.g_upper)):
                return BoxConstraint.unbounded(dofs.ndof)
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


def assemble(mesh: Mesh, model: BeamModel) -> GlobalMatrices:
    """Assemble global M and S from the elemental matrices."""
    dofs = DofMap(mesh.J)
    m = BandedSpd.zeros(dofs.ndof, HALF_BANDWIDTH)
    s = BandedSpd.zeros(dofs.ndof, HALF_BANDWIDTH)
    me = elemental_mass(mesh.h)
    se = elemental_stiffness(mesh.h, model.k2)
    for e in range(mesh.J):
        gidx, lidx = dofs.element_dofs(e)
        m.add_block(gidx, me[np.ix_(lidx, lidx)])
        s.add_block(gidx, se[np.ix_(lidx, lidx)])
    return GlobalMatrices(mass=m, stiffness=s)


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


def forcing(model: BeamModel, x, t: float):
    """Equivalent load density f(x,t) after lifting the support motion."""
    x = _check_domain(x, model.L)
    h_val, h_d4 = lifting(x, model.L)
    out = -h_val * model.phi.d2(t) - model.k2 * h_d4 * model.phi.value(t)
    if model.f_tilde is not None:
        out = out + model.f_tilde(x, t)
    return out


# ---------------------------------------------------------------------------
# load vectors
# ---------------------------------------------------------------------------


#: Sample budget of one block of load windows: a block holds
#: max(16, LOAD_BLOCK_SAMPLES // 4J) windows of two Gauss times each, so
#: the assembler's sample buffer is about 512 KB whatever the horizon.
LOAD_BLOCK_SAMPLES = 2**15


class LoadAssembler:
    """Precomputed quadrature scatter for load vectors on a fixed mesh.

    Free node i (1..J) is the right end of element i-1 and the left end
    of element i, so its (value, slope) load reads the 8 density samples
    of those two elements (4 Gauss points each; zeros past the tip).
    ``node_weights[k, d]`` is weight times basis value of the node's DOF
    d at the k-th of those samples, and a load vector is the
    ``(J x 8) @ (8 x 2)`` product over a strided view of the samples.

    The samples live in one preallocated ``(2, block_rows, 4J + 4)``
    buffer, so a block of up to ``block_rows`` time windows (two Gauss
    times each) is one density pass and one product.  Every entry is
    computed elementwise in the same order for one time as for a block,
    so a block is bit-identical to its windows one at a time.
    """

    def __init__(self, mesh: Mesh, model: BeamModel):
        self.mesh = mesh
        self.model = model
        self.xq = (mesh.nodes[:-1, None] + GAUSS4_POINTS * mesh.h).ravel()
        shapes = hermite_shape(GAUSS4_POINTS, mesh.h) * (GAUSS4_WEIGHTS * mesh.h)
        self.node_weights = np.vstack([shapes[2:].T, shapes[:2].T])
        self.block_rows = max(16, LOAD_BLOCK_SAMPLES // self.xq.size)
        self._samples = np.zeros((2, self.block_rows, self.xq.size + 4))
        self._windows = np.lib.stride_tricks.sliding_window_view(
            self._samples, 8, axis=2
        )[:, :, ::4]
        self._neg_h_q = -lifting(self.xq, mesh.L)[0]
        self._c_phi = 8.0 * model.k2 / mesh.L**4

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
        return self._windows[:m, :k] @ self.node_weights

    def density(self, t: float) -> np.ndarray:
        """f(x_q, t) at all quadrature points."""
        return self._fill(np.full((1, 1), t))[0, 0].copy()

    def at_time(self, t: float) -> np.ndarray:
        return self._scatter(np.full((1, 1), t))[0, 0].ravel()

    def time_averaged(self, n, dt: float, horizon: float | None = None) -> np.ndarray:
        """Average load over [n dt, (n+1) dt], normalized by 1/dt.

        If the window runs past the horizon T the integral stops at T
        while the 1/dt normalization is kept, so the final partial
        window is weighted by its actual length (zero past T).  ``n`` is
        one window index, giving one vector, or an array of k indices,
        giving the (k x 2J) block of their vectors, built ``block_rows``
        windows per pass.
        """
        ns = np.asarray(n)
        a = ns * dt
        b = (ns + 1) * dt
        if horizon is not None:
            b = np.minimum(b, horizon)
        width = b - a
        out = np.zeros(ns.shape + (2 * self.mesh.J,))
        flat, a, width = out.reshape(-1, out.shape[-1]), a.ravel(), width.ravel()
        live = np.flatnonzero(width > 0.0)
        for i in range(0, live.size, self.block_rows):
            rows = live[i : i + self.block_rows]
            w = width[rows]
            ts = a[rows] + GAUSS2_POINTS[:, None] * w
            l0, l1 = self._scatter(ts).reshape(2, rows.size, -1)
            flat[rows] = (0.5 * w / dt)[:, None] * (l0 + l1)
        return out


def assemble_load(mesh: Mesh, model: BeamModel, t: float) -> np.ndarray:
    """Load vector (f(., t), basis_i) by per-element Gauss quadrature."""
    return LoadAssembler(mesh, model).at_time(t)


def time_averaged_load(
    mesh: Mesh, model: BeamModel, n: int, dt: float, horizon: float | None = None
) -> np.ndarray:
    """Load vector averaged over the n-th time window (1/dt normalization)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if n < 0:
        raise ValueError("window index must be non-negative")
    return LoadAssembler(mesh, model).time_averaged(n, dt, horizon)


# ---------------------------------------------------------------------------
# evaluation and interpolation
# ---------------------------------------------------------------------------


def evaluate(dofs: np.ndarray, mesh: Mesh, x):
    """Displacement and slope of the FE function at positions x.

    Exactly reproduces the nodal DOF values at nodes; the clamped node
    contributes zeros.
    """
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape[0] != 2 * mesh.J:
        raise ValueError("DOF vector length must be 2J")
    x = _check_domain(x, mesh.L)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    e = np.minimum((xv / mesh.h).astype(int), mesh.J - 1)
    s = xv / mesh.h - e
    padded = np.concatenate([[0.0, 0.0], dofs])
    vals = np.stack([padded[2 * e + k] for k in range(4)])
    disp = np.einsum("kq,kq->q", hermite_shape(s, mesh.h), vals)
    slope = np.einsum("kq,kq->q", hermite_shape_d1(s, mesh.h), vals)
    if scalar:
        return float(disp[0]), float(slope[0])
    return disp, slope


def interpolate_profile(mesh: Mesh, value_fn, slope_fn) -> np.ndarray:
    """DOF vector of the Hermite interpolant of a (value, slope) profile."""
    out = np.empty(2 * mesh.J)
    xs = mesh.nodes[1:]
    out[0::2] = np.asarray(value_fn(xs), dtype=float)
    out[1::2] = np.asarray(slope_fn(xs), dtype=float)
    return out
