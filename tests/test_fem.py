"""Mesh, Hermite elements, assembly, lifting/forcing and load vectors.

The oracles here avoid the production quadrature: elemental integrals are
recomputed with exact polynomial arithmetic on basis functions re-derived
from their interpolation conditions, and load vectors are cross-checked
with scipy's adaptive quadrature.
"""

import numpy as np
import pytest
import scipy.integrate
from numpy.polynomial import Polynomial

from beamstops.fem import (
    GAUSS2_POINTS,
    GAUSS4_POINTS,
    GAUSS4_WEIGHTS,
    HALF_BANDWIDTH,
    BeamModel,
    DofMap,
    LoadAssembler,
    Mesh,
    SupportMotion,
    assemble,
    assemble_load,
    elemental_mass,
    elemental_stiffness,
    evaluate,
    forcing,
    hermite_shape,
    hermite_shape_d1,
    interpolate_profile,
    lifting,
    lifting_slope,
    time_averaged_load,
)

PIPE = dict(L=1.501, J=19, k2=282.84)


def physical_basis(h):
    """Hermite cubics on [0, h] re-derived from interpolation conditions."""
    conds = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],  # p(0)
            [0.0, 1.0, 0.0, 0.0],  # p'(0)
            [1.0, h, h * h, h**3],  # p(h)
            [0.0, 1.0, 2.0 * h, 3.0 * h * h],  # p'(h)
        ]
    )
    basis = []
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        basis.append(Polynomial(np.linalg.solve(conds, e)))
    return basis


def exact_elemental(h, k2):
    """(mass, stiffness) by exact polynomial integration of the basis."""
    basis = physical_basis(h)
    m = np.empty((4, 4))
    s = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            pm = (basis[i] * basis[j]).integ()
            ps = (basis[i].deriv(2) * basis[j].deriv(2)).integ()
            m[i, j] = pm(h) - pm(0.0)
            s[i, j] = k2 * (ps(h) - ps(0.0))
    return m, s


# ------------------------------------------------------------- mesh / DOF map

def test_mesh_basics():
    mesh = Mesh(PIPE["L"], PIPE["J"])
    assert mesh.h == pytest.approx(PIPE["L"] / 19)
    assert mesh.nodes.size == 20
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == pytest.approx(PIPE["L"])
    with pytest.raises(ValueError):
        Mesh(0.0, 5)
    with pytest.raises(ValueError):
        Mesh(1.0, 0)


def test_dof_map_indices():
    dofs = DofMap(19)
    assert dofs.ndof == 38
    assert dofs.tip_disp == 36 and dofs.tip_slope == 37
    assert dofs.disp_index(1) == 0 and dofs.slope_index(1) == 1
    assert dofs.disp_index(19) == 36
    assert dofs.half_bandwidth == HALF_BANDWIDTH == 3
    g0, l0 = dofs.element_dofs(0)
    assert list(g0) == [0, 1] and list(l0) == [2, 3]  # clamped node dropped
    g5, l5 = dofs.element_dofs(5)
    assert list(g5) == [8, 9, 10, 11] and list(l5) == [0, 1, 2, 3]


# ------------------------------------------------------------ shape functions

def test_hermite_shape_interpolation_conditions():
    h = 0.73
    basis = physical_basis(h)
    for s in (0.0, 0.17, 0.5, 0.99, 1.0):
        vals = hermite_shape(s, h)
        ders = hermite_shape_d1(s, h)
        for k in range(4):
            assert vals[k] == pytest.approx(basis[k](s * h), abs=1e-13)
            assert ders[k] == pytest.approx(basis[k].deriv()(s * h), abs=1e-12)


def test_hermite_partition_of_unity():
    s = np.linspace(0.0, 1.0, 11)
    vals = hermite_shape(s, 2.0)
    np.testing.assert_allclose(vals[0] + vals[2], 1.0, atol=1e-14)


# ---------------------------------------------------------- elemental matrices

@pytest.mark.parametrize("h", [1.0, 0.079, 2.5])
def test_elemental_mass_matches_polynomial_integration(h):
    m, _ = exact_elemental(h, 1.0)
    np.testing.assert_allclose(elemental_mass(h), m, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("h,k2", [(1.0, 1.0), (0.079, 282.84), (2.5, 0.3)])
def test_elemental_stiffness_matches_polynomial_integration(h, k2):
    _, s = exact_elemental(h, k2)
    np.testing.assert_allclose(elemental_stiffness(h, k2), s, rtol=1e-12, atol=1e-12)


def test_elemental_matrices_symmetric_psd():
    for h in (0.05, 1.0, 3.0):
        m = elemental_mass(h)
        s = elemental_stiffness(h, 7.0)
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(s, s.T)
        assert np.all(np.linalg.eigvalsh(m) > 0.0)
        assert np.min(np.linalg.eigvalsh(s)) > -1e-12  # rank 2, PSD


def test_stiffness_annihilates_rigid_and_linear_modes():
    h, k2 = 0.6, 4.2
    s = elemental_stiffness(h, k2)
    translation = np.array([1.0, 0.0, 1.0, 0.0])
    ramp = np.array([0.0, 1.0, h, 1.0])  # w(x) = x in (value, slope) DOFs
    np.testing.assert_allclose(s @ translation, 0.0, atol=1e-12)
    np.testing.assert_allclose(s @ ramp, 0.0, atol=1e-12)


def test_elemental_matrices_reject_bad_arguments():
    with pytest.raises(ValueError):
        elemental_mass(0.0)
    with pytest.raises(ValueError):
        elemental_stiffness(1.0, -1.0)


# -------------------------------------------------------------------- assembly

def dense_assembly(mesh, k2):
    """Global matrices assembled densely from the polynomial oracle."""
    dofs = DofMap(mesh.J)
    me, se = exact_elemental(mesh.h, k2)
    m = np.zeros((dofs.ndof, dofs.ndof))
    s = np.zeros((dofs.ndof, dofs.ndof))
    for e in range(mesh.J):
        g, loc = dofs.element_dofs(e)
        m[np.ix_(g, g)] += me[np.ix_(loc, loc)]
        s[np.ix_(g, g)] += se[np.ix_(loc, loc)]
    return m, s


@pytest.mark.parametrize("J", [1, 2, 5, 19])
def test_assemble_matches_dense_oracle(J):
    mesh = Mesh(PIPE["L"], J)
    model = BeamModel(k2=PIPE["k2"], L=PIPE["L"])
    gm = assemble(mesh, model)
    m_ref, s_ref = dense_assembly(mesh, PIPE["k2"])
    np.testing.assert_allclose(gm.mass.to_dense(), m_ref, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(gm.stiffness.to_dense(), s_ref, rtol=1e-11, atol=1e-9)
    assert gm.mass.bw == gm.stiffness.bw == min(3, 2 * J - 1)


def test_assemble_interior_overlap_entry():
    # first retained diagonal entry sums the two elements sharing node 1
    mesh = Mesh(2.0, 4)
    gm = assemble(mesh, BeamModel(k2=1.0, L=2.0))
    h = mesh.h
    assert gm.mass.to_dense()[0, 0] == pytest.approx(2 * 156.0 * h / 420.0)
    assert gm.stiffness.to_dense()[0, 0] == pytest.approx(2 * 12.0 / h**3)


# ----------------------------------------------------------- lifting / forcing

def test_lifting_boundary_conditions():
    """Five conditions pin the quartic uniquely: clamped end follows the
    support, free end is moment- and shear-free, and the fourth derivative
    is the constant -8/L^4."""
    L = PIPE["L"]
    val0, _ = lifting(0.0, L)
    assert val0 == pytest.approx(1.0, abs=1e-14)
    assert lifting_slope(0.0, L) == pytest.approx(0.0, abs=1e-14)
    valL, d4 = lifting(L, L)
    assert valL == pytest.approx(0.0, abs=1e-14)
    assert d4 == pytest.approx(-8.0 / L**4, rel=1e-14)
    # h'' and h''' at the free end, via one-sided stencils inside the beam
    eps = 1e-4
    grid = L + eps * np.array([-3.0, -2.0, -1.0, 0.0])
    vals = np.array([lifting(x, L)[0] for x in grid])
    d2 = (2 * vals[3] - 5 * vals[2] + 4 * vals[1] - vals[0]) / eps**2
    d3 = (vals[3] - 3 * vals[2] + 3 * vals[1] - vals[0]) / eps**3
    assert abs(d2) < 1e-6
    assert abs(d3) < 1e-3


def test_lifting_slope_matches_difference_quotient():
    L = 2.3
    for x in (0.3, 1.0, 2.1):
        eps = 1e-6
        num = (lifting(x + eps, L)[0] - lifting(x - eps, L)[0]) / (2 * eps)
        assert lifting_slope(x, L) == pytest.approx(num, abs=1e-9)


def test_lifting_rejects_points_outside_beam():
    with pytest.raises(ValueError):
        lifting(-0.1, 1.0)
    with pytest.raises(ValueError):
        lifting(1.2, 1.0)


def test_forcing_combines_support_terms():
    L, k2 = PIPE["L"], PIPE["k2"]
    model = BeamModel(k2=k2, L=L, phi=SupportMotion.sine(0.2, 10.0))
    t = np.pi / 20.0  # 10 t = pi/2: phi = 0.2, phi'' = -20
    x = np.linspace(0.0, L, 7)
    hval = np.array([lifting(xi, L)[0] for xi in x])
    expect = 20.0 * hval + 0.2 * 8.0 * k2 / L**4
    np.testing.assert_allclose(forcing(model, x, t), expect, rtol=1e-12)


def test_forcing_includes_external_load():
    model = BeamModel(k2=1.0, L=1.0, f_tilde=lambda x, t: 3.0 * x + t)
    np.testing.assert_allclose(forcing(model, np.array([0.5]), 2.0), [3.5])


# ---------------------------------------------------------------- load vectors

def quad_load_oracle(mesh, model, t):
    """Load vector via adaptive quadrature, independent of the Gauss rule."""
    L = model.L
    coeffs = [1.0, 0.0, -2.0 / L**2, 4.0 / (3.0 * L**3), -1.0 / (3.0 * L**4)]
    lift_poly = Polynomial(coeffs)

    def density(x):
        val = -lift_poly(x) * model.phi.d2(t) + (8.0 * model.k2 / L**4) * model.phi.value(t)
        if model.f_tilde is not None:
            val = val + model.f_tilde(x, t)
        return val

    dofs = DofMap(mesh.J)
    basis = physical_basis(mesh.h)
    out = np.zeros(dofs.ndof)
    for e in range(mesh.J):
        x0 = mesh.nodes[e]
        g, loc = dofs.element_dofs(e)
        for gi, li in zip(g, loc):
            val, _ = scipy.integrate.quad(
                lambda x: density(x0 + x) * basis[li](x), 0.0, mesh.h
            )
            out[gi] += val
    return out


def test_assemble_load_matches_adaptive_quadrature():
    mesh = Mesh(PIPE["L"], 6)
    model = BeamModel(
        k2=PIPE["k2"], L=PIPE["L"], phi=SupportMotion.sine(0.2, 10.0)
    )
    for t in (0.0, 0.11, 1.7):
        ref = quad_load_oracle(mesh, model, t)
        np.testing.assert_allclose(assemble_load(mesh, model, t), ref, rtol=1e-12, atol=1e-14)


def test_assemble_load_with_external_term():
    # cos is not polynomial, so only quadrature-accurate agreement is due
    mesh = Mesh(1.0, 4)
    model = BeamModel(k2=2.0, L=1.0, f_tilde=lambda x, t: np.cos(3.0 * x))
    ref = quad_load_oracle(mesh, model, 0.5)
    np.testing.assert_allclose(assemble_load(mesh, model, 0.5), ref, rtol=1e-5, atol=1e-8)


def test_constant_density_single_element_load():
    # f = 1 on one element: tip value DOF gets h/2, tip slope DOF -h^2/12
    mesh = Mesh(0.8, 1)
    model = BeamModel(k2=1.0, L=0.8, f_tilde=lambda x, t: np.ones_like(x))
    load = assemble_load(mesh, model, 0.0)
    h = mesh.h
    np.testing.assert_allclose(load, [h / 2.0, -h * h / 12.0], rtol=1e-13)


def test_time_average_exact_for_linear_ramp():
    """The two-point Gauss rule in time is exact for a density linear in t,
    including a final window clamped at the horizon."""
    mesh = Mesh(1.0, 3)
    model = BeamModel(k2=1.0, L=1.0, f_tilde=lambda x, t: (2.0 + 3.0 * t) * np.ones_like(x))
    dt = 0.25
    base = assemble_load(mesh, BeamModel(k2=1.0, L=1.0, f_tilde=lambda x, t: np.ones_like(x)), 0.0)
    # full window [dt, 2 dt]: mean of 2 + 3 t over it is 2 + 3 * (1.5 dt)
    got = time_averaged_load(mesh, model, 1, dt)
    np.testing.assert_allclose(got, (2.0 + 4.5 * dt) * base, rtol=1e-13, atol=1e-15)
    # clamped window [2 dt, T] with T = 2.2 dt: integral over 0.2 dt, still / dt
    horizon = 2.2 * dt
    got = time_averaged_load(mesh, model, 2, dt, horizon=horizon)
    mean_t = 0.5 * (2.0 * dt + horizon)
    width = horizon - 2.0 * dt
    np.testing.assert_allclose(
        got, (2.0 + 3.0 * mean_t) * base * (width / dt), rtol=1e-12, atol=1e-15
    )


def dense_load_matrix(mesh):
    """Q[i, q]: weight times basis value of DOF i at quadrature point q,
    built element by element (the scatter as a dense 2J x 4J matrix)."""
    dofs = DofMap(mesh.J)
    q = np.zeros((dofs.ndof, 4 * mesh.J))
    for e in range(mesh.J):
        gidx, lidx = dofs.element_dofs(e)
        for k in range(4):
            shapes = hermite_shape(GAUSS4_POINTS[k], mesh.h)
            q[gidx, 4 * e + k] = GAUSS4_WEIGHTS[k] * mesh.h * shapes[lidx]
    return q


@pytest.mark.parametrize("J", [1, 2, 19, 320])
def test_node_window_scatter_matches_dense_load_matrix(J):
    """The per-node window product equals Q @ density, at one time and
    averaged over a full and a horizon-clamped window."""
    mesh = Mesh(PIPE["L"], J)
    model = BeamModel(
        k2=PIPE["k2"],
        L=PIPE["L"],
        phi=SupportMotion.sine(0.2, 10.0),
        f_tilde=lambda x, t: np.cos(3.0 * x) * (1.0 + t) + x * x,
    )
    loads = LoadAssembler(mesh, model)
    q = dense_load_matrix(mesh)

    def close(got, ref):
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())

    for t in (0.0, 0.11, 1.7):
        close(loads.at_time(t), q @ loads.density(t))
    dt = 1e-3
    for n, horizon in ((7, None), (7, 7.4e-3)):
        width = (horizon or (n + 1) * dt) - n * dt
        ts = n * dt + GAUSS2_POINTS * width
        ref = (0.5 * width / dt) * (q @ loads.density(ts[0]) + q @ loads.density(ts[1]))
        close(loads.time_averaged(n, dt, horizon), ref)


def per_window_oracle(loads, n, dt, horizon):
    """The per-window load arithmetic, inline: the two Gauss-time densities
    scattered one at a time through a 2-D window product, then averaged."""
    model = loads.model
    samples = np.zeros(loads.xq.size + 4)
    windows = np.lib.stride_tricks.sliding_window_view(samples, 8)[::4]
    h_q, _ = lifting(loads.xq, model.L)
    c_phi = 8.0 * model.k2 / model.L**4

    def density(t):
        vals = -h_q * model.phi.d2(t) + c_phi * model.phi.value(t)
        if model.f_tilde is not None:
            vals = vals + model.f_tilde(loads.xq, t)
        return vals

    def scatter(t):
        samples[:-4] = density(t)
        return (windows @ loads.node_weights).ravel()

    a = n * dt
    b = min((n + 1) * dt, horizon)
    width = b - a
    if width <= 0.0:
        return np.zeros(2 * loads.mesh.J)
    t0 = a + GAUSS2_POINTS[0] * width
    t1 = a + GAUSS2_POINTS[1] * width
    return (0.5 * width / dt) * (scatter(t0) + scatter(t1))


@pytest.mark.parametrize("J", [1, 2, 19, 320])
@pytest.mark.parametrize("external", [False, True])
def test_blocked_time_average_is_bit_identical_to_per_window(J, external):
    """A block of windows longer than one pass of the sample buffer, ending
    with a horizon-clipped window and two windows past T, equals the
    per-window arithmetic to the last bit, in any index order."""
    mesh = Mesh(PIPE["L"], J)
    model = BeamModel(
        k2=PIPE["k2"],
        L=PIPE["L"],
        phi=SupportMotion.sine(0.2, 10.0),
        f_tilde=(lambda x, t: np.cos(3.0 * x) * (1.0 + t) + x * x) if external else None,
    )
    loads = LoadAssembler(mesh, model)
    dt = 1e-3
    ns = np.arange(loads.block_rows - 4, 2 * loads.block_rows + 3)
    horizon = (ns[-3] + 0.4) * dt
    block = loads.time_averaged(ns, dt, horizon)
    assert block.shape == (ns.size, 2 * J)
    ref = np.array([per_window_oracle(loads, int(n), dt, horizon) for n in ns])
    assert np.array_equal(block, ref)
    assert np.all(block[-2:] == 0.0) and np.all(block[-3] != 0.0)
    assert np.array_equal(loads.time_averaged(int(ns[-3]), dt, horizon), ref[-3])
    order = np.random.default_rng(J).permutation(ns.size)
    assert np.array_equal(loads.time_averaged(ns[order], dt, horizon), ref[order])


def test_time_average_empty_window_is_zero():
    mesh = Mesh(1.0, 3)
    model = BeamModel(k2=1.0, L=1.0, phi=SupportMotion.sine(1.0, 2.0))
    got = time_averaged_load(mesh, model, 5, 0.1, horizon=0.5)
    np.testing.assert_array_equal(got, np.zeros(6))
    with pytest.raises(ValueError):
        time_averaged_load(mesh, model, -1, 0.1)


# --------------------------------------------------------- evaluate / profiles

def test_evaluate_reproduces_clamped_cubic():
    """A cubic with w(0) = w'(0) = 0 lies in the FE space and must be
    reproduced pointwise from its nodal DOFs."""
    mesh = Mesh(1.7, 5)

    def w(x):
        return 0.3 * x**2 - 0.11 * x**3

    def wp(x):
        return 0.6 * x - 0.33 * x**2

    coeffs = interpolate_profile(mesh, w, wp)
    x = np.linspace(0.0, 1.7, 40)
    disp, slope = evaluate(coeffs, mesh, x)
    np.testing.assert_allclose(disp, w(x), rtol=0, atol=1e-13)
    np.testing.assert_allclose(slope, wp(x), rtol=0, atol=1e-12)


def test_evaluate_nodal_values():
    mesh = Mesh(1.0, 4)
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal(8)
    disp, slope = evaluate(coeffs, mesh, mesh.nodes[1:])
    np.testing.assert_allclose(disp, coeffs[0::2], atol=1e-14)
    np.testing.assert_allclose(slope, coeffs[1::2], atol=1e-13)
    assert evaluate(coeffs, mesh, 0.0) == (0.0, 0.0)  # clamped end


def test_evaluate_scalar_input_returns_scalars():
    mesh = Mesh(1.0, 2)
    coeffs = np.array([0.1, 0.0, 0.2, 0.05])
    disp, slope = evaluate(coeffs, mesh, 0.75)
    assert np.ndim(disp) == 0 and np.ndim(slope) == 0
