import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greenks import pde
from greenks.domain import (Field, Grid, GridMismatchError, gradient, norm_l1, norm_l2,
                            periodic_convolve)
from greenks.greens import GreensBasis, elliptic_solve
from greenks.harness import compare_runs, young_drift_sides
from greenks.kernel import PeriodizedKernel, adhesion_potential, periodize
from greenks.pde import (ChemicalSpec, InputValidationError, ModelFunctions,
                         NumericalAbortError, RunConfig, StepPlan, drift_velocity_chemo,
                         porous_medium_model, run, run_ensemble, step_u,
                         linear_saturating_g, step_v_parabolic, volume_filling_g)
from oracles import centred_gradient_roll

ONES = lambda r: np.ones_like(np.asarray(r, dtype=float))
rfft = np.fft.rfftn


def plan_for(g, chem=None, model=None):
    chem = ChemicalSpec([1.0], [1.0], 0.0) if chem is None else chem
    return StepPlan.build(model or porous_medium_model(2.0), [chem], g)


def nonlocal_drift(u, W):
    return drift_velocity_chemo(plan_for(u.grid, W), rfft(u.values))


def bump(grid, amp=0.8, width=0.4):
    x = grid.axis_centers()
    prof = np.where(np.abs(x) < width,
                    np.cos(0.5 * math.pi * x / width) ** 2, 0.0)
    return Field(grid, amp * prof)


# --- model functions ------------------------------------------------------

def test_porous_medium_presets():
    m = porous_medium_model(2.0)
    u = np.array([0.0, 0.5, 1.0])
    assert np.allclose(m.beta(u), u ** 2)
    assert np.allclose(m.beta_prime(u), 2 * u)
    assert np.allclose(m.phi(u), u ** 3 / 3.0)


def test_gamma_one_is_linear():
    # at gamma = 1 the power formulas give the linear model's values bit for bit:
    # |u| sign(u) = u, 1 |u|^0 = 1 and |u| |u| / 2 = u^2 / 2
    rng = np.random.default_rng(11)
    u = np.concatenate((rng.random(200), [0.0, 1.0, 5e-324, -1e-7, 1.0 + 1e-7]))
    for eta in (0.0, 0.01, 7 / 3):
        m = porous_medium_model(1.0, eta=eta)
        assert np.array_equal(m.beta(u), u + eta * u)
        assert np.array_equal(m.beta_prime(u), np.ones_like(u) + eta)
        assert np.array_equal(m.phi(u), 0.5 * u ** 2 + 0.5 * eta * u * u)


def test_eta_regularization():
    # the expressions and operation order of the regularization as it was
    # applied when the solver called it, bit for bit
    m = porous_medium_model(2.0, eta=0.1)
    u = np.append(np.linspace(0.0, 1.0, 101), 1.0 + 1e-7)
    assert np.array_equal(m.beta(u), u ** 2 + 0.1 * u)
    assert np.array_equal(m.beta_prime(u), 2 * u + 0.1)
    assert np.array_equal(m.phi(u), np.abs(u) ** 2.0 * np.abs(u) / 3.0 + 0.5 * 0.1 * u * u)


@pytest.mark.parametrize("eta", [-0.5, -2.0, math.nan, math.inf, -1e-4, -1e-6])
def test_invalid_eta_is_rejected(eta):
    # the solver runs beta + eta u, so that is what must be strictly increasing: at
    # gamma > 1 any eta < 0 takes u^gamma + eta u below 0 near u = 0, and at
    # gamma = 1 (1 + eta) u needs eta > -1; a non-finite eta is rejected too
    for gamma in (1.5, 2.0):
        with pytest.raises(ValueError, match="strictly increasing|finite"):
            porous_medium_model(gamma, eta=eta)
    with pytest.raises(ValueError):
        porous_medium_model(1.0, eta=eta - 1.0)
    for gamma in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma"):
            porous_medium_model(gamma)
    with pytest.raises(ValueError, match="^g must"):
        porous_medium_model(2.0, g=lambda s: s)


def test_model_is_its_parameters():
    assert [f.name for f in dataclasses.fields(ModelFunctions)] == ["gamma", "eta", "g"]
    assert porous_medium_model is ModelFunctions
    # eta > -1 is enough at gamma = 1; gamma = 150 underflows u^gamma to 0 at
    # small u, which leaves beta a valid model
    linear = porous_medium_model(1.0, eta=-0.5)
    u = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(linear.beta(u), u + -0.5 * u)
    assert porous_medium_model(150.0).beta(np.array([1e-3]))[0] == 0.0
    # dataclasses.replace builds a checked copy
    with pytest.raises(ValueError, match="strictly increasing"):
        dataclasses.replace(linear, gamma=2.0)
    assert dataclasses.replace(linear, g=linear_saturating_g).g is linear_saturating_g


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.floats(1.0, 50.0), st.floats(0.0, 10.0))
       | st.tuples(st.just(1.0), st.floats(-1.0, 10.0, exclude_min=True)),
       st.sampled_from([volume_filling_g, linear_saturating_g]))
def test_every_accepted_model_has_the_sampled_invariants(params, g_fn):
    # the properties the exact rule stands for, at 1001 samples, for every
    # parameter it accepts
    gamma, eta = params
    model = porous_medium_model(gamma, eta, g_fn)
    s = np.linspace(0.0, 1.0, 1001)
    b, bp = model.beta(s), model.beta_prime(s)
    assert b[0] == 0.0
    assert np.all(bp[1:] > 0.0) and np.all(np.diff(bp) >= 0.0)
    # strictly increasing wherever u^gamma does not underflow; at gamma = 1 with
    # 1 + eta below about 1e-12, u + eta u cancels to rounding and is only nondecreasing
    assert np.all(np.diff(b) >= 0.0)
    assert np.all(np.diff(b)[(s[1:] ** gamma > 0.0) & (1.0 + eta > 1e-12)] > 0.0)
    gs = model.g(s)
    assert gs[-1] == 0.0 and np.all(np.abs(gs) <= s)
    assert np.array_equal(model.g(np.array([-0.5, 1.5])), [0.0, 0.0])


def test_model_functions_are_frozen():
    # a function assigned after construction would skip the checks of __post_init__
    model = porous_medium_model(2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.g = lambda s: s


def test_chemical_spec_validation():
    with pytest.raises(ValueError):
        ChemicalSpec([1.0], [1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        ChemicalSpec([-1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        ChemicalSpec([1.0], [1.0], 2.0)


# --- drift velocities -----------------------------------------------------

def test_nonlocal_drift_vanishes_for_constant_density():
    g = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), g)
    for comp in nonlocal_drift(Field.constant(g, 0.4), W):
        assert np.abs(comp).max() < 1e-12


def test_nonlocal_drift_vanishes_for_zero_kernel():
    g = Grid(1, 1.0, 64)
    zero = Field.constant(g, 0.0)
    W = PeriodizedKernel(field=zero, truncation_radius_cells=0)
    vel = nonlocal_drift(bump(g), W)
    assert np.abs(vel[0]).max() == 0.0


def test_nonlocal_drift_single_mode():
    g = Grid(1, 1.0, 128)
    d = 1.0
    basis = GreensBasis.build(g, [d])
    W = basis.as_kernel([1.0])
    x = g.axis_centers()
    w = math.pi / g.half_length
    u = Field(g, np.cos(w * x))
    vel = nonlocal_drift(u, W)[0]
    factor = 1.0 / (1.0 + d * w * w)
    # exact discrete value uses the centered-difference symbol
    discrete = -np.sin(w * x) * math.sin(w * g.h) / g.h * factor
    assert np.abs(vel - discrete).max() < 1e-13
    # continuum formula -(pi/L) sin(pi x/L) / (1 + d pi^2/L^2) up to O(h^2)
    continuum = -w * np.sin(w * x) * factor
    assert np.abs(vel - continuum).max() < 1e-3


def test_chemo_drift_trivial_cases():
    g = Grid(1, 1.0, 32)

    def drift(vs, a):
        plan = plan_for(g, ChemicalSpec([1.0 + j for j in range(len(a))], a, 0.5))
        return drift_velocity_chemo(plan, None, [rfft(v.values) for v in vs])[0]

    v1 = Field.constant(g, 2.0)
    assert np.abs(drift([v1], [1.0])).max() == 0.0
    rng = np.random.default_rng(0)
    v2 = Field(g, rng.random(g.shape))
    assert np.abs(drift([v2], [0.0])).max() == 0.0
    cancel = drift([v2, -2.0 * v2], [1.0, 0.5])
    assert np.abs(cancel).max() < 1e-13


def test_chemo_drift_validation():
    g = Grid(1, 1.0, 32)
    with pytest.raises(ValueError):
        plan_for(g, ChemicalSpec([], []))
    with pytest.raises(ValueError):
        plan_for(g, ChemicalSpec([1.0], [1.0, 2.0]))


# --- single updates -------------------------------------------------------

def test_step_u_heat_mode_decay():
    # beta = id, no drift: u_new = u + dt Lap_h u with the 3-point stencil
    g = Grid(1, 1.0, 8)
    plan = plan_for(g, model=porous_medium_model(1.0))
    x = g.axis_centers()
    w = math.pi / g.half_length
    u = 0.3 + 0.1 * np.cos(w * x)
    zero_vel = [np.zeros(g.shape)]
    dt = 1e-3
    out = step_u(plan, u, zero_vel, dt, plan.model.beta(u), plan.model.g(u))
    lam = 4.0 * math.sin(w * g.h / 2.0) ** 2 / g.h ** 2
    expected = 0.3 + 0.1 * (1.0 - dt * lam) * np.cos(w * x)
    assert np.abs(out - expected).max() < 1e-13


def test_step_u_is_conservative():
    g = Grid(2, 1.0, 16)
    rng = np.random.default_rng(3)
    u = rng.random(g.shape)
    vel = [rng.standard_normal(g.shape) for _ in range(2)]
    plan = plan_for(g)
    out = step_u(plan, u, vel, 1e-4, plan.model.beta(u), plan.model.g(u))
    assert abs(out.sum() - u.sum()) < 1e-13 * abs(u.sum())


def test_step_u_pure_phase_has_no_advection():
    # u in {0, 1}: g(u_upwind) = 0 on every face, so any velocity acts like none
    g = Grid(1, 1.0, 16)
    u = np.zeros(g.shape)
    u[4:9] = 1.0
    rng = np.random.default_rng(1)
    vel = [rng.standard_normal(g.shape)]
    zero = [np.zeros(g.shape)]
    plan = plan_for(g)
    with_vel = step_u(plan, u, vel, 1e-4, plan.model.beta(u), plan.model.g(u))
    without = step_u(plan, u, zero, 1e-4, plan.model.beta(u), plan.model.g(u))
    assert np.array_equal(with_vel, without)


def step_u_upwinding_u(plan, u, velocity, dt):
    """Reference update that upwinds u itself and evaluates g per axis."""
    model, h = plan.model, plan.grid.h
    beta_vals = model.beta(u)
    flux_div = 0.0
    for ax, vel in enumerate(velocity):
        v_face = 0.5 * (vel + np.roll(vel, -1, axis=ax))
        u_up = np.where(v_face > 0.0, u, np.roll(u, -1, axis=ax))
        flux = model.g(u_up) * v_face
        flux -= (np.roll(beta_vals, -1, axis=ax) - beta_vals) / h
        flux_div = flux_div + (flux - np.roll(flux, 1, axis=ax)) / h
    return u - dt * flux_div


@pytest.mark.parametrize("g_fn", [volume_filling_g, linear_saturating_g])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step_u_with_shared_state_values_is_bit_identical(g_fn, dim):
    # the values run() computes once per state, including slight bound excursions
    g = Grid(dim, 1.0, 8)
    model = dataclasses.replace(porous_medium_model(2.0, eta=0.05), g=g_fn)
    plan = plan_for(g, model=model)
    rng = np.random.default_rng(10 + dim)
    u = rng.random(g.shape)
    u.flat[0], u.flat[1], u.flat[2] = -1e-7, 1.0 + 1e-7, 1.0
    vel = [rng.standard_normal(g.shape) for _ in range(dim)]
    shared = step_u(plan, u, vel, 1e-4, model.beta(u), g_fn(u))
    assert np.array_equal(shared, step_u_upwinding_u(plan, u, vel, 1e-4))


@pytest.mark.parametrize("half_length, n", [(0.7, 12), (math.pi, 24)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step_u_on_a_non_dyadic_grid_is_the_reference_to_rounding(dim, half_length, n):
    # 1/h and dt/h are rounded when h is not a power of two, so the update may
    # differ from dividing by h in the last bits; it reads at most 2 ulps of
    # max|u| on these grids over 30 random states each, and 4 are allowed
    g = Grid(dim, half_length, n)
    plan = plan_for(g)
    rng = np.random.default_rng(50 + dim)
    u = rng.random(g.shape)
    vel = [rng.standard_normal(g.shape) for _ in range(dim)]
    dt = 0.1 * g.h * g.h
    got = step_u(plan, u, vel, dt, plan.model.beta(u), plan.model.g(u))
    ulp = np.spacing(np.abs(u).max())
    assert np.abs(got - step_u_upwinding_u(plan, u, vel, dt)).max() <= 4 * ulp


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step_u_leaves_its_inputs_unchanged(dim):
    # step_u builds its face quantities in place; none of them may alias an input
    g = Grid(dim, 1.0, 8)
    plan = plan_for(g)
    rng = np.random.default_rng(20 + dim)
    u = rng.random(g.shape)
    vel = [rng.standard_normal(g.shape) for _ in range(dim)]
    beta_vals, g_vals = plan.model.beta(u), plan.model.g(u)
    inputs = [u, beta_vals, g_vals, *vel]
    before = [a.copy() for a in inputs]
    out = step_u(plan, u, vel, 1e-4, beta_vals, g_vals)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
    assert not any(np.shares_memory(out, a) for a in inputs)


def stable_dt_of_u(plan, u, velocity, cfl_safety):
    """The dt formula as it read when stable_dt took the whole state u."""
    h, N = plan.grid.h, plan.grid.dim
    top = min(max(float(u.max()), 0.0), 1.0) or 1.0
    max_bp = float(plan.model.beta_prime(top * np.linspace(0.0, 1.0, 64)).max())
    speeds = [float(np.abs(v).max()) for v in velocity]
    dt_diff = h * h / (2.0 * N * max_bp + 1e-300)
    dt_adv = h / (2.0 * N * max(speeds) + 1e-300)
    return cfl_safety * min(dt_diff, dt_adv)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("u_max", [-1e-7, 0.0, 0.37, 1.0, 1.0 + 1e-7])
def test_stable_dt_from_the_state_maximum(dim, u_max):
    g = Grid(dim, 1.0, 8)
    plan = plan_for(g, model=porous_medium_model(2.0, eta=0.01))
    rng = np.random.default_rng(30 + dim)
    u = u_max - rng.random(g.shape)
    u.flat[3] = u_max
    for scale in (1e-3, 1e3):   # diffusive and advective CFL limits
        vel = [scale * rng.standard_normal(g.shape) for _ in range(dim)]
        assert (pde.stable_dt(plan, float(u.max()), vel, 0.4)
                == stable_dt_of_u(plan, u, vel, 0.4))


@pytest.mark.parametrize("eta", [0.0, 0.01])
@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 3.0, 3.7])
def test_stable_dt_from_the_table_is_the_64_sample_rule(gamma, eta):
    # stable_dt reads beta'(top) alone: beta' of every model is nondecreasing, so
    # that is the largest of the 64 samples on [0, top], bit for bit
    g = Grid(1, 1.0, 32)
    plan = plan_for(g, model=porous_medium_model(gamma, eta))
    still = [np.zeros((1, g.n))]   # no drift: the diffusive limit decides
    rng = np.random.default_rng(int(10 * gamma) + int(100 * eta))
    for u_max in np.concatenate((np.linspace(-0.01, 1.01, 103), rng.random(400),
                                 np.arange(1025) / 1024, np.arange(64) / 63, [5e-324, 1e-300])):
        u = np.array([u_max])
        assert pde.stable_dt(plan, float(u_max), still, 0.4) == stable_dt_of_u(plan, u, still, 0.4)


def test_diagnostics_csv_bytes():
    values = [(0.0, 1.0, -0.0, 0.8, 5e-324, 0.0, -1e-300),
              (1e-3, 1.0 / 3.0, -2.5e-7, 1.0 + 1e-7, 0.1, 7e22, -1.0 / 3.0)]
    d = pde.Diagnostics(*map(list, zip(*values)))
    # the join-per-value writer it replaced
    rows = [",".join(f"{v:.17g}" for v in row) for row in zip(*vars(d).values())]
    expected = "\n".join(["time,mass,min_u,max_u,phi,grad_beta_accum,drift_accum"] + rows)
    assert d.to_csv() == expected + "\n"
    assert "-0," in d.to_csv() and "4.9406564584124654e-324" in d.to_csv()


def test_diagnostics_csv_text():
    # the bytes perfbench reads: header "time" over the field ``times``
    d = pde.Diagnostics(np.array([0.0, 0.1]), np.array([1.0, 1.0 / 3.0]),
                        np.array([-0.0, 2.5e-7]), np.array([0.8, 1.0 + 1e-7]),
                        np.array([5e-324, 0.1]), np.array([0.0, 7e22]),
                        np.array([-1e-300, math.inf]))
    assert d.to_csv() == (
        "time,mass,min_u,max_u,phi,grad_beta_accum,drift_accum\n"
        "0,1,-0,0.80000000000000004,4.9406564584124654e-324,0,-1e-300\n"
        "0.10000000000000001,0.33333333333333331,2.4999999999999999e-07,"
        "1.0000001000000001,0.10000000000000001,7.0000000000000004e+22,inf\n")


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.7])
def test_porous_medium_phi_matches_the_antiderivative(gamma):
    eta = 0.3
    u = np.concatenate([np.linspace(0.0, 1.0, 101), [-1e-7, 1.0 + 1e-7, 1e-300]])
    expected = np.abs(u) ** (gamma + 1.0) / (gamma + 1.0) + eta * u * u / 2.0
    got = porous_medium_model(gamma, eta).phi(u)
    assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))


@pytest.mark.parametrize("eta", [0.0, 0.3])
@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 3.0, 3.7])
def test_porous_medium_phi_takes_abs_u_once_bit_for_bit(gamma, eta):
    # phi takes |u| once; the reference takes it twice, with the same values
    rng = np.random.default_rng(int(10 * gamma))
    u = np.concatenate((np.linspace(0.0, 1.0, 101), rng.random(200),
                        [0.0, 5e-324, -1e-7, 1.0 + 1e-7]))
    expected = np.abs(u) ** gamma * np.abs(u) / (gamma + 1.0)
    if eta:
        expected = expected + 0.5 * eta * u * u
    assert np.array_equal(porous_medium_model(gamma, eta).phi(u), expected)


def relaxed_step(v_old, u, d, xi, dt):
    plan = plan_for(u.grid, ChemicalSpec([d], [1.0], xi))
    v_hat = step_v_parabolic(plan, [rfft(v_old.values)], rfft(u.values), dt)
    return u.grid.irfft(v_hat[0])


def test_step_v_equilibrium_constant():
    g = Grid(1, 1.0, 32)
    c = Field.constant(g, 0.7)
    out = relaxed_step(c, c, d=1.0, xi=0.5, dt=1e-2)
    assert np.abs(out - 0.7).max() < 1e-13


def test_step_v_resolvent_limit():
    g = Grid(1, 1.0, 64)
    rng = np.random.default_rng(2)
    u = Field(g, rng.random(g.shape))
    v0 = Field.constant(g, 0.0)
    out = relaxed_step(v0, u, d=0.8, xi=1e-8, dt=1.0)   # dt/xi = 1e8
    ref = elliptic_solve(0.8, u)
    assert np.abs(out - ref.values).max() < 1e-6


def test_step_v_single_mode_amplification():
    g = Grid(1, 1.0, 8)
    d, xi, dt = 0.5, 0.1, 1e-3
    lam = dt / xi
    x = g.axis_centers()
    w = math.pi / g.half_length
    v0 = Field(g, np.cos(w * x))
    out = relaxed_step(v0, Field.constant(g, 0.0), d, xi, dt)
    factor = 1.0 / (1.0 + lam * (1.0 + d * w * w))
    assert np.abs(out - factor * v0.values).max() < 1e-14
    with pytest.raises(ValueError):
        step_v_parabolic(plan_for(g), [rfft(v0.values)], rfft(v0.values), dt)


# --- the time loop --------------------------------------------------------

def test_run_validates_initial_datum():
    g = Grid(1, 1.0, 32)
    cfg = RunConfig(g, t_end=0.01, snapshot_every=0.01)
    with pytest.raises(InputValidationError):
        run(porous_medium_model(1.0), ChemicalSpec([1.0], [1.0], 0.0),
            Field.constant(g, 1.5), cfg)


@pytest.mark.parametrize("chem", [
    ChemicalSpec([1.0], [1.0], 0.0),
    ChemicalSpec([1.0], [1.0], 1e-2),
    "kernel",
])
def test_constant_state_is_stationary(chem):
    g = Grid(1, 1.0, 32)
    if chem == "kernel":
        chem = periodize(adhesion_potential(ONES, 1), g)
    cfg = RunConfig(g, t_end=0.02, snapshot_every=0.01)
    series, state = run(porous_medium_model(2.0), chem, Field.constant(g, 0.4), cfg)
    for snap in series.snapshots:
        assert np.abs(snap.values - 0.4).max() < 1e-12
    d = state.diagnostics
    assert max(d.max_u) - min(d.min_u) < 1e-12


def test_snapshot_times_cover_interval():
    g = Grid(1, 1.0, 32)
    cfg = RunConfig(g, t_end=0.23, snapshot_every=0.05)
    series, _ = run(porous_medium_model(1.0), ChemicalSpec([1.0], [1.0], 0.0), bump(g), cfg)
    assert series.times[0] == 0.0
    assert series.times[-1] == pytest.approx(0.23)
    assert len(series.times) == 6


def test_snapshot_times_are_the_multiples_short_of_t_end():
    # the list they were built as before the snapshot count was checked up front
    g, rng = Grid(1, 1.0, 32), np.random.default_rng(5)
    cases = [(t, t / k) for t in (0.25, 0.23, 0.3, 0.7, 1.0) for k in range(1, 40)]
    cases += [(t, e) for t, e in zip(rng.random(400), rng.random(400)) if e <= t < 900 * e]
    for t_end, every in cases:
        k = math.floor(t_end / every + 1e-12)
        listed = [i * every for i in range(k + 1) if i * every < t_end - 1e-12 * t_end]
        assert pde._snapshot_times(RunConfig(g, t_end, snapshot_every=every)).tolist() == \
            listed + [t_end]


@pytest.mark.parametrize("every", [1e-12, 5e-324, 2.5e-4])
def test_run_config_rejects_more_snapshots_than_the_limit(every):
    # counted from t_end / snapshot_every, without building the snapshot times
    g = Grid(1, 1.0, 32)
    with pytest.raises(ValueError, match="more than 1000 snapshots"):
        RunConfig(g, t_end=0.25, snapshot_every=every)
    most = RunConfig(g, t_end=0.25, snapshot_every=0.25 / (pde._MAX_SNAPSHOTS - 1))
    assert len(pde._snapshot_times(most)) == pde._MAX_SNAPSHOTS == 1000


def test_run_config_rejects_a_fixed_dt_beyond_the_step_budget():
    # t_end / dt steps that the loop's budget cannot hold fail before any step
    g = Grid(1, 1.0, 32)
    assert 2.0 ** 25 <= pde._MAX_STEPS < 2.0 ** 26
    with pytest.raises(ValueError, match="^dt gives more than"):
        RunConfig(g, t_end=1.0, dt=2.0 ** -26)
    assert RunConfig(g, t_end=1.0, dt=2.0 ** -25).dt == 2.0 ** -25


def test_automatic_dt_beyond_the_step_budget_is_refused_before_the_first_step(monkeypatch):
    # u_max never falls below the mean of u0, so no automatic step is longer than
    # the diffusive step at that height; t_end over that bound is the step budget
    g, model, chem = Grid(1, 1.0, 32), porous_medium_model(2.0), ChemicalSpec([1.0], [1.0])
    u0 = radial_bump(g)
    lowest = u0.mean() * (1.0 - pde._MASS_TOL)
    longest = 0.4 * g.h ** 2 / (2.0 * model.beta_prime(lowest))
    _, state = run(model, chem, u0, RunConfig(g, t_end=0.01))
    assert 0.0 < np.diff(state.diagnostics.times).max() <= longest

    class Stepped(Exception):
        pass

    def step_u(*args):
        raise Stepped

    monkeypatch.setattr(pde, "step_u", step_u)
    for factor, refused in ((0.99, False), (1.01, True)):
        t_end = factor * pde._MAX_STEPS * longest
        cfg = RunConfig(g, t_end=t_end, snapshot_every=t_end)
        with pytest.raises(InputValidationError if refused else Stepped,
                           match="^t_end = .* needs more than" if refused else None):
            run(model, chem, u0, cfg)
    # a fixed dt has its own check in RunConfig; this one is for the automatic dt
    with pytest.raises(Stepped):
        run(model, chem, u0, RunConfig(g, t_end=1e3, dt=1e-4, snapshot_every=1e3))


def test_a_last_step_below_the_collapse_floor_ends_the_step_before():
    # 1280 steps of this dt fall 1.4e-14 short of t_end = 0.25, which once took
    # a 1281st step of that length; the step before now takes the leftover
    g, dt = Grid(1, 1.0, 8), 1.953124999999889e-4
    _, state = run(porous_medium_model(1.0), ChemicalSpec([1.0], [1.0]), radial_bump(g),
                   RunConfig(g, t_end=0.25, dt=dt, snapshot_every=0.25))
    times = state.diagnostics.times
    assert len(times) - 1 == 1280 and times[-1] == state.time == 0.25
    assert 0.0 < 0.25 - times[-2] - dt < 1e-13


def test_translation_equivariance():
    g = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), g)
    cfg = RunConfig(g, t_end=0.05, snapshot_every=0.05)
    u0 = bump(g)
    shift = 7
    u0_shift = Field(g, np.roll(u0.values, shift))
    s_a, _ = run(porous_medium_model(2.0), W, u0, cfg)
    s_b, _ = run(porous_medium_model(2.0), W, u0_shift, cfg)
    for sa, sb in zip(s_a.snapshots, s_b.snapshots):
        assert np.abs(np.roll(sa.values, shift) - sb.values).max() < 1e-12


def test_single_green_coincidence_small():
    g = Grid(1, 1.0, 64)
    basis = GreensBasis.build(g, [1.0])
    W = basis.as_kernel([2.0])
    cfg = RunConfig(g, t_end=0.1, snapshot_every=0.02)
    model = porous_medium_model(2.0)
    s_nl, _ = run(model, W, bump(g), cfg)
    s_pe, _ = run(model, ChemicalSpec([1.0], [2.0], 0.0), bump(g), cfg)
    assert compare_runs(s_nl, s_pe) < 1e-8


def test_attraction_case_aggregates():
    # negatively scaled omega = 1 potential: the attractive orientation under
    # the drift -div(g(u) grad(W*u)); max_u rises over [0, 0.5]
    g = Grid(1, 1.0, 64)
    base = periodize(adhesion_potential(ONES, 1), g)
    W = PeriodizedKernel(field=-50.0 * base.field,
                         truncation_radius_cells=base.truncation_radius_cells)
    cfg = RunConfig(g, t_end=0.5, snapshot_every=0.1)
    series, state = run(porous_medium_model(2.0), W, bump(g, amp=0.5), cfg)
    d = state.diagnostics
    mass0 = d.mass[0]
    assert max(abs(m - mass0) for m in d.mass) <= 1e-10 * abs(mass0)
    assert min(d.min_u) >= -1e-6 and max(d.max_u) <= 1.0 + 1e-6
    assert d.max_u[-1] > d.max_u[0]


def test_energy_diagnostic_inequality():
    g = Grid(1, 1.0, 64)
    cfg = RunConfig(g, t_end=0.25, snapshot_every=0.05)
    _, state = run(porous_medium_model(2.0), ChemicalSpec([1.0], [1.0], 0.0),
                   bump(g), cfg)
    d = state.diagnostics
    phi0 = d.phi[0]
    assert d.grad_beta_accum[-1] <= 2.0 * phi0 + d.drift_accum[-1] + 0.05


@pytest.mark.parametrize("half_length", [1.0, 0.7])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grad_beta_accum_of_one_state_is_the_centred_gradient(dim, half_length):
    # the observer sums (b[i+2] - b[i])^2 / 4h^2, one shift per axis; on a
    # periodic axis that is the sum of the squared centred differences
    g = Grid(dim, half_length, 12)
    u0 = Field(g, 0.9 * np.random.default_rng(60 + dim).random(g.shape))
    model, dt = porous_medium_model(2.0), 1e-6
    _, state = run(model, ChemicalSpec([1.0], [1.0], 0.0), u0, RunConfig(g, t_end=dt, dt=dt))
    grad = centred_gradient_roll(model.beta(u0.values), g.h)
    expected = sum(float((c * c).sum()) for c in grad) * dt * g.cell_volume
    assert state.diagnostics.grad_beta_accum[1] == pytest.approx(expected, rel=1e-15, abs=0.0)


# the overflow is the point; inf - inf in the drift then warns of the NaN it makes
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dt, message", [(None, "non-finite drift velocity"),
                                         (1e-4, "non-finite density")])
def test_non_finite_values_abort(dt, message):
    # a finite but huge sensitivity overflows the chemical potential; with a
    # fixed dt the NaN reaches u, where it fails both bound comparisons
    g = Grid(1, 1.0, 32)
    with pytest.raises(NumericalAbortError, match=message):
        run(porous_medium_model(2.0), ChemicalSpec([1.0], [1e308], 0.0), bump(g),
            RunConfig(g, t_end=0.01, dt=dt))


def test_collapsed_and_stalled_steps_abort(monkeypatch):
    g = Grid(1, 1.0, 32)
    proposals = iter([1e-3] + [1e-20] * 3)
    monkeypatch.setattr(pde, "stable_dt", lambda *args: next(proposals))
    chem, cfg = ChemicalSpec([1.0], [1.0], 0.0), RunConfig(g, t_end=0.01)
    with pytest.raises(NumericalAbortError, match="time step collapsed"):
        run(porous_medium_model(1.0), chem, bump(g), cfg)
    # without the floor, t + dt == t still stops the loop
    proposals = iter([1e-3] + [1e-20] * 3)
    monkeypatch.setattr(pde, "_MIN_DT_FRACTION", 0.0)
    with pytest.raises(NumericalAbortError, match="time stalled"):
        run(porous_medium_model(1.0), chem, bump(g), cfg)


def test_young_drift_bound():
    g = Grid(1, 1.0, 64)
    W = periodize(adhesion_potential(ONES, 1), g)
    rng = np.random.default_rng(8)
    u = Field(g, rng.random(g.shape))
    sides = young_drift_sides([u, 0.5 * u], W.field)
    assert all(0.0 < lhs <= rhs for lhs, rhs in sides)
    # one gradient serves every snapshot: the sides are those of one snapshot at a time
    assert sides == young_drift_sides([u], W.field) + young_drift_sides([0.5 * u], W.field)


def test_young_drift_bound_sums_the_gradient_components():
    # the left side is sqrt(sum_i ||d_i W * u||^2), not max_i ||d_i W * u||
    g = Grid(2, 1.0, 16)
    W = periodize(adhesion_potential(ONES, 2), g).field
    u = Field(g, np.random.default_rng(9).random(g.shape))
    parts = [norm_l2(periodic_convolve(c, u)) for c in gradient(W)]
    rhs = sum(norm_l1(c) for c in gradient(W)) * norm_l2(u)
    lhs = math.sqrt(sum(p * p for p in parts))
    assert max(parts) < 0.99 * lhs
    [sides] = young_drift_sides([u], W)
    assert sides == pytest.approx((lhs, rhs), rel=1e-12, abs=0.0)


# --- lockstep ensembles ---------------------------------------------------

def radial_bump(g):
    r2 = sum(m * m for m in g.meshgrid())
    return Field(g, 0.1 + 0.6 * np.where(r2 < 0.16, np.cos(0.5 * math.pi * np.sqrt(r2) / 0.4) ** 2,
                                         0.0))


def assert_same_run(got, expected):
    """Same steps and diagnostics rows, snapshots equal up to FFT rounding."""
    (series, state), (ref_series, ref_state) = got, expected
    assert np.array_equal(state.diagnostics.times, ref_state.diagnostics.times)
    assert series.times == ref_series.times
    for a, b in zip(series.snapshots + [state.u], ref_series.snapshots + [ref_state.u]):
        assert np.abs(a.values - b.values).max() <= 1e-12
    for column, ref in zip(vars(state.diagnostics).values(), vars(ref_state.diagnostics).values()):
        assert column == pytest.approx(ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("xi", [0.0, 0.05])
@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
def test_ensemble_of_copies_matches_the_solo_run(dim, n, xi):
    g = Grid(dim, 1.0, n)
    chem, model = ChemicalSpec([0.5, 2.0], [1.0, -0.5], xi), porous_medium_model(2.0)
    cfg = RunConfig(g, t_end=0.05, snapshot_every=0.025)
    solo = run(model, chem, radial_bump(g), cfg)
    members = run_ensemble(model, [chem] * 3, radial_bump(g), cfg)
    assert len(members) == 3
    for member in members:
        assert_same_run(member, solo)


@pytest.mark.parametrize("members", ["relaxed", "nonlocal-and-pe"])
def test_members_with_a_fixed_dt_match_their_solo_runs(members):
    # with one prescribed dt every member takes its solo steps
    g = Grid(1, 1.0, 64)
    chems = {"relaxed": [ChemicalSpec([0.5, 2.0], [1.0, -0.5], 0.1),
                         ChemicalSpec([0.5, 2.0], [2.0, 0.5], 0.01)],
             "nonlocal-and-pe": [_pinned_case("nonlocal-1d")[0],
                                 ChemicalSpec([0.5, 2.0], [1.0, -0.5], 0.0)]}[members]
    model, cfg = porous_medium_model(2.0), RunConfig(g, t_end=0.02, dt=1e-4, snapshot_every=0.01)
    for chem, member in zip(chems, run_ensemble(model, chems, radial_bump(g), cfg)):
        assert_same_run(member, run(model, chem, radial_bump(g), cfg))


def test_an_undershoot_halves_dt_for_every_member():
    # a fixed dt of 0.75 h^2 takes a one-cell spike of pure diffusion to
    # 0.5 (1 - 2 * 0.75) < 0 at its centre, while no value exceeds 1
    g = Grid(1, 1.0, 32)
    dt = 0.75 * g.h ** 2
    spike = Field(g, np.where(np.arange(g.n) == 16, 0.5, 0.0))
    chems = [ChemicalSpec([1.0], [0.0], 0.0), ChemicalSpec([1.0], [0.5], 0.0)]
    for _, state in run_ensemble(porous_medium_model(1.0), chems, spike, RunConfig(g, t_end=4 * dt, dt=dt)):
        d = state.diagnostics
        assert d.times[1] == dt / 2
        assert min(d.min_u) >= -1e-6 and max(d.max_u) <= 1.0


def test_lockstep_coincidence_is_at_rounding_level():
    # criterion 4's problem; in lockstep both members share every dt, so only
    # the rounding of the two drift symbols separates them (7.9e-17 measured)
    grid = Grid(1, 1.0, 256)
    rc = RunConfig(grid, t_end=0.5, snapshot_every=0.05)
    kernel = GreensBasis.build(grid, [1.0]).as_kernel([2.0])
    (s_nl, _), (s_pe, _) = run_ensemble(porous_medium_model(2.0),
                                        [kernel, ChemicalSpec([1.0], [2.0], 0.0)], bump(grid), rc)
    assert compare_runs(s_nl, s_pe) < 1e-14


# the overflow is the point; inf - inf in the drift then warns of the NaN it makes
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dt, message", [(None, "non-finite drift velocity in member 1"),
                                         (1e-4, "non-finite density in member 1")])
def test_ensemble_names_the_non_finite_member(dt, message):
    g = Grid(1, 1.0, 32)
    chems = [ChemicalSpec([1.0], [1.0], 0.0), ChemicalSpec([1.0], [1e308], 0.0),
             ChemicalSpec([1.0], [1e308], 0.0)]
    with pytest.raises(NumericalAbortError, match=message):
        run_ensemble(porous_medium_model(2.0), chems, bump(g), RunConfig(g, t_end=0.01, dt=dt))


def test_ensemble_names_the_member_that_loses_mass(monkeypatch):
    g = Grid(1, 1.0, 32)
    exact = pde.step_u

    def leaking(*args):
        out = exact(*args)
        out[2, 5] += 1e-6   # inside the bounds, but not conservative
        return out

    monkeypatch.setattr(pde, "step_u", leaking)
    with pytest.raises(NumericalAbortError, match="mass conservation lost in member 2"):
        run_ensemble(porous_medium_model(1.0), [ChemicalSpec([1.0], [1.0], 0.0)] * 3, bump(g),
                     RunConfig(g, t_end=0.01))


def test_run_rejects_a_config_on_another_grid():
    u0 = Field.constant(Grid(1, 1.0, 32), 0.5)
    with pytest.raises(GridMismatchError, match="run config"):
        run(porous_medium_model(2.0), ChemicalSpec([1.0], [1.0]), u0,
            RunConfig(Grid(2, 5.0, 64), t_end=0.01))


@pytest.mark.parametrize("chems, message", [
    ([ChemicalSpec([1.0], [1.0], 0.0), ChemicalSpec([1.0], [1.0], 0.1)], "non-relaxed"),
    (["kernel", ChemicalSpec([1.0], [1.0], 0.1)], "non-relaxed"),
    ([ChemicalSpec([1.0], [1.0], 0.1), ChemicalSpec([2.0], [1.0], 0.1)], "diffusivities"),
    ([], "at least one member"),
])
def test_ensemble_rejects_members_that_cannot_share_a_plan(chems, message):
    g = Grid(1, 1.0, 32)
    chems = [periodize(adhesion_potential(ONES, 1), g) if c == "kernel" else c for c in chems]
    with pytest.raises(ValueError, match=message):
        run_ensemble(porous_medium_model(1.0), chems, bump(g), RunConfig(g, t_end=0.01))


# --- the spectral workspace and the observer extrema ----------------------

@pytest.mark.parametrize("xi, g", [(0.0, Grid(1, 1.0, 64)), (0.05, Grid(1, 1.0, 64)),
                                   (0.0, Grid(2, 1.0, 16)), (0.05, Grid(2, 1.0, 16))],
                         ids=["0.0", "0.05", "2d-0.0", "2d-0.05"])
def test_runs_and_drifts_on_one_grid_leave_earlier_results_unchanged(xi, g):
    # each plan writes its transforms into a workspace, in 2D also the leading-axis
    # inverse passes of the drift; nothing it returns is a view of it
    model, cfg = porous_medium_model(2.0), RunConfig(g, t_end=0.02, snapshot_every=0.01)
    other = bump(g) if g.dim == 1 else Field(g, np.roll(radial_bump(g).values, 4, axis=0))
    series, state = run(model, ChemicalSpec([0.5], [1.5], xi), radial_bump(g), cfg)
    kept = [s.values.copy() for s in series.snapshots + [state.u]]
    columns = {k: v.copy() for k, v in vars(state.diagnostics).items()}
    run(model, ChemicalSpec([0.5], [-1.5], xi), other, cfg)
    assert all(np.array_equal(s.values, k) for s, k in zip(series.snapshots + [state.u], kept))
    assert all(np.array_equal(v, columns[k]) for k, v in vars(state.diagnostics).items())
    plan = plan_for(g, ChemicalSpec([0.5], [1.5], xi))
    u_hat = [rfft(radial_bump(g).values)[np.newaxis], rfft(other.values)[np.newaxis]]
    first = drift_velocity_chemo(plan, u_hat[0], [plan.symbols[0] * u_hat[0]])
    kept = [v.copy() for v in first]
    second = drift_velocity_chemo(plan, u_hat[1], [plan.symbols[0] * u_hat[1]])
    assert not np.array_equal(first[0], second[0])
    assert all(np.array_equal(v, k) for v, k in zip(first, kept))


@pytest.mark.parametrize("g", [Grid(1, 1.0, 64), Grid(2, 1.0, 16)], ids=["1d", "2d"])
def test_observer_extrema_are_each_members_own(g):
    chems = [ChemicalSpec([0.5], [1.5], 0.0), ChemicalSpec([0.5], [-1.5], 0.0)]
    members = run_ensemble(porous_medium_model(2.0), chems, radial_bump(g),
                           RunConfig(g, t_end=0.02))
    for _, state in members:
        d = state.diagnostics
        assert d.min_u[-1] == state.u.values.min() and d.max_u[-1] == state.u.values.max()
    assert members[0][1].diagnostics.max_u[-1] != members[1][1].diagnostics.max_u[-1]


# --- pinned outputs -------------------------------------------------------
# Final diagnostics of four short runs, generated with the Field-based
# stepper that the plan-based one replaced.  Step counts must match exactly;
# everything else may move only by floating-point rounding.

PINNED = {
    "nonlocal-1d": dict(steps=261, mass=0.4399920806349536, phi=0.01486183400374037,
                        grad_beta_accum=0.01852877984644705,
                        drift_accum=0.0002569937558694592,
                        min_u=0.09334990228508486, max_u=0.42654684400679865),
    "pe-1d": dict(steps=259, mass=0.43999208063495354, phi=0.014336666869023358,
                  grad_beta_accum=0.01806615431257979, drift_accum=3.5771485183742494e-05,
                  min_u=0.0987471054147169, max_u=0.4195483321064778),
    "pp-1d": dict(steps=259, mass=0.43999208063495354, phi=0.014349183500103033,
                  grad_beta_accum=0.018084170637401028, drift_accum=3.888971859609122e-05,
                  min_u=0.09871378246454074, max_u=0.41976932119019567),
    "pe-2d": dict(steps=26, mass=0.48976606773579534, phi=0.003775962375852312,
                  grad_beta_accum=0.00505433248297836, drift_accum=1.7332595195331916e-06,
                  min_u=0.09986096258558151, max_u=0.2903137826853938),
}


def _pinned_case(name):
    if name == "pe-2d":
        return ChemicalSpec([0.5, 2.0], [1.0, -0.5], 0.0), Grid(2, 1.0, 16)
    g = Grid(1, 1.0, 64)
    if name == "nonlocal-1d":
        base = periodize(adhesion_potential(ONES, 1), g)
        return PeriodizedKernel(field=-2.0 * base.field,
                                truncation_radius_cells=base.truncation_radius_cells), g
    return ChemicalSpec([0.5], [1.5], 0.05 if name == "pp-1d" else 0.0), g


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_outputs(name):
    chem, g = _pinned_case(name)
    r2 = sum(m * m for m in g.meshgrid())
    u0 = Field(g, 0.1 + 0.6 * np.where(r2 < 0.16, np.cos(0.5 * math.pi * np.sqrt(r2) / 0.4) ** 2,
                                       0.0))
    _, state = run(porous_medium_model(2.0), chem, u0,
                   RunConfig(g, t_end=0.05, snapshot_every=0.025))
    d = state.diagnostics
    pin = PINNED[name]
    assert len(d.times) - 1 == pin["steps"]
    got = dict(mass=d.mass[-1], phi=d.phi[-1], grad_beta_accum=d.grad_beta_accum[-1],
               drift_accum=d.drift_accum[-1], min_u=d.min_u[-1], max_u=d.max_u[-1])
    for key, value in got.items():
        assert value == pytest.approx(pin[key], rel=1e-12, abs=0.0), key


# --- block observation ----------------------------------------------------

LAYOUT_CASES = {
    "nonlocal-1d": ["nonlocal-1d"], "pe-1d": ["pe-1d"], "pp-1d": ["pp-1d"],
    "ensemble-2d": ["pe-2d", ChemicalSpec([0.5], [1.5], 0.0)],
    "relaxed-ensemble": [ChemicalSpec([0.5, 2.0], [1.0, -0.5], 0.1),
                         ChemicalSpec([0.5, 2.0], [2.0, 0.5], 0.01)],
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_diagnostics_do_not_depend_on_the_observer_blocks(case, monkeypatch):
    # the sums over stacked blocks of states equal those taken one state at a time
    chems = [_pinned_case(c)[0] if isinstance(c, str) else c for c in LAYOUT_CASES[case]]
    g = Grid(2, 1.0, 16) if case.endswith("2d") else Grid(1, 1.0, 64)
    model, cfg = porous_medium_model(2.0), RunConfig(g, t_end=0.05, snapshot_every=0.025)
    blocked = run_ensemble(model, chems, radial_bump(g), cfg)
    block = pde._BLOCK_ELEMENTS // (len(chems) * g.n ** g.dim)
    steps = len(blocked[0][1].diagnostics.times) - 1
    assert 1 < block < steps and steps % block   # full blocks and a partial last one
    monkeypatch.setattr(pde, "_BLOCK_ELEMENTS", 1)
    for (_, state), (_, ref) in zip(blocked, run_ensemble(model, chems, radial_bump(g), cfg)):
        assert np.array_equal(state.u.values, ref.u.values)
        for column, ref_column in zip(vars(state.diagnostics).values(),
                                      vars(ref.diagnostics).values()):
            assert np.array_equal(column, ref_column)
