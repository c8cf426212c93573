"""System definitions: gain tables, disturbances, models, right-hand sides."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvglab.analysis import gain_bound_at
from tvglab.core import (
    CONTROL_LOOP,
    DIFF_ERROR,
    DisturbanceSpec,
    GainTable,
    Horizon,
    NumericalFailure,
    RationalGain,
    SystemModel,
    ZeroNoise,
    differentiator_error_model,
    open_loop_chain,
    rational_diff_error,
    rational_loop,
    reference_loop,
)
from tvglab.integrate import integrate


def _feedback(model, t, x):
    """Controller output v(t, x) of a noise-free control loop."""
    return model.gain_output(t, np.asarray(x, dtype=float), np.zeros(model.n))


def _injection(model, t, y):
    """Injection channels phi(t, y) of a noise-free, undisturbed error model:
    with x = (y, 0, ..., 0) the derivative is exactly the injection vector."""
    x = np.zeros(model.n)
    x[0] = y
    return model.rhs(t, x, 0.0)


def test_rational_gain_evaluates_term_sum():
    g = RationalGain(terms=((-6.0, 2), (-4.0, 1)))
    # -6/u^2 - 4/u at u = 0.5
    assert g.value_at(0.5) == pytest.approx(-32.0, rel=1e-15)
    # the box supremum of a loop whose one nonzero channel is g is |g|
    loop = rational_loop((g.terms, ()))
    assert gain_bound_at(loop, 0.5, 1.0) == pytest.approx(32.0, rel=1e-15)


@pytest.mark.parametrize("p", range(6))
def test_rational_gain_on_a_list_equals_the_scalar_values(p):
    # numpy's power differs from Python's ** in the last bit on a share of
    # these distances for p >= 2, so a vectorised power fails this test
    u = np.exp(np.random.default_rng(p).uniform(math.log(1e-10), math.log(1e3), 20000))
    g = RationalGain(((-1.7, p), (0.3, 0), (2.5, p)))
    scalar = np.array([g.value_at(v) for v in u.tolist()])
    assert g.value_at(u.tolist()).tobytes() == scalar.tobytes()


def test_rational_gain_rejects_bad_terms():
    with pytest.raises(ValueError):
        RationalGain(terms=((1.0, -1),))
    with pytest.raises(ValueError):
        RationalGain(terms=((math.inf, 1),))


def test_reference_controller_known_values():
    # v(t, x) = -6/(1-t)^2 x1 - 4/(1-t) x2
    model = reference_loop()
    assert _feedback(model, 0.0, (1.0, 0.0)) == pytest.approx(-6.0)
    assert _feedback(model, 0.0, (0.0, 1.0)) == pytest.approx(-4.0)
    assert _feedback(model, 0.5, (1.0, 1.0)) == pytest.approx(-24.0 - 8.0)
    assert model.gains.kind == "reference"
    assert model.n == 2
    assert _feedback(model, 0.9, (2.0, -1.0)) == pytest.approx(-6.0 / 0.01 * 2.0 + 4.0 / 0.1)


def test_controller_rejects_times_past_deadline():
    model = reference_loop()
    with pytest.raises(ValueError):
        _feedback(model, 1.0, (1.0, 0.0))
    with pytest.raises(ValueError):
        _feedback(model, 1.5, (1.0, 0.0))
    with pytest.raises(ValueError):
        model.rhs(1.0, np.array([1.0, 0.0]), np.zeros(2))


def test_injection_rejects_times_past_deadline():
    model = differentiator_error_model(T=2.0)
    with pytest.raises(ValueError):
        _injection(model, 2.0, 1.0)
    with pytest.raises(ValueError):
        model.gain_output(2.5, np.array([1.0, 0.0]), 0.0)


@settings(max_examples=50, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=0.99),
    a=st.floats(min_value=-5.0, max_value=5.0),
    x1=st.floats(min_value=-10.0, max_value=10.0),
    x2=st.floats(min_value=-10.0, max_value=10.0),
)
def test_reference_controller_is_linear_in_state(t, a, x1, x2):
    model = reference_loop()
    v1 = _feedback(model, t, (x1, x2))
    v2 = _feedback(model, t, (a * x1, a * x2))
    assert v2 == pytest.approx(a * v1, rel=1e-12, abs=1e-9)


def test_injection_known_values():
    # phi1 = -(l1 + 6/u) y, phi2 = -(l2 + 3 l1/u + 6/u^2) y at u = 0.5
    vals = _injection(differentiator_error_model(), 0.5, 1.0)
    assert vals[0] == pytest.approx(-13.0)
    assert vals[1] == pytest.approx(-31.0)
    out = _injection(differentiator_error_model(ell1=2.0, ell2=3.0, T=2.0), 1.0, -2.0)
    assert out[0] == pytest.approx(2.0 * (2.0 + 6.0))
    assert out[1] == pytest.approx(2.0 * (3.0 + 6.0 + 6.0))


@settings(max_examples=50, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=0.99),
    y=st.floats(min_value=-10.0, max_value=10.0),
)
def test_injection_scales_linearly_in_measurement(t, y):
    model = differentiator_error_model()
    base = _injection(model, t, 1.0)
    scaled = _injection(model, t, y)
    assert type(base) is list and type(scaled) is list
    assert np.allclose(np.array(scaled), y * np.array(base), rtol=1e-12, atol=1e-9)


def test_horizon_defaults_and_validation():
    h = Horizon(T=2.0)
    assert h.rho_min == pytest.approx(2e-9)
    with pytest.raises(ValueError):
        Horizon(T=0.0)
    with pytest.raises(ValueError):
        Horizon(T=1.0, rho_min=1.0)
    with pytest.raises(ValueError):
        Horizon(T=1.0, rho_min=-1e-3)


def test_disturbance_kinds():
    zero = DisturbanceSpec()
    assert zero(0.3) == 0.0
    const = DisturbanceSpec(kind="constant", bound=0.5, value=-0.5)
    assert const(0.9) == -0.5
    sine = DisturbanceSpec(kind="sinusoid", bound=1.0, amplitude=1.0, frequency=0.25)
    assert sine(1.0) == pytest.approx(1.0)
    steps = DisturbanceSpec(kind="piecewise", bound=2.0,
                            samples=((0.2, 1.0), (0.6, -2.0)))
    assert steps(0.1) == 0.0
    assert steps(0.3) == 1.0
    assert steps(0.7) == -2.0
    assert steps.next_discontinuity(0.0) == 0.2
    assert steps.next_discontinuity(0.2) == 0.6
    assert steps.next_discontinuity(0.6) == math.inf


def test_disturbance_validation():
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="constant", bound=0.1, value=0.2)
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="sinusoid", bound=0.1, amplitude=0.2)
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="piecewise", bound=1.0, samples=((0.5, 0.0), (0.2, 0.0)))
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="wobble")


def test_model_rhs_uses_measured_state():
    model = reference_loop()
    x = np.array([1.0, 0.0])
    eta = np.array([0.5, 0.0])
    f = model.rhs(0.0, x, eta)
    assert f[0] == pytest.approx(x[1])
    # v(0, x + eta) = -6 * 1.5
    assert f[1] == pytest.approx(-9.0)


def test_model_rhs_adds_disturbance_on_last_channel():
    d = DisturbanceSpec(kind="constant", bound=1.0, value=0.75)
    model = reference_loop(disturbance=d)
    f = model.rhs(0.0, np.array([1.0, 0.0]), np.zeros(2))
    assert f[1] == pytest.approx(-6.0 + 0.75)
    assert f[0] == pytest.approx(0.0)


def test_model_rhs_injects_measured_first_component():
    model = differentiator_error_model()
    x = np.array([2.0, 1.0])
    f = model.rhs(0.5, x, np.array([0.25]))
    # phi(0.5, y) = (-13 y, -31 y) at the measured y = 2 + 0.25
    assert f[0] == pytest.approx(x[1] - 13.0 * 2.25)
    assert f[1] == pytest.approx(-31.0 * 2.25)


def _array_rhs(model, t, x, eta):
    """The right-hand side as written before it took lists, kept as the
    reference: numpy adds the measured signal and RationalGain.value_at
    evaluates each gain."""
    u = model.T - t
    d = model.disturbance(t)
    tail = x.tolist()[1:]
    if model.variant == CONTROL_LOOP:
        out = 0.0
        for g, xi in zip(model.gains.gains, (x + eta).tolist()):
            out += g.value_at(u) * xi
        tail.append(out + d)
        return np.array(tail)
    y = (x[0] + eta).item()
    out = [g.value_at(u) * y for g in model.gains.gains]
    dx = [xi + phi for xi, phi in zip(tail, out)]
    dx.append(d + out[-1])
    return np.array(dx)


_signed_floats = st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(min_value=-1e3, max_value=1e3))
_channel = st.lists(st.tuples(st.floats(min_value=-100.0, max_value=100.0),
                              st.integers(min_value=0, max_value=5)), max_size=3)


@st.composite
def _rhs_cases(draw):
    """(variant, tables, T, u = T - t, constant disturbance or None, x, noise)."""
    variant = draw(st.sampled_from([CONTROL_LOOP, DIFF_ERROR]))
    tables = draw(st.lists(_channel, min_size=2, max_size=4))
    T = draw(st.sampled_from([1.0, 3.0]))
    u = T * math.exp(draw(st.floats(min_value=math.log(1e-9), max_value=0.0)))
    d = draw(st.one_of(st.none(), _signed_floats))
    n = len(tables)
    x = draw(st.lists(_signed_floats, min_size=n, max_size=n))
    e = draw(st.lists(_signed_floats, min_size=n, max_size=n)
             if variant == CONTROL_LOOP else _signed_floats)
    return variant, tables, T, u, d, x, e


# 0.1 + 0.2 + 0.3 rounds differently when summed from the other end, and at
# this u numpy's u**3 differs from Python's in the last bit
_ORDER = [((0.1, 0), (0.2, 0), (0.3, 0)), ()]
_POWER = [((1.0, 3),), ((1.0, 0),)]


@settings(max_examples=300, deadline=None)
@given(_rhs_cases())
@example((CONTROL_LOOP, _ORDER, 1.0, 0.5, None, [1.0, 0.0], [0.0, 0.0]))
@example((DIFF_ERROR, _ORDER, 1.0, 0.5, None, [1.0, 0.0], 0.0))
@example((CONTROL_LOOP, _POWER, 1.0, 0.876515103851089, None, [1.0, 0.0], [0.0, 0.0]))
@example((DIFF_ERROR, _POWER, 1.0, 0.876515103851089, None, [1.0, 0.0], 0.0))
def test_rhs_on_lists_equals_rhs_on_arrays_and_the_array_formula(case):
    """Bit for bit, for every x and eta form; a term sum in another order or
    numpy's power in place of Python's ** fails this."""
    variant, tables, T, u, d, x, e = case
    make = rational_loop if variant == CONTROL_LOOP else rational_diff_error
    dist = None if d is None else DisturbanceSpec(kind="constant", bound=abs(d), value=d)
    model = make(tables, T=T, disturbance=dist)
    t = T - u
    if variant == CONTROL_LOOP:
        etas = [np.array(e), list(e), e[0], np.float64(e[0]), np.array(e[0])]
    else:
        etas = [e, np.float64(e), np.array([e])]
    for eta in etas:
        expected = _array_rhs(model, t, np.array(x), eta).tobytes()
        for x_in in (list(x), np.array(x)):
            f = model.rhs(t, x_in, eta)
            assert type(f) is list and all(type(v) is float for v in f)
            assert np.array(f).tobytes() == expected
    for late in (T, T + 0.5):
        with pytest.raises(ValueError):
            model.rhs(late, list(x), etas[0])


def test_rhs_keeps_a_negative_zero_output():
    d = DisturbanceSpec(kind="constant", bound=0.0, value=-0.0)
    model = rational_diff_error([((1.0, 1),), ((2.0, 0),)], disturbance=d)
    for x in ([-0.0, -0.0], np.array([-0.0, -0.0])):
        f = model.rhs(0.5, x, -0.0)
        assert type(f) is list
        assert np.array(f).tobytes() == np.array([-0.0, -0.0]).tobytes()


def test_open_loop_chain_is_a_pure_integrator():
    model = open_loop_chain()
    f = model.rhs(0.3, np.array([4.0, -2.0]), np.zeros(2))
    assert f[0] == pytest.approx(-2.0)
    assert f[1] == pytest.approx(0.0)


def test_gain_output_control_is_the_actuation():
    model = reference_loop()
    x = np.array([1.0, 1.0])
    assert model.gain_output(0.0, x, np.zeros(2)) == pytest.approx(-10.0)


def test_gain_output_diff_is_largest_injection_channel():
    model = differentiator_error_model()
    out = model.gain_output(0.5, np.array([1.0, 0.0]), np.array([0.0]))
    # |phi2| = 31 dominates |phi1| = 13; sign is kept
    assert out == pytest.approx(-31.0)


# At u = T - t = 0.5 these channels overflow: 1e308 / u**2 is inf, and the
# NaN channel adds the opposite inf to it.
_NAN_CHANNEL = ((1e308, 2), (-1e308, 2))
_MINUS_INF_CHANNEL = ((-1e308, 2),)


def test_rhs_rejects_bad_inputs():
    loop = rational_loop([_NAN_CHANNEL, ((1.0, 0),)])
    diff = rational_diff_error([((1.0, 0),), _MINUS_INF_CHANNEL])
    for x in ([1.0, 0.0], np.array([1.0, 0.0])):
        with pytest.raises(NumericalFailure):
            loop.rhs(0.5, x, [0.0, 0.0])
        with pytest.raises(NumericalFailure):
            diff.rhs(0.5, x, 0.0)
        # a differentiator measures one channel; a loop eta must broadcast
        with pytest.raises(ValueError):
            differentiator_error_model().rhs(0.5, x, np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            reference_loop().rhs(0.5, x, [0.1, 0.2, 0.3])


def _gain_output(model):
    """gain_output of an error model at t = 0.5, T = 1, with y = 1, so each
    channel's output is its gain value."""
    return model.gain_output(0.5, np.array([1.0] + [0.0] * (model.n - 1)), 0.0)


def _channels_output(channels):
    return _gain_output(rational_diff_error(channels))


class _ZeroRhsModel(SystemModel):
    """Model whose right-hand side is zero, so only the sample record sees a
    non-finite gain output."""

    def rhs(self, t, x, eta):
        return np.zeros(self.n)


def test_gain_output_first_nan_beats_a_larger_finite_channel():
    assert math.isnan(_channels_output([((5.0, 0),), _NAN_CHANNEL]))
    assert math.isnan(_channels_output([_NAN_CHANNEL, ((5.0, 0),)]))
    src = rational_diff_error([((5.0, 0),), _NAN_CHANNEL])
    model = _ZeroRhsModel(src.variant, src.horizon, src.gains)
    with pytest.raises(NumericalFailure, match="non-finite"):
        integrate(model, None, np.array([1.0, 0.0]), 0.5, 0.9)


def test_gain_output_keeps_the_sign_of_inf():
    assert _channels_output([((7.0, 0),), _MINUS_INF_CHANNEL]) == -math.inf
    assert _channels_output([((-7.0, 0),), ((1e308, 2),)]) == math.inf


def test_gain_output_tie_keeps_the_first_channel():
    assert _channels_output([((-3.0, 0),), ((3.0, 0),)]) == -3.0
    assert _channels_output([((3.0, 0),), ((-3.0, 0),)]) == 3.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([3.0, -3.0, 0.0, -0.0])),
                min_size=2, max_size=6))
def test_gain_output_matches_argmax_of_magnitudes(values):
    model = rational_diff_error([((v, 0),) for v in values])
    out = [g.value_at(0.5) for g in model.gains.gains]
    expected = float(out[int(np.argmax(np.abs(out)))])
    got = _gain_output(model)
    assert (got, math.copysign(1.0, got)) == (expected, math.copysign(1.0, expected))


def test_model_variant_validation():
    with pytest.raises(ValueError):
        GainTable(kind="other", gains=GainTable.reference().gains)
    with pytest.raises(ValueError):
        GainTable.rational([((-6.0, 2),)])
    with pytest.raises(ValueError):
        SystemModel(variant="other", horizon=Horizon(T=1.0), gains=GainTable.reference())
    with pytest.raises(ValueError):
        SystemModel(variant=DIFF_ERROR, horizon=Horizon(T=1.0), gains=GainTable.reference())
    with pytest.raises(ValueError):
        SystemModel(variant=CONTROL_LOOP, horizon=Horizon(T=1.0),
                    gains=GainTable.prescribed_time_diff())


def test_zero_noise_shapes():
    loop = reference_loop()
    zn = loop.zero_noise()
    assert isinstance(zn, ZeroNoise)
    assert zn.value(0.0, np.zeros(2)).shape == (2,)
    diff = differentiator_error_model()
    assert isinstance(diff.zero_noise().value(0.0, 0.0), float)


def test_rational_model_factories():
    loop = rational_loop((((-6.0, 2),), ((-4.0, 1),)), T=1.0)
    assert _feedback(loop, 0.5, (1.0, 1.0)) == pytest.approx(-32.0)
    diff = rational_diff_error((((-6.0, 1),), ((-6.0, 2),)), T=1.0)
    out = _injection(diff, 0.5, 1.0)
    assert out[0] == pytest.approx(-12.0)
    assert out[1] == pytest.approx(-24.0)
