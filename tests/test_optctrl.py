import math

import numpy as np
import pytest

from pulsecc import optctrl
from pulsecc.gates import Gate, GateName, gate_unitary
from pulsecc.gdg import AggregatedInstruction
from pulsecc.optctrl import (BISECT_RESOLUTION_STEPS, ControlError,
                             ControlPulses, ConvergenceError, GrapeResult,
                             HamiltonianModel, OptimalControlUnit,
                             OptimizerConfig, evolve, gradient, grape_optimize,
                             infidelity, min_time)

from conftest import einsum_gradient


@pytest.fixture(scope="module")
def model1():
    return HamiltonianModel.build(1)


@pytest.fixture(scope="module")
def model2():
    return HamiltonianModel.build(2)


def test_channel_layout(model1, model2):
    # sigma_x/y/z per qubit, plus one XY channel per coupled pair
    assert len(model1.channels) == 3
    assert len(model2.channels) == 7
    names = [ch.name for ch in model2.channels]
    assert sum("xy" in n for n in names) == 1


def test_single_qubit_bound_is_five_times_coupling(model2):
    bounds = model2.bounds
    assert bounds.max() == pytest.approx(5 * 0.02)
    assert bounds.min() == pytest.approx(0.02)


def test_evolve_matches_closed_form(model1):
    # constant x drive: U = exp(-i * 2*pi * u * X * T)
    u_amp = np.zeros((3, 8))
    u_amp[0, :] = 0.03
    p = ControlPulses(u_amp, model1.dt)
    u = evolve(p, model1)
    t = 8 * model1.dt
    theta = 2 * math.pi * 0.03 * t
    expected = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * \
        np.array([[0, 1], [1, 0]])
    assert np.max(np.abs(u - expected)) < 1e-12


def test_evolve_unitary(model2):
    rng = np.random.default_rng(5)
    p = ControlPulses(rng.uniform(-0.02, 0.02, size=(7, 12)), model2.dt)
    u = evolve(p, model2)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-8


def central_fd(p, m, target, eps=1e-6):
    g = np.zeros_like(p.amplitudes)
    for k in range(p.amplitudes.shape[0]):
        for j in range(p.amplitudes.shape[1]):
            up = p.amplitudes.copy(); up[k, j] += eps
            dn = p.amplitudes.copy(); dn[k, j] -= eps
            fu = infidelity(evolve(ControlPulses(up, m.dt), m), target)
            fd = infidelity(evolve(ControlPulses(dn, m.dt), m), target)
            g[k, j] = (fu - fd) / (2 * eps)
    return g


@pytest.mark.parametrize("nq", [1, 2])
def test_gradient_matches_finite_differences(nq, model1, model2):
    m = model1 if nq == 1 else model2
    target = gate_unitary(Gate(GateName.H, (0,))) if nq == 1 else \
        gate_unitary(Gate(GateName.CNOT, (0, 1)))
    rng = np.random.default_rng(9)
    for _ in range(5):
        amps = rng.uniform(-0.015, 0.015, size=(len(m.channels), 6))
        p = ControlPulses(amps, m.dt)
        exact = gradient(p, m, target)
        approx = central_fd(p, m, target)
        scale = max(np.max(np.abs(approx)), 1e-12)
        assert np.max(np.abs(exact - approx)) / scale <= 1e-4


@pytest.mark.parametrize("nq", [2, 3])
def test_gradient_matches_finite_differences_with_idle_qubits(nq):
    # only qubit 0 is driven, as in a concatenated member pulse: every step
    # Hamiltonian is H_0 (x) I, whose eigenvalues come in degenerate pairs
    m = HamiltonianModel.build(nq, [(i, i + 1) for i in range(nq - 1)])
    gates = [Gate(GateName.CNOT, (i, i + 1)) for i in range(nq - 1)]
    target = AggregatedInstruction(gates, 0).target_unitary
    rng = np.random.default_rng(nq)
    for _ in range(3):
        amps = np.zeros((len(m.channels), 6))
        amps[:3] = rng.uniform(-0.05, 0.05, size=(3, 6))
        p = ControlPulses(amps, m.dt)
        exact = gradient(p, m, target)
        approx = central_fd(p, m, target)
        assert np.max(np.abs(approx[3:])) > 1e-3   # idle channels do matter
        scale = np.max(np.abs(approx))
        assert np.max(np.abs(exact - approx)) / scale <= 1e-6


def _random_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("nq", [1, 2, 3, 4])
@pytest.mark.parametrize("coupling", ["line", "all", "drift"])
def test_gradient_matches_einsum_reference(nq, coupling):
    pairs = None if coupling == "all" else [(i, i + 1) for i in range(nq - 1)]
    m = HamiltonianModel.build(nq, pairs)
    rng = np.random.default_rng([nq, len(coupling)])
    if coupling == "drift":
        h0 = rng.normal(size=(m.dim, m.dim)) + 1j * rng.normal(size=(m.dim, m.dim))
        m = HamiltonianModel(nq, m.channels, m.dt, 0.05 * (h0 + h0.conj().T))
    target = _random_unitary(m.dim, rng)
    amps = rng.uniform(-1, 1, size=(len(m.channels), 12)) * m.bounds[:, None]
    exact = gradient(ControlPulses(amps, m.dt), m, target)
    ref = einsum_gradient(amps, m, target)
    assert np.max(np.abs(exact - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("fb_steps, converge_from, result", [
    (120, 93, 96),     # fallback on the grid: the result is on it too
    (118, 117, 118),   # off the grid: only the fallback itself converges
])
def test_bisection_trials_stay_on_resolution_grid(monkeypatch, model1,
                                                  fb_steps, converge_from,
                                                  result):
    # a fake optimizer: the cold doubling fails up to 64 steps, then the
    # fallback polish succeeds, and every bisection trial below it must stay
    # on the 4*dt grid
    trials = []

    def fake_grape(v_target, m, duration_ns, cfg=None, init_amplitudes=None):
        n = int(round(duration_ns / m.dt))
        trials.append(n)
        assert len(trials) < 50, f"bisection does not terminate: {trials}"
        ok = n >= converge_from
        amps = np.zeros((len(m.channels), n))
        return GrapeResult(ControlPulses(amps, m.dt), 0.9995 if ok else 0.99,
                           1, ok)

    monkeypatch.setattr(optctrl, "grape_optimize", fake_grape)
    target = gate_unitary(Gate(GateName.X, (0,)))
    fallback = np.zeros((len(model1.channels), fb_steps))
    t, res = min_time(target, model1, fallback_amplitudes=fallback)
    assert trials[:6] == [4, 8, 16, 32, 64, fb_steps] and len(trials) > 6
    assert all(n % BISECT_RESOLUTION_STEPS == 0 for n in trials[6:])
    assert t == result * model1.dt and res.pulses.steps == result


def test_grape_converges_on_hadamard(model1):
    target = gate_unitary(Gate(GateName.H, (0,)))
    res = grape_optimize(target, model1, 4 * model1.dt,
                         OptimizerConfig(fidelity_threshold=0.999))
    assert res.converged and res.fidelity >= 0.999
    # respects amplitude bounds
    assert np.all(np.abs(res.pulses.amplitudes) <=
                  model1.bounds[:, None] + 1e-12)


def test_wrong_shaped_warm_start_rejected(model1):
    target = gate_unitary(Gate(GateName.H, (0,)))
    with pytest.raises(ControlError, match=r"\(3, 5\).*\(3, 4\)"):
        grape_optimize(target, model1, 4 * model1.dt,
                       init_amplitudes=np.zeros((3, 5)))


def test_max_iters_below_one_rejected():
    with pytest.raises(ControlError, match="max_iters"):
        OptimizerConfig(max_iters=0)


def test_plateau_stop_ends_hopeless_trial(model2):
    # a cold CNOT at 2 ns plateaus far below the threshold
    cfg = OptimizerConfig()
    res = grape_optimize(gate_unitary(Gate(GateName.CNOT, (0, 1))), model2,
                         4 * model2.dt, cfg)
    assert not res.converged and res.iterations < cfg.max_iters


@pytest.mark.parametrize("max_iters, threshold", [(5, 0.999), (60, 1.0)])
def test_plateau_stop_without_anchor_or_reachable_target(model2, max_iters,
                                                         threshold):
    # too few iterations for an anchor, or an exact target: the hopeless
    # trial runs its whole budget
    cfg = OptimizerConfig(max_iters=max_iters, fidelity_threshold=threshold)
    res = grape_optimize(gate_unitary(Gate(GateName.CNOT, (0, 1))), model2,
                         4 * model2.dt, cfg)
    assert not res.converged and res.iterations == max_iters


@pytest.mark.parametrize("gates", [
    [Gate(GateName.CNOT, (0, 1))],
    [Gate(GateName.SWAP, (0, 1))],
    [Gate(GateName.CNOT, (0, 1)), Gate(GateName.RZ, (1,), (5.67,)),
     Gate(GateName.CNOT, (0, 1))],
], ids=["cnot", "swap", "cnot-rz-cnot"])
def test_plateau_stop_changes_no_min_time_result(monkeypatch, gates):
    # criterion 9's instructions: the same duration and pulse with the stop
    # on and off, although the stop ends failed trials early
    trials = []

    def recording_grape(*args, **kwargs):
        res = real_grape(*args, **kwargs)
        trials.append((res.converged, res.iterations))
        return res

    real_grape = optctrl.grape_optimize
    monkeypatch.setattr(optctrl, "grape_optimize", recording_grape)

    def synthesize():
        ocu = OptimalControlUnit(adjacency=lambda a, b: abs(a - b) == 1)
        t, res, _ = ocu.synthesize(AggregatedInstruction(list(gates), 0))
        return t, res

    t_on, res_on = synthesize()
    max_iters = OptimizerConfig().max_iters
    assert any(not ok and its < max_iters for ok, its in trials)
    monkeypatch.setattr(optctrl, "PLATEAU_RATE_FACTOR", None)
    t_off, res_off = synthesize()
    assert t_on == t_off
    assert res_on.iterations == res_off.iterations
    assert np.array_equal(res_on.pulses.amplitudes, res_off.pulses.amplitudes)


def test_synthesis_failure_names_best_fidelity_once():
    ocu = OptimalControlUnit(cfg=OptimizerConfig(max_iters=1, cap_ns=2.0))
    with pytest.raises(ConvergenceError, match="pulse synthesis failed") as exc:
        ocu.latency(AggregatedInstruction([Gate(GateName.CNOT, (0, 1))], 0))
    assert str(exc.value).count("best fidelity") == 1


def test_min_time_identity_is_zero(model1):
    t, res = min_time(np.eye(2, dtype=complex), model1)
    assert t == 0.0 and res.converged


def test_min_time_monotone_in_difficulty(model1):
    cfg = OptimizerConfig()
    t_small, _ = min_time(gate_unitary(Gate(GateName.RX, (0,), (0.3,))),
                          model1, cfg)
    t_large, _ = min_time(gate_unitary(Gate(GateName.RX, (0,), (math.pi,))),
                          model1, cfg)
    assert t_small <= t_large


def test_pulse_json_roundtrip(model1):
    rng = np.random.default_rng(2)
    p = ControlPulses(rng.uniform(-0.1, 0.1, size=(3, 5)), model1.dt)
    q = ControlPulses.from_json(p.to_json(model1))
    assert q.dt == p.dt
    assert np.allclose(q.amplitudes, p.amplitudes)


def test_ocu_caches_repeated_instructions():
    ocu = OptimalControlUnit()
    ins_a = AggregatedInstruction([Gate(GateName.RZ, (0,), (1.1,))], 0)
    ins_b = AggregatedInstruction([Gate(GateName.RZ, (5,), (1.1,))], 3)
    d1 = ocu.latency(ins_a)
    assert len(ocu.cache) == 1
    assert ocu.cached_duration(ins_b) == d1   # same local unitary
    assert ocu.latency(ins_b) == d1
    assert len(ocu.cache) == 1


def test_cached_duration_miss_synthesizes_nothing(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("cache lookup did synthesis work")

    monkeypatch.setattr(optctrl.HamiltonianModel, "__init__", boom)
    monkeypatch.setattr(optctrl, "min_time", boom)
    ocu = OptimalControlUnit(adjacency=lambda a, b: abs(a - b) == 1)
    ins = AggregatedInstruction([Gate(GateName.CNOT, (0, 1)),
                                 Gate(GateName.CNOT, (1, 2))], 0)
    assert ocu.cached_duration(ins) is None
    assert ocu.cache == {}


def test_merged_instruction_never_slower_than_parts():
    # concatenated member pulses bound the merged min_time from above
    ocu = OptimalControlUnit(adjacency=lambda a, b: abs(a - b) == 1)
    gates = [Gate(GateName.CNOT, (0, 1)), Gate(GateName.CNOT, (1, 2))]
    parts = sum(ocu.latency(AggregatedInstruction([g], 0)) for g in gates)
    merged = ocu.latency(AggregatedInstruction(list(gates), 0))
    assert merged <= parts + 1e-9


def test_ocu_respects_adjacency():
    ocu = OptimalControlUnit(adjacency=lambda a, b: abs(a - b) == 1)
    ins = AggregatedInstruction([Gate(GateName.CNOT, (3, 4))], 0)
    model, pairs = ocu._model_for(list(ins.context))
    assert pairs == ((0, 1),)
    ins_far = AggregatedInstruction([Gate(GateName.H, (0,)),
                                     Gate(GateName.H, (5,))], 0)
    model_far, pairs_far = ocu._model_for(list(ins_far.context))
    assert pairs_far == ()
