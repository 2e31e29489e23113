import json
import math

import numpy as np
import pytest

from pulsecc import optctrl
from pulsecc.bench import qaoa_triangle
from pulsecc.gates import Gate, GateName, gate_unitary, gates_unitary
from pulsecc.gdg import AggregatedInstruction
from pulsecc.optctrl import (BISECT_RESOLUTION_STEPS, MU_MAX, TWO_PI,
                             ControlError, ControlPulses, ConvergenceError,
                             GrapeResult, HamiltonianModel, OptimalControlUnit,
                             OptimizerConfig, _weyl_coordinates,
                             cut_fidelity_bound, evolve,
                             fingerprint, gradient, grape_optimize,
                             infidelity, min_time, min_time_bound)

from pulsecc.verify import verify_instruction

from conftest import einsum_gradient, einsum_steps


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


def test_build_normalizes_pairs():
    m = HamiltonianModel.build(3, [(2, 1), (0, 1)])
    assert m.pairs == ((1, 2), (0, 1))
    assert [ch.name for ch in m.channels[-2:]] == ["xy1_2", "xy0_1"]
    assert HamiltonianModel.build(3).pairs == ((0, 1), (0, 2), (1, 2))


@pytest.mark.parametrize("kwargs", [{"dt": 0.0}, {"dt": -0.5},
                                    {"num_qubits": 0, "pairs": ()},
                                    {"num_qubits": -1, "pairs": ()}])
def test_nonpositive_model_parameters_rejected(kwargs):
    with pytest.raises(ControlError, match="must be positive"):
        HamiltonianModel(**{"num_qubits": 2, "pairs": ((0, 1),), **kwargs})


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


def _model(nq, coupling):
    """Line-coupled or all-to-all."""
    pairs = None if coupling == "all" else [(i, i + 1) for i in range(nq - 1)]
    return HamiltonianModel.build(nq, pairs)


@pytest.mark.parametrize("nq", [1, 2, 3, 4])
@pytest.mark.parametrize("coupling", ["line", "all"])
def test_evolve_matches_einsum_steps(nq, coupling):
    # every verification runs evolve, so it is pinned to the ordered
    # product of the reference step propagators
    rng = np.random.default_rng([nq, len(coupling), 1])
    m = _model(nq, coupling)
    amps = rng.uniform(-1, 1, size=(len(m.channels), 40)) * m.bounds[:, None]
    steps = einsum_steps(amps, m)[0]
    ref = np.eye(m.dim, dtype=complex)
    for s in steps:
        ref = s @ ref
    assert np.max(np.abs(evolve(ControlPulses(amps, m.dt), m) - ref)) <= 1e-12


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
    target = AggregatedInstruction(gates).target_unitary
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


def test_gradient_matches_finite_differences_near_degeneracy(model2):
    # qubit 1 is driven by sz1 alone at 1e-11 GHz, so every step has
    # eigenvalue pairs split by ~1e-10 rad/ns: the plain divided difference
    # (e^{-i la dt} - e^{-i lb dt}) / (la - lb) cancels there
    target = gate_unitary(Gate(GateName.CNOT, (0, 1)))
    rng = np.random.default_rng(13)
    amps = np.zeros((len(model2.channels), 6))
    amps[:3] = rng.uniform(-0.05, 0.05, size=(3, 6))
    amps[5] = 1e-11
    p = ControlPulses(amps, model2.dt)
    exact = gradient(p, model2, target)
    approx = central_fd(p, model2, target)
    assert np.max(np.abs(exact - approx)) / np.max(np.abs(approx)) <= 1e-8


def _random_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# 220 steps is qaoa-triangle's 3-qubit fallback: the gradient derives its
# backward products from the forward ones, and long pulses build up the
# rounding error of that most
@pytest.mark.parametrize("nq, steps", [(1, 12), (2, 12), (3, 12), (4, 12),
                                       (3, 220), (4, 220)],
                         ids=["1", "2", "3", "4", "3x220", "4x220"])
@pytest.mark.parametrize("coupling", ["line", "all"])
def test_gradient_matches_einsum_reference(nq, steps, coupling):
    rng = np.random.default_rng([nq, len(coupling)])
    m = _model(nq, coupling)
    target = _random_unitary(m.dim, rng)
    amps = rng.uniform(-1, 1, size=(len(m.channels), steps)) * m.bounds[:, None]
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
    # a fake optimizer: the doubling fails up to 64 steps, each rung after
    # the first from the stretched best failure and then cold; then the
    # fallback polish succeeds, and every bisection trial below it must stay
    # on the 4*dt grid. Durations are counted in dt steps, since the rungs
    # run on a model with step 2*dt
    trials = []

    def fake_grape(v_target, m, duration_ns, cfg=None, init_amplitudes=None,
                   budget=None):
        n = int(round(duration_ns / model1.dt))
        trials.append(n)
        assert len(trials) < 50, f"bisection does not terminate: {trials}"
        ok = n >= converge_from
        amps = np.zeros((len(m.channels), int(round(duration_ns / m.dt))))
        return GrapeResult(ControlPulses(amps, m.dt), 0.9995 if ok else 0.99,
                           1, ok)

    monkeypatch.setattr(optctrl, "grape_optimize", fake_grape)
    target = gate_unitary(Gate(GateName.X, (0,)))
    fallback = np.zeros((len(model1.channels), fb_steps))
    t, res = min_time(target, model1, fallback_amplitudes=fallback)
    assert trials[:10] == [4, 8, 8, 16, 16, 32, 32, 64, 64, fb_steps]
    assert len(trials) > 10
    assert all(n % BISECT_RESOLUTION_STEPS == 0 for n in trials[10:])
    assert t == result * model1.dt and res.pulses.steps == result


def test_grape_converges_on_hadamard(model1):
    target = gate_unitary(Gate(GateName.H, (0,)))
    res = grape_optimize(target, model1, 4 * model1.dt,
                         OptimizerConfig(fidelity_threshold=0.999))
    assert res.converged and res.fidelity >= 0.999
    # respects amplitude bounds
    assert np.all(np.abs(res.pulses.amplitudes) <=
                  model1.bounds[:, None] + 1e-12)


def test_accepted_losses_never_increase(monkeypatch, model2):
    # every table propagated in both phases, in order: L-BFGS's losses and
    # gradients ("g"), then Jacobians ("J", recorded at the table whose
    # propagation they read) and Levenberg-Marquardt steps ("t"). A rejected
    # line-search trial theta_i is followed by one halfway back to the
    # accepted iterate, theta_i = 2 theta_{i+1} - theta_base; a step is kept
    # exactly when a Jacobian follows it, and each Jacobian is taken at the
    # accepted iterate. Every other trial was accepted and must not raise the
    # loss of the iterate it left. At 14 ns, near the CNOT's minimum time,
    # the endgame both keeps and drops steps
    target = gate_unitary(Gate(GateName.CNOT, (0, 1)))
    evals, props = [], []
    real_propagate, real_lg = optctrl._propagate, optctrl._loss_and_gradient
    real_jacobian = optctrl._jacobian

    def propagate(u_amp, m):
        out = real_propagate(u_amp, m)
        props.append((out, u_amp / m.bounds[:, None]))
        evals.append(["t", props[-1][1], infidelity(out[0][-1], target)])
        return out

    def loss_and_gradient(prop, m, v):
        assert prop is props[-1][0]
        evals[-1][0] = "g"
        return real_lg(prop, m, v)

    def jacobian(prop, m):
        frac = next(f for out, f in props if out is prop)
        out = real_jacobian(prop, m)
        evals.append(["J", frac, infidelity(out[0], target)])
        return out

    monkeypatch.setattr(optctrl, "_propagate", propagate)
    monkeypatch.setattr(optctrl, "_loss_and_gradient", loss_and_gradient)
    monkeypatch.setattr(optctrl, "_jacobian", jacobian)
    res = grape_optimize(target, model2, 14.0)
    assert res.converged and res.iterations == len(evals)
    kinds = "".join(kind for kind, _, _ in evals)
    assert kinds.startswith("g") and "tJ" in kinds and "tt" in kinds
    base, accepted, rejected = evals[0][1:], [evals[0][2]], 0
    with np.errstate(divide="ignore"):   # trials may saturate a bound
        for (kind, frac, loss), (nkind, nxt, _) in zip(evals[1:], evals[2:]):
            if kind == "J":
                assert np.array_equal(frac, base[0])
                continue
            if kind == "t":
                kept = nkind == "J"
            else:
                back = np.tanh(2 * np.arctanh(nxt) - np.arctanh(base[0]))
                kept = not (nkind == "g" and np.allclose(back, frac, rtol=0,
                                                         atol=1e-9))
            if kept:
                base = (frac, loss)
                accepted.append(loss)
            else:
                rejected += 1
    assert len(accepted) > 10 and rejected > 0
    assert all(b <= a for a, b in zip(accepted, accepted[1:]))
    assert evals[-1][2] <= accepted[-1]
    assert res.fidelity == pytest.approx(1.0 - evals[-1][2], abs=1e-15)


def test_each_table_is_propagated_once(monkeypatch, model2):
    # the CNOT at 14 ns enters the endgame: every L-BFGS evaluation and
    # Levenberg-Marquardt step propagates its table once, with one batched
    # eigendecomposition, and a Jacobian reads the accepted iterate's
    # propagation, so the trial's iterations are its propagations plus its
    # Jacobians
    calls = {"P": 0, "J": 0, "eigh": 0}

    def counted(key, real):
        def call(*args):
            calls[key] += 1
            return real(*args)
        return call

    monkeypatch.setattr(optctrl, "_propagate", counted(
        "P", optctrl._propagate))
    monkeypatch.setattr(optctrl, "_jacobian", counted("J", optctrl._jacobian))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    res = grape_optimize(gate_unitary(Gate(GateName.CNOT, (0, 1))), model2,
                         14.0)
    assert res.converged and calls["J"] > 0
    assert calls["P"] == calls["eigh"] == res.iterations - calls["J"]


def test_endgame_converges_in_fewer_evaluations(monkeypatch):
    # a warm start inside the endgame band (fidelity 0.9978, loss under
    # ENDGAME_FACTOR * 0.001) finishes in fewer evaluations with the
    # Levenberg-Marquardt steps than with L-BFGS alone
    m = HamiltonianModel.build(3)
    v = gates_unitary([Gate(GateName.CNOT, (0, 1)), Gate(GateName.CNOT, (1, 2))],
                      [0, 1, 2])
    warm = grape_optimize(v, m, 20.0, OptimizerConfig(fidelity_threshold=0.997))
    cfg = OptimizerConfig()
    assert 1 - cfg.fidelity_threshold < 1 - warm.fidelity \
        <= optctrl.ENDGAME_FACTOR * (1 - cfg.fidelity_threshold)
    endgame = grape_optimize(v, m, 20.0, cfg, warm.pulses.amplitudes)
    monkeypatch.setattr(optctrl, "ENDGAME_FACTOR", 0.0)
    lbfgs = grape_optimize(v, m, 20.0, cfg, warm.pulses.amplitudes)
    assert endgame.converged and lbfgs.converged
    assert endgame.iterations < lbfgs.iterations


@pytest.mark.parametrize("nq", [1, 2, 3, 4])
@pytest.mark.parametrize("coupling", ["line", "all"])
def test_jacobian_matches_finite_differences(nq, coupling):
    # dU/du_kj = U (U^dag dU/du_kj); the last qubit idles when there are
    # two or more, so every step has degenerate eigenvalue pairs
    m = _model(nq, coupling)
    rng = np.random.default_rng([nq, len(coupling), 3])
    amps = rng.uniform(-1, 1, size=(len(m.channels), 3)) * m.bounds[:, None]
    if nq > 1:
        amps[[i for i, ch in enumerate(m.channels) if nq - 1 in ch.qubits]] = 0
    u, jac = optctrl._jacobian(optctrl._propagate(amps, m), m)
    d_u = u @ jac
    eps = 1e-6
    for k in range(amps.shape[0]):
        for j in range(amps.shape[1]):
            up = amps.copy(); up[k, j] += eps
            dn = amps.copy(); dn[k, j] -= eps
            fd = (evolve(ControlPulses(up, m.dt), m)
                  - evolve(ControlPulses(dn, m.dt), m)) / (2 * eps)
            assert np.abs(d_u[k, j] - fd).max() <= 1e-7 * np.abs(fd).max()


@pytest.mark.parametrize("nq", [1, 2, 3, 4])
@pytest.mark.parametrize("coupling", ["line", "all"])
def test_jacobian_reproduces_the_gradient(nq, coupling):
    # d tau / du_kj = sum conj(V) o dU/du_kj: one derivative formula
    m = _model(nq, coupling)
    rng = np.random.default_rng([nq, len(coupling), 4])
    target = _random_unitary(m.dim, rng)
    amps = rng.uniform(-1, 1, size=(len(m.channels), 12)) * m.bounds[:, None]
    u, jac = optctrl._jacobian(optctrl._propagate(amps, m), m)
    dtau = (target.conj() * (u @ jac)).sum(axis=(2, 3))
    tau = np.trace(target.conj().T @ u)
    grad = (-2.0 / m.dim ** 2) * np.real(np.conj(tau) * dtau)
    exact = gradient(ControlPulses(amps, m.dt), m, target)
    assert np.abs(grad - exact).max() <= 1e-12 * np.abs(exact).max()


def test_converged_warm_start_returns_unchanged(model1):
    target = gate_unitary(Gate(GateName.H, (0,)))
    cold = grape_optimize(target, model1, 4 * model1.dt)
    warm = grape_optimize(target, model1, 4 * model1.dt,
                          init_amplitudes=cold.pulses.amplitudes)
    assert cold.converged and warm.converged and warm.iterations == 1
    assert np.allclose(warm.pulses.amplitudes, cold.pulses.amplitudes,
                       rtol=0, atol=1e-12)
    assert warm.fidelity == pytest.approx(cold.fidelity, abs=1e-12)


def test_stationary_warm_start_stops(model1):
    # Tr(X^dag I) = 0, so the zero pulse has exactly zero gradient for X: no
    # descent direction exists, and a steepest-descent step would be 0 / 0
    x = gate_unitary(Gate(GateName.X, (0,)))
    zeros = np.zeros((3, 4))
    res = grape_optimize(x, model1, 2.0, init_amplitudes=zeros)
    assert not res.converged and res.iterations == 1
    assert np.array_equal(res.pulses.amplitudes, zeros)


def test_zero_duration_returns_the_identity(model1):
    target = gate_unitary(Gate(GateName.H, (0,)))
    res = grape_optimize(target, model1, 0.0)
    assert res.iterations == 0 and not res.converged
    assert res.pulses.amplitudes.shape == (len(model1.channels), 0)
    assert res.fidelity == pytest.approx(
        1.0 - infidelity(np.eye(2, dtype=complex), target))
    assert grape_optimize(np.eye(2, dtype=complex), model1, 0.0).converged


def test_negative_duration_rejected(model1):
    target = gate_unitary(Gate(GateName.H, (0,)))
    with pytest.raises(ControlError, match=r"duration -2\.0 ns"):
        grape_optimize(target, model1, -2.0)


def test_wrong_shaped_warm_start_rejected(model1):
    target = gate_unitary(Gate(GateName.H, (0,)))
    with pytest.raises(ControlError, match=r"\(3, 5\).*\(3, 4\)"):
        grape_optimize(target, model1, 4 * model1.dt,
                       init_amplitudes=np.zeros((3, 5)))


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.001, 1.5])
def test_fidelity_threshold_outside_unit_interval_rejected(threshold):
    with pytest.raises(ControlError, match=r"in \(0, 1\]"):
        OptimizerConfig(fidelity_threshold=threshold)


def test_mismatched_shapes_rejected(model2):
    with pytest.raises(ControlError, match="3 channels, model has 7"):
        evolve(ControlPulses(np.zeros((3, 4)), model2.dt), model2)
    with pytest.raises(ControlError, match="dimension mismatch"):
        infidelity(np.eye(2), np.eye(4))


@pytest.mark.parametrize("dt", [1.0, 0.25])
def test_pulses_on_another_time_grid_rejected(model2, dt):
    # evolve and gradient read the step from the model: a table on another
    # grid would be evolved as if it lasted steps * model.dt
    p = ControlPulses(np.zeros((7, 8)), dt)
    target = gate_unitary(Gate(GateName.CNOT, (0, 1)))
    with pytest.raises(ControlError, match=f"dt {dt} ns, model has 0.5 ns"):
        evolve(p, model2)
    with pytest.raises(ControlError, match=f"dt {dt} ns, model has 0.5 ns"):
        gradient(p, model2, target)


@pytest.mark.parametrize("dim, duration_ns, message", [
    (4, 2.0, r"target dimension \(4, 4\) does not match model dim 2"),
    (2, 1.25, "1.25 ns is not a multiple of dt")])
def test_grape_target_and_duration_checked(model1, dim, duration_ns, message):
    with pytest.raises(ControlError, match=message):
        grape_optimize(np.eye(dim, dtype=complex), model1, duration_ns)


def test_max_iters_below_one_rejected():
    with pytest.raises(ControlError, match="max_iters"):
        OptimizerConfig(max_iters=0)


def test_negative_seed_rejected():
    with pytest.raises(ControlError, match="seed must be non-negative, not -1"):
        OptimizerConfig(seed=-1)


@pytest.mark.parametrize("pairs, message", [
    (((1, 0),), r"pair \(1, 0\) is not"), (((0, 0),), r"pair \(0, 0\) is not"),
    (((0, 3),), r"pair \(0, 3\) is not"), (((-1, 2),), r"pair \(-1, 2\) is not"),
    (((0, 1), (1, 2), (0, 1)), "repeat a pair")])
def test_invalid_pairs_rejected(pairs, message):
    with pytest.raises(ControlError, match=message):
        HamiltonianModel(3, pairs)


def test_plateau_stop_ends_hopeless_trial(model2):
    # a cold CNOT at 2 ns plateaus far below the threshold
    cfg = OptimizerConfig()
    res = grape_optimize(gate_unitary(Gate(GateName.CNOT, (0, 1))), model2,
                         4 * model2.dt, cfg)
    assert not res.converged and res.iterations < cfg.max_iters // 4


@pytest.mark.parametrize("max_iters, threshold", [(5, 0.999), (60, 1.0)])
def test_plateau_stop_without_anchor_or_reachable_target(model2, max_iters,
                                                         threshold):
    # too few iterations for an anchor, or an exact target: the hopeless
    # trial runs its whole budget
    cfg = OptimizerConfig(max_iters=max_iters, fidelity_threshold=threshold)
    res = grape_optimize(gate_unitary(Gate(GateName.CNOT, (0, 1))), model2,
                         4 * model2.dt, cfg)
    assert not res.converged and res.iterations == max_iters


ZZ_BLOCK = [Gate(GateName.CNOT, (0, 1)), Gate(GateName.RZ, (1,), (5.67,)),
            Gate(GateName.CNOT, (0, 1))]
CRITERION_9 = pytest.mark.parametrize(
    "gates", [[Gate(GateName.CNOT, (0, 1))], [Gate(GateName.SWAP, (0, 1))],
              ZZ_BLOCK], ids=["cnot", "swap", "cnot-rz-cnot"])


def test_zz_block_reaches_6_ns():
    # criterion 9's CNOT-Rz-CNOT block: its 8 ns rung converges, and the
    # pulse compressed from it converges at 6 ns
    ocu = OptimalControlUnit(adjacency=lambda a, b: abs(a - b) == 1)
    t, res, _ = ocu.synthesize(AggregatedInstruction(list(ZZ_BLOCK)))
    assert t == 6.0 and res.converged and res.pulses.steps == 12


def test_bisection_retries_the_truncated_start(monkeypatch, model2):
    # a fake optimizer: every rung fails and the fallback polish converges;
    # below it, a compressed start fails and the truncated one converges, so
    # each bisection trial must rerun a failed compressed start truncated
    trials = []
    fallback = np.random.default_rng(3).uniform(
        -0.01, 0.01, size=(len(model2.channels), 32))

    def fake_grape(v_target, m, duration_ns, cfg=None, init_amplitudes=None,
                   budget=None):
        n = int(round(duration_ns / m.dt))
        trials.append((m.dt, n, init_amplitudes))
        ok = m is model2 and (n == 32 or np.array_equal(
            init_amplitudes, fallback[:, :n]))
        return GrapeResult(ControlPulses(init_amplitudes, m.dt),
                           0.9995 if ok else 0.99, 1, ok)

    monkeypatch.setattr(optctrl, "grape_optimize", fake_grape)
    monkeypatch.setattr(optctrl, "_speed_limit", lambda *args: (0.0, None))
    t, res = min_time(gate_unitary(Gate(GateName.CNOT, (0, 1))), model2,
                      fallback_amplitudes=fallback)
    polish = next(i for i, (_, n, _) in enumerate(trials) if n == 32)
    assert all(dt == 2 * model2.dt for dt, _, _ in trials[:polish])
    bisection = trials[polish + 1:]
    assert [n for _, n, _ in bisection] == [24, 24, 20, 20]
    best = fallback
    for (_, n, squeezed), (_, _, cut) in zip(bisection[::2], bisection[1::2]):
        assert np.array_equal(squeezed, optctrl._compress(best, n))
        assert np.array_equal(cut, best[:, :n])
        best = cut
    assert t == 20 * model2.dt and np.array_equal(res.pulses.amplitudes, best)


def test_ladder_rung_starts_from_the_best_failure_stretched(monkeypatch):
    # with the bound off, the SWAP's rungs fail up to 16 ns: each rung after
    # the first starts from the best failure so far stretched onto its dt
    # steps and averaged onto 2*dt segments, and a cold trial follows only if
    # that start fails, from grape_optimize's cold draw averaged the same way
    trials = []
    model = HamiltonianModel.build(2)
    cfg = OptimizerConfig()

    def recording_grape(v_target, m, duration_ns, cfg=None,
                        init_amplitudes=None, budget=None):
        res = real_grape(v_target, m, duration_ns, cfg, init_amplitudes,
                         budget)
        trials.append((int(round(duration_ns / model.dt)), m.dt,
                       init_amplitudes, res))
        return res

    def cold(n):
        theta = optctrl._cold_theta(len(model.channels), n, cfg.seed)
        return optctrl._coarsen(model.bounds[:, None] * np.tanh(theta))

    def on_dt(res):
        return np.repeat(res.pulses.amplitudes, 2, axis=1)

    real_grape = optctrl.grape_optimize
    monkeypatch.setattr(optctrl, "grape_optimize", recording_grape)
    monkeypatch.setattr(optctrl, "_speed_limit", lambda *args: (0.0, None))
    min_time(gate_unitary(Gate(GateName.SWAP, (0, 1))), model, cfg)
    n, dt, start, best = trials[0]
    assert n == BISECT_RESOLUTION_STEPS and dt == 2 * model.dt
    assert np.array_equal(start, cold(n))
    i = 1
    while True:
        n, dt, stretched, res = trials[i]
        assert dt == 2 * model.dt
        assert np.array_equal(stretched, optctrl._coarsen(
            optctrl._compress(on_dt(best), n)))
        if res.converged:
            break
        n_cold, dt, start, res_cold = trials[i + 1]
        assert n_cold == n and dt == 2 * model.dt
        assert np.array_equal(start, cold(n))
        best = max(best, res, res_cold, key=lambda r: r.fidelity)
        i += 2
    assert i == 7 and n == 64 and trials[i + 1][0] < n
    assert trials[i + 1][1] == model.dt


def test_cold_draw_is_grape_optimizes_own(model1):
    # one evaluation from the shared draw's amplitudes is the cold start's
    cfg = OptimizerConfig(max_iters=1)
    theta = optctrl._cold_theta(len(model1.channels), 6, cfg.seed)
    x = gate_unitary(Gate(GateName.X, (0,)))
    cold = grape_optimize(x, model1, 6 * model1.dt, cfg)
    assert np.array_equal(cold.pulses.amplitudes,
                          model1.bounds[:, None] * np.tanh(theta))


def test_repeated_coarse_pulse_keeps_the_unitary():
    # a pulse constant over 2*dt segments is exactly a pulse on dt steps
    m = HamiltonianModel.build(3, [(0, 1), (1, 2)])
    coarse = HamiltonianModel(m.num_qubits, m.pairs, 2 * m.dt)
    segments = np.random.default_rng(6).uniform(-0.05, 0.05,
                                                size=(len(m.channels), 7))
    u_coarse = evolve(ControlPulses(segments, coarse.dt), coarse)
    u_fine = evolve(ControlPulses(np.repeat(segments, 2, axis=1), m.dt), m)
    assert np.abs(u_fine - u_coarse).max() <= 1e-12


def test_rungs_run_on_2dt_and_the_rest_on_dt(monkeypatch, model2):
    # with the bound off, the CNOT's rungs at 2, 4 and 8 ns fail before the
    # fallback's 14 ns polish: every rung runs on the 2*dt model, and the
    # polish and every bisection trial on model2 itself
    trials = []
    fallback = np.zeros((len(model2.channels), 28))

    def recording_grape(v_target, m, duration_ns, cfg=None,
                        init_amplitudes=None, budget=None):
        res = real_grape(v_target, m, duration_ns, cfg, init_amplitudes,
                         budget)
        trials.append((m, init_amplitudes is fallback, res.converged))
        return res

    real_grape = optctrl.grape_optimize
    monkeypatch.setattr(optctrl, "grape_optimize", recording_grape)
    monkeypatch.setattr(optctrl, "_speed_limit", lambda *args: (0.0, None))
    t, res = min_time(gate_unitary(Gate(GateName.CNOT, (0, 1))), model2,
                      fallback_amplitudes=fallback)
    first = next(i for i, (_, _, ok) in enumerate(trials) if ok)
    ladder, bisection = trials[:first + 1], trials[first + 1:]
    rungs = [m for m, from_fallback, _ in ladder if not from_fallback]
    assert len(rungs) >= 5 and len(ladder) - len(rungs) == 1
    assert all(m is not model2 and m.dt == 2 * model2.dt
               and m.pairs == model2.pairs for m in rungs)
    assert all(m is model2 for m, from_fallback, _ in ladder if from_fallback)
    assert bisection and all(m is model2 for m, _, _ in bisection)
    assert res.pulses.dt == model2.dt and t == res.pulses.duration_ns


@pytest.mark.parametrize("gates", [
    [Gate(GateName.X, (0,))],
    [Gate(GateName.H, (0,)), Gate(GateName.RX, (1,), (0.3,))]],
    ids=["x", "local"])
def test_coarse_rung_result_verifies_on_dt(monkeypatch, gates):
    # these targets converge on their first rung and bisect no further, so
    # min_time, with no fallback, returns the coarse pulse repeated onto dt
    trials = []

    def recording_grape(*args, **kwargs):
        res = real_grape(*args, **kwargs)
        trials.append((args[1], res))
        return res

    real_grape = optctrl.grape_optimize
    monkeypatch.setattr(optctrl, "grape_optimize", recording_grape)
    ins = AggregatedInstruction(list(gates))
    model = HamiltonianModel.build(len(ins.qubits))
    cfg = OptimizerConfig()
    t, res = min_time(ins.target_unitary, model, cfg)
    coarse, found = trials[-1]
    assert coarse.dt == 2 * model.dt and found.converged
    assert res.pulses.dt == model.dt and res.pulses.steps == round(t / model.dt)
    assert np.array_equal(res.pulses.amplitudes,
                          np.repeat(found.pulses.amplitudes, 2, axis=1))
    fid = verify_instruction(ins, res.pulses, model)
    assert fid >= cfg.fidelity_threshold and fid == res.fidelity


def test_unconfirmed_coarse_success_is_a_failed_trial(monkeypatch, model1):
    # a coarse trial that claims success, repeated onto dt, misses the
    # threshold there: it is a failed trial at its dt fidelity, and no
    # further trial runs on dt
    def no_grape(*args, **kwargs):
        raise AssertionError("no trial may run")

    monkeypatch.setattr(optctrl, "grape_optimize", no_grape)
    x = gate_unitary(Gate(GateName.X, (0,)))
    coarse = GrapeResult(ControlPulses(np.zeros((len(model1.channels), 4)),
                                       2 * model1.dt), 1.0, 7, True)
    res = optctrl._onto_dt(coarse, x, model1, OptimizerConfig())
    assert not res.converged and res.iterations == 7
    assert res.fidelity == 1.0 - infidelity(np.eye(2, dtype=complex), x)
    assert res.pulses.dt == model1.dt and res.pulses.steps == 8


@pytest.mark.parametrize("old, new", [(7, 14), (5, 15)])
def test_stretched_pulse_keeps_the_unitary(old, new):
    # with zero drift, amplitude u / c for c dt acts as u for dt
    m = HamiltonianModel.build(3, [(0, 1), (1, 2)])
    pulse = np.random.default_rng(old).uniform(-0.05, 0.05,
                                               size=(len(m.channels), old))
    stretched = optctrl._compress(pulse, new)
    assert stretched.shape == (len(m.channels), new)
    u_pulse = evolve(ControlPulses(pulse, m.dt), m)
    u_stretched = evolve(ControlPulses(stretched, m.dt), m)
    assert np.abs(u_stretched - u_pulse).max() <= 1e-12


@pytest.mark.parametrize("old, new", [(7, 14), (5, 8), (12, 13), (3, 16)])
def test_stretching_raises_no_amplitude(old, new):
    # each new step averages old ones over old / new of their area
    amps = np.random.default_rng(new).uniform(-0.1, 0.1, size=(4, old))
    out = optctrl._compress(amps, new)
    peak = np.abs(amps).max(axis=1, keepdims=True)
    assert np.all(np.abs(out) <= peak * old / new + 1e-15)


def test_compress_to_the_same_length_keeps_the_pulse():
    amps = np.random.default_rng(4).uniform(-0.1, 0.1, size=(3, 8))
    assert np.allclose(optctrl._compress(amps, 8), amps, rtol=0, atol=1e-15)


def test_compressed_pulse_keeps_the_unitary():
    # with zero drift, amplitude 2u for dt acts as u for 2 dt
    m = HamiltonianModel.build(3, [(0, 1), (1, 2)])
    half = np.random.default_rng(5).uniform(-0.05, 0.05,
                                            size=(len(m.channels), 7))
    pulse = np.repeat(half, 2, axis=1)
    squeezed = optctrl._compress(pulse, 7)
    assert squeezed.shape == half.shape
    u_pulse = evolve(ControlPulses(pulse, m.dt), m)
    u_squeezed = evolve(ControlPulses(squeezed, m.dt), m)
    assert np.abs(u_squeezed - u_pulse).max() <= 1e-12


@pytest.mark.parametrize("old, new", [(13, 8), (12, 9), (5, 4), (9, 6)])
def test_compress_keeps_every_channel_area(old, new):
    amps = np.random.default_rng(old).uniform(-0.1, 0.1, size=(4, old))
    out = optctrl._compress(amps, new)
    assert out.shape == (4, new)
    for j in range(1, new + 1):   # new boundary j sits at old position x
        x = j * old / new
        whole = int(x)
        area = amps[:, :whole].sum(axis=1)
        if whole < old:
            area += (x - whole) * amps[:, whole]
        assert np.allclose(out[:, :j].sum(axis=1), area, rtol=0, atol=1e-12)


@CRITERION_9
def test_plateau_stop_changes_no_min_time_result(monkeypatch, gates):
    # criterion 9's instructions: the same duration with the stop on and
    # off, and every trial the stop ended still fails from its own start with
    # its whole budget. Pulses may differ, since failures seed later rungs.
    trials = []

    def recording_grape(*args, **kwargs):
        res = real_grape(*args, **kwargs)
        trials.append((args, kwargs, res))
        return res

    real_grape = optctrl.grape_optimize
    monkeypatch.setattr(optctrl, "grape_optimize", recording_grape)

    def synthesize():
        ocu = OptimalControlUnit(adjacency=lambda a, b: abs(a - b) == 1)
        t, res, _ = ocu.synthesize(AggregatedInstruction(list(gates)))
        return t, res

    # the minimum-time bound skips every failing SWAP trial, so it is off
    # here to leave failed trials for the stop to end
    monkeypatch.setattr(optctrl, "_speed_limit", lambda *args: (0.0, None))
    t_on, _ = synthesize()
    max_iters = OptimizerConfig().max_iters
    stopped = [(args, kwargs) for args, kwargs, res in trials
               if not res.converged and res.iterations < max_iters]
    assert stopped
    monkeypatch.setattr(optctrl, "PLATEAU_RATE_FACTOR", None)
    t_off, _ = synthesize()
    assert t_on == t_off
    assert not any(real_grape(*args, **kwargs).converged
                   for args, kwargs in stopped)


@pytest.mark.parametrize(
    "gates", [[Gate(GateName.CNOT, (0, 1))], [Gate(GateName.SWAP, (0, 1))],
              ZZ_BLOCK, list(qaoa_triangle().gates)],
    ids=["cnot", "swap", "cnot-rz-cnot", "qaoa-triangle"])
def test_min_time_bound_changes_no_min_time_result(monkeypatch, gates):
    # the bound only skips trials that cannot converge: the same duration
    # with it on and off, in fewer GRAPE runs, and every trial run below the
    # bound with it off fails. Pulses may differ, since failures seed rungs.
    # qaoa-triangle's gates merge into one 3-qubit instruction on a line,
    # whose bound is the cut speed limit.
    calls = []

    def counting_grape(*args, **kwargs):
        res = real_grape(*args, **kwargs)
        calls.append((args, res))
        return res

    real_grape = optctrl.grape_optimize
    monkeypatch.setattr(optctrl, "grape_optimize", counting_grape)

    def synthesize():
        calls.clear()
        ocu = OptimalControlUnit(adjacency=lambda a, b: abs(a - b) == 1)
        t, _, _ = ocu.synthesize(AggregatedInstruction(list(gates)))
        return t, list(calls)

    t_on, runs_on = synthesize()
    real_limit = optctrl._speed_limit
    monkeypatch.setattr(optctrl, "_speed_limit", lambda *args: (0.0, None))
    t_off, runs_off = synthesize()
    assert t_on == t_off
    assert len(runs_on) < len(runs_off)
    below = [res for (v, m, duration, cfg), res in runs_off
             if duration < real_limit(v, m, cfg.fidelity_threshold)[0]]
    assert below and not any(res.converged for res in below)


def _haar(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


QUARTER = math.pi / 4


@pytest.mark.parametrize("gates, coords, exact, relaxed", [
    ([Gate(GateName.CNOT, (0, 1))], (QUARTER, 0, 0), 12.5, 11.99654),
    ([Gate(GateName.SWAP, (0, 1))], (QUARTER,) * 3, 18.75, 18.24654),
    ([Gate(GateName.ISWAP, (0, 1))], (QUARTER, QUARTER, 0), 12.5, 11.99654),
    (ZZ_BLOCK, (math.pi - 2.835, 0, 0), 4.87957, 4.37611),
    ([Gate(GateName.H, (0,)), Gate(GateName.RX, (1,), (0.3,))], (0, 0, 0),
     0.0, 0.0),
], ids=["cnot", "swap", "iswap", "zz-5.67", "local"])
def test_min_time_bound_reference_values(model2, gates, coords, exact,
                                         relaxed):
    # c1 / (pi mu) for CNOT and iSWAP, (c1 + c2 + c3) / (2 pi mu) for SWAP,
    # and 0.50346 ns less in the 0.999 fidelity ball
    u = gates_unitary(gates, [0, 1])
    assert np.allclose(_weyl_coordinates(u), coords, atol=1e-9)
    assert min_time_bound(u, model2, 1.0) == pytest.approx(exact, abs=1e-5)
    assert min_time_bound(u, model2, 0.999) == pytest.approx(relaxed, abs=1e-5)


def test_weyl_coordinates_invariant_under_local_unitaries():
    rng = np.random.default_rng(9)
    targets = [_haar(4, rng) for _ in range(4)] + [
        gate_unitary(Gate(name, (0, 1)))
        for name in (GateName.CNOT, GateName.SWAP, GateName.ISWAP)]
    for i in range(200):
        u = targets[i % len(targets)]
        k1 = np.kron(_haar(2, rng), _haar(2, rng))
        k2 = np.kron(_haar(2, rng), _haar(2, rng))
        v = np.exp(2j * math.pi * rng.random()) * k1 @ u @ k2
        assert np.allclose(_weyl_coordinates(v), _weyl_coordinates(u),
                           atol=1e-7)


def test_min_time_bound_off_two_qubit_xy_models():
    # CNOT (x) I on a triangle: the cuts {0} | {1, 2} and {1} | {0, 2} have
    # P = 1/2 and two crossing pairs, so T = (pi/4 - arccos sqrt(0.999)) /
    # (4 pi MU_MAX); a product target gets 0; and an uncoupled pair never
    # reaches an entangling target
    cnot = gate_unitary(Gate(GateName.CNOT, (0, 1)))
    m3 = HamiltonianModel.build(3)
    expected = (QUARTER - math.acos(math.sqrt(0.999))) / (
        4 * math.pi * optctrl.MU_MAX)
    assert expected == pytest.approx(2.999, abs=1e-3)
    assert min_time_bound(np.kron(cnot, np.eye(2)), m3, 0.999) \
        == pytest.approx(expected, rel=1e-12)
    x = gate_unitary(Gate(GateName.X, (0,)))
    assert min_time_bound(np.kron(np.kron(x, x), x), m3, 0.999) == 0.0
    assert min_time_bound(cnot, HamiltonianModel.build(2, []), 0.999) \
        == math.inf


@pytest.mark.parametrize("f", [0.99, 0.999])
def test_fidelity_ball_needs_at_most_delta(model2, f):
    # every W = exp(iG) with F(W, I) >= f has an exact bound of at most
    # delta(f), which is how much the relaxed bound gives up
    s_star = (3 - math.sqrt(9 - 12 * (1 - f))) / 2
    delta = math.asin(math.sqrt(s_star)) / (math.pi * optctrl.MU_MAX)
    rng = np.random.default_rng(int(f * 1000))
    worst = 0.0
    for _ in range(2000):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lam, q = np.linalg.eigh(h + h.conj().T)

        def fid(r):
            return abs(np.exp(1j * r * lam).sum()) ** 2 / 16

        lo, hi = 0.0, 0.01
        while fid(hi) >= f:
            lo, hi = hi, 2 * hi
        for _ in range(40):   # onto the sphere F(W, I) = f
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if fid(mid) >= f else (lo, mid)
        w = (q * np.exp(1j * lo * lam)) @ q.conj().T
        assert 1 - infidelity(w, np.eye(4)) >= f - 1e-12
        worst = max(worst, min_time_bound(w, model2, 1.0))
    assert 0 < worst <= delta


TWO_PI_MU = 2 * math.pi * optctrl.MU_MAX


def _cuts(m):
    """Every bipartition of m's qubits once, with its crossing pair count."""
    n = m.num_qubits
    for mask in range(1, 2 ** (n - 1)):
        part = [q for q in range(n) if mask >> q & 1]
        yield part, sum((a in part) != (b in part) for a, b in m.pairs)


@pytest.mark.parametrize("m", [
    HamiltonianModel.build(3, [(0, 1), (1, 2)]), HamiltonianModel.build(3),
    HamiltonianModel.build(4, [(0, 1), (1, 2), (2, 3)])],
    ids=["line-3", "triangle", "line-4"])
def test_cut_speed_limit_holds_on_sampled_pulses(m):
    # the cut bound's speed limit: a T ns pulse ends within Fubini-Study
    # distance 2 pi MU_MAX c_A T of the products across every cut A | B,
    # checked where that is below pi/2, on uniform random, bang-bang and
    # constant pulses (full coupling, random local drives); so no pulse
    # beats min_time_bound of the unitary it reaches
    rng = np.random.default_rng(m.num_qubits + len(m.pairs))
    k, bounds = len(m.channels), m.bounds[:, None]
    coupling = [len(ch.qubits) == 2 for ch in m.channels]
    checked, slack = 0, math.inf
    for n in (2, 4, 8, 12, 16):
        for _ in range(20):
            constant = np.where(coupling, 1.0, rng.uniform(-1, 1, size=k))
            for amps in (rng.uniform(-1, 1, size=(k, n)),
                         rng.choice([-1.0, 1.0], size=(k, n)),
                         np.repeat(constant[:, None], n, axis=1)):
                u = evolve(ControlPulses(bounds * amps, m.dt), m)
                assert min_time_bound(u, m, 1.0) <= n * m.dt + 1e-9
                for part, crossing in _cuts(m):
                    reach = TWO_PI_MU * crossing * n * m.dt
                    if reach < math.pi / 2:
                        p = min(1.0, cut_fidelity_bound(u, part))
                        slack = min(slack, reach - math.acos(math.sqrt(p)))
                        checked += 1
    assert checked >= 600 and slack >= -1e-9


@pytest.mark.parametrize("f", [1.0, 0.999])
def test_cut_formula_never_exceeds_the_weyl_bound(model2, f):
    # on a coupled pair the cut formula is (arccos sqrt(P) -
    # arccos sqrt(f)) / (2 pi MU_MAX); the Weyl bound is exact under free
    # local control, so on Haar-random targets the cut formula stays below
    # it, a cross-check of both bounds
    rng = np.random.default_rng(int(f * 1000) + 4)
    for _ in range(500):
        v = _haar(4, rng)
        p = cut_fidelity_bound(v, [0])
        cut = (math.acos(math.sqrt(p)) - math.acos(math.sqrt(f))) / TWO_PI_MU
        assert cut <= min_time_bound(v, model2, f) + 1e-9


def test_unreachable_target_fails_before_any_trial(monkeypatch, model2):
    def boom(*args, **kwargs):
        raise AssertionError("GRAPE ran for an unreachable target")

    monkeypatch.setattr(optctrl, "grape_optimize", boom)
    ocu = OptimalControlUnit(adjacency=lambda a, b: False)
    with pytest.raises(ConvergenceError, match="inf ns minimum-time bound"):
        ocu.latency(AggregatedInstruction([Gate(GateName.CNOT, (0, 1))]))
    cnot = gate_unitary(Gate(GateName.CNOT, (0, 1)))
    monkeypatch.setattr(optctrl, "CAP_NS", 10.0)
    with pytest.raises(ConvergenceError, match="12.00 ns minimum-time bound"
                       ) as exc:
        min_time(cnot, model2)
    assert exc.value.best_fidelity == pytest.approx(0.25)


def test_cut_fidelity_bound_values():
    # a Toffoli realigned across its control has singular values^2 6 and 2
    # of d = 8; a product reaches fidelity 1 across its own cut only
    toffoli = np.eye(8)
    toffoli[6:, 6:] = [[0, 1], [1, 0]]
    assert cut_fidelity_bound(toffoli, [0]) == pytest.approx(0.75)
    cnot = gate_unitary(Gate(GateName.CNOT, (0, 1)))
    x = gate_unitary(Gate(GateName.X, (0,)))
    product = np.kron(x, cnot)          # X on 0, CNOT on (1, 2)
    assert cut_fidelity_bound(product, [0]) == pytest.approx(1.0)
    assert cut_fidelity_bound(product, [1]) < 0.999
    # no sampled product across {0} | {1, 2} beats the Toffoli's bound
    rng = np.random.default_rng(8)

    def haar(d):
        return np.linalg.qr(rng.normal(size=(d, d))
                            + 1j * rng.normal(size=(d, d)))[0]

    best = max(1 - infidelity(np.kron(haar(2), haar(4)), toffoli)
               for _ in range(200))
    assert best <= 0.75


def test_product_across_an_uncoupled_cut_is_not_rejected():
    # pairs (1, 2) only: X on 0, H on 1 and Z on 2 are a product across
    # {0} | {1, 2}, so min_time runs and converges
    m = HamiltonianModel.build(3, [(1, 2)])
    v = gates_unitary([Gate(GateName.X, (0,)), Gate(GateName.H, (1,)),
                       Gate(GateName.Z, (2,))], [0, 1, 2])
    t, res = min_time(v, m, OptimizerConfig(max_iters=200))
    assert res.converged and t > 0


def test_connected_models_skip_the_cut_check(monkeypatch, model2):
    def boom(*args):
        raise AssertionError("cut bound computed for a connected model")

    monkeypatch.setattr(optctrl, "cut_fidelity_bound", boom)
    t, res = min_time(gate_unitary(Gate(GateName.CNOT, (0, 1))), model2)
    assert res.converged and t > 0


def test_failure_without_trials_reports_identity_fidelity(monkeypatch,
                                                          model1):
    # a cap below the first rung runs no trial: the best fidelity is the
    # zero pulse's, not a placeholder
    x = gate_unitary(Gate(GateName.X, (0,)))
    monkeypatch.setattr(optctrl, "CAP_NS", 1.0)
    with pytest.raises(ConvergenceError) as exc:
        min_time(x, model1)
    assert exc.value.best_fidelity == 0.0


def test_synthesis_failure_names_best_fidelity_once(monkeypatch):
    monkeypatch.setattr(optctrl, "CAP_NS", 2.0)
    ocu = OptimalControlUnit(cfg=OptimizerConfig(max_iters=1))
    with pytest.raises(ConvergenceError, match="pulse synthesis failed") as exc:
        ocu.latency(AggregatedInstruction([Gate(GateName.CNOT, (0, 1))]))
    assert str(exc.value).count("best fidelity") == 1


def test_min_time_identity_is_zero(model1):
    t, res = min_time(np.eye(2, dtype=complex), model1)
    assert t == 0.0 and res.converged


def test_min_time_of_xy_native_targets_next_to_their_bound(model2):
    # exp(-i 2 pi MU_MAX T0 XY) is reached by the bare coupling in T0 ns;
    # its Weyl bound at fidelity 0.999 lies 0.503 ns below, and the 12 ns
    # trial just past the bound converges, so the result sits within 1 ns
    # of it. Skipping trials below bound + 1 ns would return 14 ns for both
    w, q = np.linalg.eigh(optctrl._XY)
    for t0, bound in ((12.2, 11.70), (11.8, 11.30)):
        v = (q * np.exp(-1j * TWO_PI * MU_MAX * t0 * w)) @ q.conj().T
        assert min_time_bound(v, model2, 0.999) == pytest.approx(bound,
                                                                 abs=5e-3)
        t, res = min_time(v, model2)
        assert t == 12.0 and res.converged and res.fidelity >= 0.999


def test_band_trials_run_at_most_one_plateau_window(monkeypatch, model2):
    # every trial shorter than the bound + BAND_NS (the CNOT's 12 ns, 0.0035
    # ns past its bound) stops within max_iters // 24 evaluations, and the
    # CNOT still comes out at 14 ns
    trials = []

    def recording_grape(*args, **kwargs):
        res = real_grape(*args, **kwargs)
        trials.append((args, res.iterations))
        return res

    real_grape = optctrl.grape_optimize
    monkeypatch.setattr(optctrl, "grape_optimize", recording_grape)
    cfg = OptimizerConfig()
    t, res = min_time(gate_unitary(Gate(GateName.CNOT, (0, 1))), model2, cfg)
    assert t == 14.0 and res.converged
    band = [iters for (v, m, duration, c), iters in trials
            if duration < min_time_bound(v, m, c.fidelity_threshold)
            + optctrl.BAND_NS]
    assert band and all(iters <= cfg.max_iters // 24 for iters in band)


def test_budget_keeps_the_plateau_window_of_max_iters(model2):
    # the cold CNOT at 12 ns runs its whole budget of 25, since the stop
    # cannot fire before max_iters // 8; with max_iters = 25 itself, the
    # window shrinks and the stop ends the trial after a few evaluations
    cnot = gate_unitary(Gate(GateName.CNOT, (0, 1)))
    capped = grape_optimize(cnot, model2, 12.0, budget=25)
    assert not capped.converged and capped.iterations == 25
    short = grape_optimize(cnot, model2, 12.0, OptimizerConfig(max_iters=25))
    assert short.iterations < 25
    with pytest.raises(ControlError, match="budget must be at least 1"):
        grape_optimize(cnot, model2, 12.0, budget=0)


def test_cnot_misses_the_threshold_at_its_band_grid_point(monkeypatch,
                                                          model2):
    # the evidence for the band budget: with no plateau stop and all 600
    # evaluations, six cold starts and the 14 ns pulse compressed and
    # truncated onto 12 ns all stay below 0.999 (the best reached 0.9943).
    # Of the CNOT, the SWAP and the CNOT-Rz-CNOT block, only the CNOT has a
    # grid point in the band: 12 ns for an 11.9965 ns bound
    cnot = gate_unitary(Gate(GateName.CNOT, (0, 1)))
    t, found = min_time(cnot, model2)
    assert t == 14.0
    monkeypatch.setattr(optctrl, "PLATEAU_RATE_FACTOR", None)
    cold = [grape_optimize(cnot, model2, 12.0, OptimizerConfig(seed=s))
            for s in range(6)]
    amps = found.pulses.amplitudes
    warm = [grape_optimize(cnot, model2, 12.0, init_amplitudes=init)
            for init in (optctrl._compress(amps, 24), amps[:, :24])]
    assert all(not r.converged and r.iterations == 600 and r.fidelity < 0.999
               for r in cold + warm)


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
    doc = json.loads(p.to_json(model1))
    assert doc["dt"] == p.dt
    assert np.allclose(doc["amplitudes"], p.amplitudes)
    assert [ch["name"] for ch in doc["channels"]] == \
        [ch.name for ch in model1.channels]


def test_fingerprint_ignores_the_sign_of_zero():
    # rounding maps -1e-17 to -0.0, whose bytes differ from 0.0's
    eye = np.eye(2, dtype=complex)
    tiny = eye.copy()
    tiny[0, 1] = -1e-17 - 1e-17j
    assert fingerprint(tiny) == fingerprint(eye)
    assert fingerprint(eye + 1e-5) != fingerprint(eye)


def test_ocu_caches_repeated_instructions():
    ocu = OptimalControlUnit()
    ins_a = AggregatedInstruction([Gate(GateName.RZ, (0,), (1.1,))])
    ins_b = AggregatedInstruction([Gate(GateName.RZ, (5,), (1.1,))])
    d1 = ocu.latency(ins_a)
    assert len(ocu.cache) == 1
    assert ocu.latency(ins_b) == d1   # same local unitary
    assert len(ocu.cache) == 1


def test_merged_instruction_never_slower_than_parts():
    # concatenated member pulses bound the merged min_time from above
    ocu = OptimalControlUnit(adjacency=lambda a, b: abs(a - b) == 1)
    gates = [Gate(GateName.CNOT, (0, 1)), Gate(GateName.CNOT, (1, 2))]
    parts = sum(ocu.latency(AggregatedInstruction([g])) for g in gates)
    merged = ocu.latency(AggregatedInstruction(list(gates)))
    assert merged <= parts + 1e-9


def test_layered_fallback_matches_sequential():
    # members on disjoint qubits share time steps; under zero drift their
    # channels commute, so the layers keep the concatenation's unitary
    ocu = OptimalControlUnit()
    ins = AggregatedInstruction(list(qaoa_triangle().gates))
    model = HamiltonianModel(len(ins.qubits), ocu._pairs(ins.qubits))
    layered = ocu._concat_fallback(ins, model)
    row = {(ch.name[:2], ch.qubits): i for i, ch in enumerate(model.channels)}
    sequential = np.concatenate(
        [ocu._embed_member(g, row, ins.qubits) for g in ins.gates], axis=1)
    assert layered.shape[1] < sequential.shape[1]
    u_layered = evolve(ControlPulses(layered, model.dt), model)
    u_sequential = evolve(ControlPulses(sequential, model.dt), model)
    assert np.abs(u_layered - u_sequential).max() < 1e-12


def test_ocu_respects_adjacency():
    ocu = OptimalControlUnit(adjacency=lambda a, b: abs(a - b) == 1)
    ins = AggregatedInstruction([Gate(GateName.CNOT, (3, 4))])
    assert ocu._pairs(ins.qubits) == ((0, 1),)
    ins_far = AggregatedInstruction([Gate(GateName.H, (0,)),
                                     Gate(GateName.H, (5,))])
    assert ocu._pairs(ins_far.qubits) == ()
