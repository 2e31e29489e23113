"""GRAPE optimal control over a 2-level transmon model with XY coupling.

Model: zero drift in the rotating frame; per qubit sigma_x/y/z drives bounded
at 5*mu_max, per coupled pair one XY exchange channel (s+s- + s-s+) bounded
at mu_max = 0.02 GHz.  Piecewise-constant amplitudes u_k(j) in GHz enter the
step Hamiltonian as H_j = sum_k 2*pi*u_k(j)*H_k (hbar = 1, angular
frequencies in rad/ns), and U_j = exp(-i H_j dt).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gates import SIGMA_X, SIGMA_Y, SIGMA_Z, permute_wires

MU_MAX_DEFAULT = 0.02   # GHz, XY coupling limit
SINGLE_QUBIT_FACTOR = 5.0
DT_DEFAULT = 0.5        # ns
TWO_PI = 2.0 * math.pi
# From max_iters // 2 on, a GRAPE trial stops unconverged once ln(1 - best
# fidelity), extrapolated to max_iters at this many times its mean rate since
# max_iters // 6, misses ln(1 - threshold). min_time never reuses a failed
# trial's pulses, so stopping one changes no result. None turns it off.
PLATEAU_RATE_FACTOR = 3.0

_XY = 0.5 * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y))


class ControlError(RuntimeError):
    pass


class ConvergenceError(ControlError):
    def __init__(self, msg: str, best_fidelity: float):
        super().__init__(f"{msg} (best fidelity {best_fidelity:.6f})")
        self.reason = msg
        self.best_fidelity = best_fidelity


def _embed_op(op: np.ndarray, wires: list[int], num_qubits: int) -> np.ndarray:
    """Tensor an operator (not necessarily unitary) with identity on the rest."""
    rest = [q for q in range(num_qubits) if q not in wires]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    return permute_wires(full, list(wires) + rest, list(range(num_qubits)))


@dataclass(frozen=True)
class Channel:
    name: str
    qubits: tuple[int, ...]
    op: np.ndarray = field(compare=False)
    bound: float  # GHz


@dataclass
class HamiltonianModel:
    num_qubits: int
    channels: list[Channel]
    dt: float = DT_DEFAULT
    drift: np.ndarray | None = None
    # 2*pi*H_k stacked over channels, K x d x d: the step Hamiltonian per unit
    # amplitude, shared by the propagators and the gradient
    ops: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dt <= 0:
            raise ControlError("dt must be positive")
        d = 2 ** self.num_qubits
        if self.drift is None:
            self.drift = np.zeros((d, d), dtype=complex)
        for ch in self.channels:
            if np.max(np.abs(ch.op - ch.op.conj().T)) > 1e-12:
                raise ControlError(f"channel {ch.name} operator is not Hermitian")
            if ch.bound <= 0:
                raise ControlError(f"channel {ch.name} bound must be positive")
        self.ops = np.array([TWO_PI * ch.op for ch in self.channels],
                            dtype=complex).reshape(len(self.channels), d, d)

    @property
    def dim(self) -> int:
        return 2 ** self.num_qubits

    @property
    def bounds(self) -> np.ndarray:
        return np.array([ch.bound for ch in self.channels])

    @classmethod
    def build(cls, num_qubits: int, coupled_pairs=None,
              mu_max: float = MU_MAX_DEFAULT, dt: float = DT_DEFAULT):
        """Standard control set: x/y/z drive per qubit, XY channel per pair.

        coupled_pairs=None couples every qubit pair (all-to-all).
        """
        if coupled_pairs is None:
            coupled_pairs = [(a, b) for a in range(num_qubits)
                             for b in range(a + 1, num_qubits)]
        u1 = SINGLE_QUBIT_FACTOR * mu_max
        channels = []
        for q in range(num_qubits):
            for label, sig in (("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z)):
                channels.append(Channel(f"s{label}{q}", (q,),
                                        _embed_op(sig, [q], num_qubits), u1))
        for a, b in coupled_pairs:
            a, b = min(a, b), max(a, b)
            channels.append(Channel(f"xy{a}_{b}", (a, b),
                                    _embed_op(_XY, [a, b], num_qubits), mu_max))
        return cls(num_qubits, channels, dt)


@dataclass
class ControlPulses:
    """Amplitude table u_k(j): channels x time steps, GHz."""
    amplitudes: np.ndarray
    dt: float

    @property
    def steps(self) -> int:
        return self.amplitudes.shape[1] if self.amplitudes.size else 0

    @property
    def duration_ns(self) -> float:
        return self.steps * self.dt

    def to_json(self, m: HamiltonianModel) -> str:
        return json.dumps({
            "dt": self.dt,
            "channels": [{"name": ch.name, "qubits": list(ch.qubits),
                          "bound": ch.bound} for ch in m.channels],
            "amplitudes": [list(map(float, row)) for row in self.amplitudes],
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "ControlPulses":
        doc = json.loads(text)
        return ControlPulses(np.array(doc["amplitudes"], dtype=float), doc["dt"])


@dataclass
class OptimizerConfig:
    max_iters: int = 600
    step_size: float = 0.15          # Adam learning rate on free parameters
    fidelity_threshold: float = 0.999
    seed: int = 7
    cap_ns: float = 2000.0           # min_time upper-bound search limit

    def __post_init__(self):
        if not 0 < self.fidelity_threshold <= 1:
            raise ControlError("fidelity threshold must be in (0, 1]")
        if self.max_iters < 1:
            raise ControlError("max_iters must be at least 1")


def _step_propagators(u: np.ndarray, m: HamiltonianModel):
    """Batched eigendecomposition of every step Hamiltonian."""
    h = np.einsum("kn,kab->nab", u, m.ops)
    if np.max(np.abs(m.drift)) > 0:
        h = h + m.drift[None, :, :]
    lam, q = np.linalg.eigh(h)
    phase = np.exp(-1j * lam * m.dt)
    steps = np.einsum("nab,nb,ncb->nac", q, phase, q.conj())
    return steps, lam, q, phase


def evolve(p: ControlPulses, m: HamiltonianModel) -> np.ndarray:
    """Total propagator U = U_N ... U_1 for piecewise-constant pulses."""
    if p.amplitudes.size and p.amplitudes.shape[0] != len(m.channels):
        raise ControlError(
            f"pulse table has {p.amplitudes.shape[0]} channels, "
            f"model has {len(m.channels)}")
    u_total = np.eye(m.dim, dtype=complex)
    if p.steps == 0:
        return u_total
    steps, *_ = _step_propagators(p.amplitudes, m)
    for j in range(p.steps):
        u_total = steps[j] @ u_total
    return u_total


def infidelity(u: np.ndarray, v_target: np.ndarray) -> float:
    """1 - |Tr(V^dag U)|^2 / d^2; invariant under global phase."""
    if u.shape != v_target.shape:
        raise ControlError(f"dimension mismatch {u.shape} vs {v_target.shape}")
    d = u.shape[0]
    tau = np.trace(v_target.conj().T @ u)
    return float(1.0 - (abs(tau) / d) ** 2)


def _loss_and_gradient(u_amp: np.ndarray, m: HamiltonianModel,
                       v_target: np.ndarray):
    """Infidelity and its exact gradient w.r.t. every amplitude u_k(j).

    Uses the eigendecomposition form of the matrix-exponential directional
    derivative, so the gradient is exact for piecewise-constant controls.
    With N steps, K channels and dimension d it costs O(N d^3 + K N d^2).
    """
    n = u_amp.shape[1]
    d = m.dim
    steps, lam, q, phase = _step_propagators(u_amp, m)

    fwd = np.empty((n + 1, d, d), dtype=complex)  # fwd[j] = U_j ... U_1
    fwd[0] = np.eye(d)
    for j in range(n):
        fwd[j + 1] = steps[j] @ fwd[j]
    bwd = np.empty((n + 1, d, d), dtype=complex)  # bwd[j] = U_N ... U_{j+1}
    bwd[n] = np.eye(d)
    for j in range(n - 1, -1, -1):
        bwd[j] = bwd[j + 1] @ steps[j]

    tau = np.trace(v_target.conj().T @ fwd[n])
    loss = 1.0 - (abs(tau) / d) ** 2

    # divided differences of f(x) = exp(-i x dt) over step eigenvalues; on
    # (near-)degenerate pairs, e.g. an idle qubit, they are the derivative
    dlam = lam[:, :, None] - lam[:, None, :]
    df = phase[:, :, None] - phase[:, None, :]
    deriv = (-1j * m.dt * phase)[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(np.abs(dlam) > 1e-12, df / dlam, deriv)

    # W_j = F_{j-1} (V^dag B_j) and X = Q^dag W Q; the trace identity
    # Tr(W Q (phi o Q^dag G_k Q) Q^dag) = sum_cd G_k[c, d] M[c, d]
    # with M = conj(Q) (X^T o phi) Q^T contracts each G_k once per step
    qt = np.swapaxes(q, 1, 2)
    w = fwd[:n] @ v_target.conj().T @ bwd[1:]
    x = qt.conj() @ w @ q
    mm = q.conj() @ (np.swapaxes(x, 1, 2) * phi) @ qt
    dtau = m.ops.reshape(-1, d * d) @ mm.reshape(n, d * d).T
    grad = (-2.0 / d ** 2) * np.real(np.conj(tau) * dtau)
    return loss, grad, fwd[n]


def gradient(p: ControlPulses, m: HamiltonianModel,
             v_target: np.ndarray) -> np.ndarray:
    """d(infidelity)/d u_k(j) as a channels x steps matrix."""
    _, grad, _ = _loss_and_gradient(p.amplitudes, m, v_target)
    return grad


@dataclass
class GrapeResult:
    pulses: ControlPulses
    fidelity: float
    iterations: int
    converged: bool


def grape_optimize(v_target: np.ndarray, m: HamiltonianModel,
                   duration_ns: float, cfg: OptimizerConfig | None = None,
                   init_amplitudes: np.ndarray | None = None) -> GrapeResult:
    """Gradient descent on infidelity with Adam steps and tanh-bounded pulses."""
    cfg = cfg or OptimizerConfig()
    if v_target.shape != (m.dim, m.dim):
        raise ControlError(
            f"target dimension {v_target.shape} does not match model dim {m.dim}")
    n = int(round(duration_ns / m.dt))
    if abs(n * m.dt - duration_ns) > 1e-9:
        raise ControlError(f"duration {duration_ns} ns is not a multiple of dt")
    k = len(m.channels)
    bounds = m.bounds[:, None]
    if n == 0:
        fid = 1.0 - infidelity(np.eye(m.dim, dtype=complex), v_target)
        return GrapeResult(ControlPulses(np.zeros((k, 0)), m.dt), fid, 0,
                           fid >= cfg.fidelity_threshold)

    rng = np.random.default_rng(cfg.seed)
    if init_amplitudes is not None:
        if init_amplitudes.shape != (k, n):
            raise ControlError(f"warm start has shape {init_amplitudes.shape}, "
                               f"expected {(k, n)}")
        frac = np.clip(init_amplitudes / bounds, -0.999, 0.999)
        theta = np.arctanh(frac)
    else:
        theta = rng.uniform(-0.05, 0.05, size=(k, n))

    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best_fid, best_u = -1.0, bounds * np.tanh(theta)
    target_loss = 1.0 - cfg.fidelity_threshold
    anchor, check_from = cfg.max_iters // 6, cfg.max_iters // 2
    project = PLATEAU_RATE_FACTOR is not None and anchor > 0 and target_loss > 0

    for it in range(1, cfg.max_iters + 1):
        u = bounds * np.tanh(theta)
        loss, grad_u, _ = _loss_and_gradient(u, m, v_target)
        fid = 1.0 - loss
        if fid > best_fid:
            best_fid, best_u = fid, u.copy()
        if loss <= target_loss:
            return GrapeResult(ControlPulses(best_u, m.dt), best_fid, it, True)
        if project and it >= anchor:
            ell = math.log(1.0 - best_fid)  # every loss > target_loss > 0
            if it == anchor:
                ell_a = ell
            elif it >= check_from and ell - PLATEAU_RATE_FACTOR * (ell_a - ell) \
                    / (it - anchor) * (cfg.max_iters - it) > math.log(target_loss):
                return GrapeResult(ControlPulses(best_u, m.dt), best_fid, it,
                                   False)
        grad_theta = grad_u * bounds * (1.0 - np.tanh(theta) ** 2)
        m1 = beta1 * m1 + (1 - beta1) * grad_theta
        m2 = beta2 * m2 + (1 - beta2) * grad_theta ** 2
        mhat = m1 / (1 - beta1 ** it)
        vhat = m2 / (1 - beta2 ** it)
        theta = theta - cfg.step_size * mhat / (np.sqrt(vhat) + eps)

    return GrapeResult(ControlPulses(best_u, m.dt), best_fid, cfg.max_iters, False)


BISECT_RESOLUTION_STEPS = 4  # min_time resolution = 4 * dt
# Adam moves every parameter by about one step size in its first updates,
# whatever the gradient; polishing a near-optimal fallback pulse with the
# cold-start step throws the warm start away, so the polish uses a smaller one.
WARM_POLISH_STEP_FACTOR = 0.1


def fingerprint(u: np.ndarray, extra: tuple = ()) -> tuple:
    """Cache key: matrix rounded to 1e-6 plus structural context."""
    return (u.shape[0], np.round(u, 6).tobytes()) + extra


def min_time(v_target: np.ndarray, m: HamiltonianModel,
             cfg: OptimizerConfig | None = None,
             fallback_amplitudes: np.ndarray | None = None
             ) -> tuple[float, GrapeResult]:
    """Shortest duration achieving the fidelity threshold, by bisection.

    Doubles an upper bound until success, then bisects with resolution
    4*dt: every bisection trial is a multiple of 4*dt, and shorter trials
    warm-start from the best found pulses. The result is on that grid too,
    unless it is the fallback's own duration and that is not.

    fallback_amplitudes, when given, is a pulse table that approximates the
    target, e.g. the concatenated member pulses of a merged instruction. Its
    fidelity is roughly the product of the member fidelities, so it can sit
    below the threshold: it is a warm start, not a proven upper bound. The
    doubling search polishes it at its own duration with the Adam step scaled
    by WARM_POLISH_STEP_FACTOR; if that polish converges, the result is at
    most the fallback's duration. If it does not, the search continues cold
    and the result can exceed it. The schedule-level guarantee that
    aggregation never lengthens a compile comes from compile_circuit, which
    keeps the unaggregated schedule when it is shorter.
    """
    cfg = cfg or OptimizerConfig()
    fid0 = 1.0 - infidelity(np.eye(m.dim, dtype=complex), v_target)
    if fid0 >= cfg.fidelity_threshold:
        return 0.0, GrapeResult(ControlPulses(
            np.zeros((len(m.channels), 0)), m.dt), fid0, 0, True)

    fb = fallback_amplitudes
    polish_cfg = replace(cfg, step_size=cfg.step_size * WARM_POLISH_STEP_FACTOR)
    fb_steps = fb.shape[1] if fb is not None else None
    steps = BISECT_RESOLUTION_STEPS
    best_fail = -1.0
    success = None
    while steps * m.dt <= cfg.cap_ns:
        n_try, init, trial_cfg = steps, None, cfg
        if fb is not None and fb_steps <= steps:
            n_try, init, trial_cfg = fb_steps, fb, polish_cfg
            fb = None
        res = grape_optimize(v_target, m, n_try * m.dt, trial_cfg,
                             init_amplitudes=init)
        if res.converged:
            success = (n_try, res)
            break
        best_fail = max(best_fail, res.fidelity)
        if init is None:
            steps *= 2
    if success is None:
        raise ConvergenceError(
            f"no pulse under {cfg.cap_ns} ns reached fidelity "
            f"{cfg.fidelity_threshold}", best_fail)

    hi, best = success
    res_steps = BISECT_RESOLUTION_STEPS
    lo = hi // 2 // res_steps * res_steps
    while hi - lo > res_steps:
        # on the grid, and short of hi even when a fallback's hi is not
        mid = lo + max(1, (hi - lo) // (2 * res_steps)) * res_steps
        warm = best.pulses.amplitudes[:, :mid]
        res = grape_optimize(v_target, m, mid * m.dt, cfg, init_amplitudes=warm)
        if res.converged:
            hi, best = mid, res
        else:
            lo = mid
    return hi * m.dt, best


class OptimalControlUnit:
    """Latency oracle: per-instruction minimum-time pulse synthesis with cache."""

    def __init__(self, mu_max: float = MU_MAX_DEFAULT, dt: float = DT_DEFAULT,
                 cfg: OptimizerConfig | None = None, adjacency=None):
        """adjacency: callable (site_a, site_b) -> bool, or None for all-to-all
        coupling inside each instruction."""
        self.mu_max = mu_max
        self.dt = dt
        self.cfg = cfg or OptimizerConfig()
        self.adjacency = adjacency
        # fingerprint -> (duration, GrapeResult, HamiltonianModel)
        self.cache: dict = {}

    def _pairs(self, qubits: list[int]) -> tuple:
        """Coupled operand pairs (i, j), i < j, as positions in qubits."""
        pairs = []
        for i, a in enumerate(qubits):
            for j in range(i + 1, len(qubits)):
                if self.adjacency is None or self.adjacency(a, qubits[j]):
                    pairs.append((i, j))
        return tuple(pairs)

    def _model_for(self, qubits: list[int]) -> tuple[HamiltonianModel, tuple]:
        pairs = self._pairs(qubits)
        model = HamiltonianModel.build(len(qubits), pairs,
                                       mu_max=self.mu_max, dt=self.dt)
        return model, pairs

    def _key(self, ins) -> tuple:
        """The channel set is fixed by the qubit count and the coupled pairs,
        so the unitary, the pairs and the threshold select one pulse."""
        return fingerprint(ins.target_unitary, (self._pairs(ins.context),
                                                self.cfg.fidelity_threshold))

    def _concat_fallback(self, ins, model: HamiltonianModel,
                         qubits: list[int]) -> np.ndarray | None:
        """Member pulses embedded and concatenated: a warm start for min_time.

        With zero drift, idle channels stay at zero, so each member's pulse
        acts exactly as its gate tensored with identity; the concatenation
        approximates the merged target at roughly the product of the member
        fidelities, which can fall below the threshold.
        """
        if len(ins.gates) < 2:
            return None
        from .gdg import AggregatedInstruction
        name_to_idx = {ch.name: i for i, ch in enumerate(model.channels)}
        segments = []
        for g in ins.gates:
            sub = AggregatedInstruction([g])
            _, res, sub_model = self.synthesize(sub)
            amps = res.pulses.amplitudes
            seg = np.zeros((len(model.channels), amps.shape[1]))
            pos = [qubits.index(s) for s in sub.context]
            for k, ch in enumerate(sub_model.channels):
                if ch.name.startswith("xy"):
                    la, lb = sorted(pos[q] for q in ch.qubits)
                    target = f"xy{la}_{lb}"
                else:
                    target = ch.name[:2] + str(pos[ch.qubits[0]])
                idx = name_to_idx.get(target)
                if idx is None:
                    return None  # operand pair not coupled in this model
                seg[idx] = amps[k]
            segments.append(seg)
        return np.concatenate(segments, axis=1)

    def synthesize(self, ins) -> tuple[float, GrapeResult, HamiltonianModel]:
        """min_time on the instruction's target unitary over its sub-lattice."""
        key = self._key(ins)
        if key not in self.cache:
            qubits = ins.context
            model, _ = self._model_for(qubits)
            fallback = self._concat_fallback(ins, model, qubits)
            try:
                duration, res = min_time(ins.target_unitary, model, self.cfg,
                                         fallback_amplitudes=fallback)
            except ConvergenceError as e:
                raise ConvergenceError(
                    f"pulse synthesis failed for {ins.label()}: {e.reason}",
                    e.best_fidelity)
            self.cache[key] = (duration, res, model)
        return self.cache[key]

    def latency(self, ins) -> float:
        return self.synthesize(ins)[0]

    def cached_duration(self, ins) -> float | None:
        """Duration if this instruction's unitary was already synthesized."""
        hit = self.cache.get(self._key(ins))
        return hit[0] if hit else None
