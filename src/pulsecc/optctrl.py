"""GRAPE optimal control over a 2-level transmon model with XY coupling.

The one model: zero drift in the rotating frame; per qubit sigma_x/y/z
drives bounded at 5*MU_MAX, per coupled pair one XY exchange channel (s+s- +
s-s+) bounded at MU_MAX = 0.02 GHz.  Piecewise-constant amplitudes u_k(j) in
GHz enter the step Hamiltonian as H_j = sum_k 2*pi*u_k(j)*H_k (hbar = 1,
angular frequencies in rad/ns), and U_j = exp(-i H_j dt).
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .gates import SIGMA_X, SIGMA_Y, SIGMA_Z, embed_operator
from .gdg import AggregatedInstruction
from .latency import asap_finishes

MU_MAX = 0.02           # GHz, XY coupling limit
SINGLE_QUBIT_FACTOR = 5.0
DT_DEFAULT = 0.5        # ns
CAP_NS = 2000.0         # min_time's longest trial duration
TWO_PI = 2.0 * math.pi
# From max_iters // 8 on, a GRAPE trial stops unconverged once ln(loss),
# extrapolated to max_iters at this many times its rate over the last
# max_iters // 24 evaluations, misses ln(1 - threshold). The projection is
# no proof: a stopped trial might have converged. It also ends at another
# pulse, and min_time seeds later ladder rungs from the best failed pulse, so
# a stop can change min_time's pulses. A hopeless rung outside min_time's
# band (BAND_NS) still runs at least max_iters // 8 evaluations per start,
# but on min_time's 2*dt segments, each at about half the cost of one on dt.
# None turns it off.
PLATEAU_RATE_FACTOR = 3.0
# ns past the minimum-time bound in which min_time caps a trial at one
# plateau window, max_iters // 24 evaluations: a heuristic (see min_time)
BAND_NS = 1.0
# GRAPE switches to Levenberg-Marquardt at a loss <= this * (1 - threshold)
ENDGAME_FACTOR = 3.0
# L-BFGS: curvature pairs kept, Armijo sufficient-decrease constant, and the
# length in tanh parameters of a steepest-descent step: the first step and
# every restart
LBFGS_MEMORY = 10
ARMIJO_C1 = 1e-4
STEEPEST_STEP_NORM = 1.0

_XY = 0.5 * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y))
# magic basis: local unitaries turn real orthogonal
_MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1],
                   [1, -1j, 0, 0]]) / math.sqrt(2)


class ControlError(RuntimeError):
    pass


class ConvergenceError(ControlError):
    def __init__(self, msg: str, best_fidelity: float):
        super().__init__(f"{msg} (best fidelity {best_fidelity:.6f})")
        self.reason = msg
        self.best_fidelity = best_fidelity


@dataclass(frozen=True)
class Channel:
    name: str
    qubits: tuple[int, ...]
    op: np.ndarray = field(compare=False)
    bound: float  # GHz


@dataclass
class HamiltonianModel:
    """The module's model on num_qubits qubits with an XY channel on each pair
    (a, b), 0 <= a < b < num_qubits, none repeated (ControlError otherwise);
    channels and ops are derived from the fields."""
    num_qubits: int
    pairs: tuple[tuple[int, int], ...]
    dt: float = DT_DEFAULT
    channels: list[Channel] = field(init=False, repr=False, compare=False)
    # 2*pi*H_k stacked over channels, K x d x d: the step Hamiltonian per unit
    # amplitude, shared by the propagators and the derivatives
    ops: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_qubits <= 0:
            raise ControlError(
                f"num_qubits must be positive, not {self.num_qubits}")
        if self.dt <= 0:
            raise ControlError(f"dt must be positive, not {self.dt}")
        for a, b in self.pairs:
            if not 0 <= a < b < self.num_qubits:
                raise ControlError(f"pair {(a, b)} is not (a, b) with 0 <= a "
                                   f"< b < {self.num_qubits}")
        if len(set(self.pairs)) < len(self.pairs):
            raise ControlError(f"pairs {self.pairs} repeat a pair")
        wires = range(self.num_qubits)
        u1 = SINGLE_QUBIT_FACTOR * MU_MAX
        self.channels = [
            Channel(f"s{label}{q}", (q,), embed_operator(sig, [q], wires), u1)
            for q in wires
            for label, sig in (("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z))]
        self.channels += [
            Channel(f"xy{a}_{b}", (a, b), embed_operator(_XY, [a, b], wires),
                    MU_MAX) for a, b in self.pairs]
        self.ops = np.array([TWO_PI * ch.op for ch in self.channels])

    @property
    def dim(self) -> int:
        return 2 ** self.num_qubits

    @property
    def bounds(self) -> np.ndarray:
        return np.array([ch.bound for ch in self.channels])

    @classmethod
    def build(cls, num_qubits: int, coupled_pairs=None):
        """The model with each coupled pair stored as (min, max);
        coupled_pairs=None couples every qubit pair (all-to-all)."""
        if coupled_pairs is None:
            coupled_pairs = [(a, b) for a in range(num_qubits)
                             for b in range(a + 1, num_qubits)]
        pairs = tuple((min(a, b), max(a, b)) for a, b in coupled_pairs)
        return cls(num_qubits, pairs)


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


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 600
    fidelity_threshold: float = 0.999
    seed: int = 7

    def __post_init__(self):
        if not 0 < self.fidelity_threshold <= 1:
            raise ControlError("fidelity threshold must be in (0, 1]")
        if self.max_iters < 1:
            raise ControlError("max_iters must be at least 1")
        if self.seed < 0:
            raise ControlError(f"seed must be non-negative, not {self.seed}")


def _propagate(u: np.ndarray, m: HamiltonianModel):
    """Amplitude table u's forward products F_0 = I, F_j = U_j ... U_1 on m
    (F_N is its unitary), and the eigenvalues and eigenvectors of its step
    Hamiltonians, from one batched eigendecomposition."""
    (k, n), d = u.shape, m.dim
    h = (u.T @ m.ops.reshape(k, d * d)).reshape(n, d, d)
    lam, q = np.linalg.eigh(h)
    phase = np.exp(-1j * lam * m.dt)
    steps = (q * phase[:, None, :]) @ np.swapaxes(q.conj(), 1, 2)
    fwd = np.empty((n + 1, d, d), dtype=complex)
    fwd[0] = np.eye(d)
    for j in range(n):
        np.matmul(steps[j], fwd[j], out=fwd[j + 1])
    return fwd, lam, q


def _table(p: ControlPulses, m: HamiltonianModel) -> np.ndarray:
    """p's amplitudes, once p has m's channels and time step."""
    if p.amplitudes.size and p.amplitudes.shape[0] != len(m.channels):
        raise ControlError(f"pulse table has {p.amplitudes.shape[0]} "
                           f"channels, model has {len(m.channels)}")
    if not math.isclose(p.dt, m.dt):
        raise ControlError(f"pulse table has dt {p.dt} ns, model has {m.dt} ns")
    return p.amplitudes


def evolve(p: ControlPulses, m: HamiltonianModel) -> np.ndarray:
    """Total propagator U = U_N ... U_1 for piecewise-constant pulses."""
    u = _table(p, m)
    return _propagate(u, m)[0][-1] if p.steps else np.eye(m.dim, dtype=complex)


def infidelity(u: np.ndarray, v_target: np.ndarray) -> float:
    """1 - |Tr(V^dag U)|^2 / d^2; invariant under global phase."""
    if u.shape != v_target.shape:
        raise ControlError(f"dimension mismatch {u.shape} vs {v_target.shape}")
    d = u.shape[0]
    tau = np.trace(v_target.conj().T @ u)
    return float(1.0 - (abs(tau) / d) ** 2)


def _cold_theta(k: int, n: int, seed: int) -> np.ndarray:
    """A cold start's tanh parameters for k channels and n steps: theta ~
    U(-0.05, 0.05) drawn from seed, so the amplitudes bound * tanh(theta)
    start near zero and the unitary near the identity."""
    return np.random.default_rng(seed).uniform(-0.05, 0.05, size=(k, n))


def _derivative_parts(prop, m: HamiltonianModel):
    """From a table's one propagation (_propagate), shared by its loss, its
    gradient and its Jacobian, the forward products F_j and per step the
    eigenvectors Q_j, A_j = Q_j^dag F_{j-1} and weights w_j of the one
    derivative formula, exact for piecewise-constant controls:

        dU/du_kj = U A_j^dag (w_j o Q_j^dag G_k Q_j) A_j,   U = F_N,

    since U_N ... U_{j+1} Q_j = U F_j^dag Q_j = U A_j^dag diag(conj phase_j).
    w_j = diag(conj phase_j) phi_j, phi_j the divided differences of f(x) =
    exp(-i x dt) over step j's eigenvalues, is -i dt e^{i g} sinc(g), g =
    (la - lb) dt / 2, e^{i g} = conj(h_a) h_b with h = e^{-i la dt / 2}: free
    of cancellation, and the derivative on degenerate pairs (idle qubits).
    """
    fwd, lam, q = prop
    half = np.exp(-0.5j * m.dt * lam)
    gap = 0.5 * m.dt * (lam[:, :, None] - lam[:, None, :])
    w = (-1j * m.dt * half.conj()[:, :, None] * half[:, None, :]
         * np.sinc(gap / np.pi))
    return fwd, q, np.swapaxes(q.conj(), 1, 2) @ fwd[:-1], w


def _loss_and_gradient(prop, m: HamiltonianModel, v_target: np.ndarray):
    """Infidelity of a propagated table and its exact gradient w.r.t. every
    amplitude u_k(j): d tau / du_kj = Tr(V^dag dU/du_kj) by _derivative_parts.
    With N steps, K channels and dimension d it costs O(N d^3 + K N d^2).
    """
    fwd, q, a, w = _derivative_parts(prop, m)
    n, d = len(a), m.dim
    vu = v_target.conj().T @ fwd[n]
    tau = np.trace(vu)
    loss = 1.0 - (abs(tau) / d) ** 2

    # Tr(V^dag U A^dag (w o Q^dag G_k Q) A) = Tr(X (w o Q^dag G_k Q)) with
    # X = A (V^dag U) A^dag, and the trace identity Tr(X (w o Q^dag G_k Q))
    # = sum_cd G_k[c, d] M[c, d] with M = conj(Q) (X^T o w) Q^T contracts
    # each G_k once per step
    x = a @ vu @ np.swapaxes(a.conj(), 1, 2)
    mm = q.conj() @ (np.swapaxes(x, 1, 2) * w) @ np.swapaxes(q, 1, 2)
    dtau = m.ops.reshape(-1, d * d) @ mm.reshape(n, d * d).T
    grad = (-2.0 / d ** 2) * np.real(np.conj(tau) * dtau)
    return loss, grad


def _jacobian(prop, m: HamiltonianModel):
    """U and U^dag dU/du_kj for every channel k and step j (K x N x d x d) of
    the propagated table, by _derivative_parts' formula."""
    fwd, q, a, w = _derivative_parts(prop, m)
    y = np.swapaxes(q.conj(), 1, 2) @ m.ops[:, None] @ q
    return fwd[-1], np.swapaxes(a.conj(), 1, 2) @ (w * y) @ a


def gradient(p: ControlPulses, m: HamiltonianModel,
             v_target: np.ndarray) -> np.ndarray:
    """d(infidelity)/d u_k(j) as a channels x steps matrix."""
    return _loss_and_gradient(_propagate(_table(p, m), m), m, v_target)[1]


@dataclass
class GrapeResult:
    pulses: ControlPulses
    fidelity: float
    iterations: int
    converged: bool


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g by the L-BFGS two-loop recursion over the (s, y, 1 / s.y) pairs,
    oldest first, with H_0 = (s.y / y.y) I from the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * np.vdot(s, q))
        q -= alphas[-1] * y
    s, y, rho = pairs[-1]
    q *= 1.0 / (rho * np.vdot(y, y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * np.vdot(y, q)) * s
    return -q


def grape_optimize(v_target: np.ndarray, m: HamiltonianModel,
                   duration_ns: float, cfg: OptimizerConfig | None = None,
                   init_amplitudes: np.ndarray | None = None,
                   budget: int | None = None) -> GrapeResult:
    """L-BFGS on infidelity over tanh-bounded pulses u = bound * tanh(theta),
    finished by Levenberg-Marquardt steps.

    A backtracking Armijo line search accepts only descent, so the losses at
    accepted iterates never increase and a warm start that already meets
    the threshold returns unchanged after one evaluation. A curvature pair
    with s.y <= 0 is skipped and clears the memory, since stale pairs crawl
    along a saddle's negative curvature; so does a direction that is not a
    descent direction. With no pairs the step is steepest descent of length
    STEEPEST_STEP_NORM. Once an accepted loss is at most ENDGAME_FACTOR * (1
    - threshold), where L-BFGS creeps, the trial takes Gauss-Newton steps on
    the residual U - e^{i alpha} V, alpha = arg Tr(V^dag U) reset each step:
    delta = -J^T (J J^T + lambda I)^{-1} r, solved in residual space with d^2
    unknowns, never over the K N parameters. A step is kept only if the
    infidelity falls; lambda shrinks fourfold when it does and grows
    fourfold when it does not. Every loss and gradient evaluation,
    line-search trial, Jacobian and Levenberg-Marquardt step counts as one
    of max_iters iterations. Each propagates its table once but a Jacobian,
    which reads the accepted iterate's propagation and with its solve costs
    about 2 gradient evaluations (3 qubits, 36 steps). A trial whose recent
    rate cannot reach the threshold stops early (PLATEAU_RATE_FACTOR).
    budget, if given, stops the trial after that many iterations; the
    plateau stop's window and check point still come from cfg.max_iters, so
    a budget under max_iters // 8 leaves the stop no chance to fire.
    min_time gives a trial within BAND_NS of its minimum-time bound one
    plateau window, max_iters // 24. That is a heuristic: 10 of 10 measured
    trials in that band failed, and those that converge there, as XY-native
    targets do, take 1 evaluation.
    """
    cfg = cfg or OptimizerConfig()
    if v_target.shape != (m.dim, m.dim):
        raise ControlError(
            f"target dimension {v_target.shape} does not match model dim {m.dim}")
    if duration_ns < 0:
        raise ControlError(f"duration {duration_ns} ns is negative")
    n = int(round(duration_ns / m.dt))
    if abs(n * m.dt - duration_ns) > 1e-9:
        raise ControlError(f"duration {duration_ns} ns is not a multiple of dt")
    if budget is not None and budget < 1:
        raise ControlError(f"budget must be at least 1, not {budget}")
    k = len(m.channels)
    bounds = m.bounds[:, None]
    if n == 0:
        fid = 1.0 - infidelity(np.eye(m.dim, dtype=complex), v_target)
        return GrapeResult(ControlPulses(np.zeros((k, 0)), m.dt), fid, 0,
                           fid >= cfg.fidelity_threshold)

    if init_amplitudes is not None:
        if init_amplitudes.shape != (k, n):
            raise ControlError(f"warm start has shape {init_amplitudes.shape}, "
                               f"expected {(k, n)}")
        frac = np.clip(init_amplitudes / bounds, -0.999, 0.999)
        theta = np.arctanh(frac)
    else:
        theta = _cold_theta(k, n, cfg.seed)

    def system(th, prop):
        # J^T (a row per theta entry), J J^T and r, rotated by U^dag: U^dag
        # maps J's columns to anti-Hermitian X, and Re X + Im X is an
        # isometry onto d x d reals; neither the rotation nor dropping the
        # Hermitian part of U^dag r, orthogonal to J's range, moves the step
        t = np.tanh(th)
        big_u, jac = _jacobian(prop, m)
        uv = big_u.conj().T @ v_target
        uv *= np.exp(-1j * np.angle(np.trace(uv)))
        r = 0.5 * (uv.conj().T - uv)
        jt = (jac.real + jac.imag).reshape(k * n, -1) * (
            bounds * (1.0 - t ** 2)).reshape(-1, 1)
        return jt, jt.T @ jt, (r.real + r.imag).ravel()

    target_loss = 1.0 - cfg.fidelity_threshold
    window, check_from = cfg.max_iters // 24, cfg.max_iters // 8
    project = PLATEAU_RATE_FACTOR is not None and window > 0 and target_loss > 0
    ells = deque(maxlen=window + 1)   # ln(loss) over the last window steps
    pairs = deque(maxlen=LBFGS_MEMORY)
    trial, endgame, jt, damping = theta, False, None, None

    for it in range(1, min(budget or cfg.max_iters, cfg.max_iters) + 1):
        if endgame and jt is None:   # the Jacobian at the accepted iterate
            jt, gram, r = system(theta, prop)
            if damping is None:
                damping = 1e-3 * np.trace(gram) / len(r)
        else:
            if endgame:   # a Levenberg-Marquardt step
                step = jt @ np.linalg.solve(gram + damping * np.eye(len(r)), r)
                trial = theta - step.reshape(k, n)
            t = np.tanh(trial)
            u_t = bounds * t
            prop_t = _propagate(u_t, m)
            if endgame:   # its loss alone
                loss_t = infidelity(prop_t[0][-1], v_target)
            else:
                loss_t, g_t = _loss_and_gradient(prop_t, m, v_target)
                g_t = g_t * bounds * (1.0 - t ** 2)
            if loss_t <= target_loss:
                return GrapeResult(ControlPulses(u_t, m.dt), 1.0 - loss_t, it,
                                   True)
            if endgame:   # kept only if the loss falls
                if loss_t < loss:
                    theta, u, prop, loss, jt = trial, u_t, prop_t, loss_t, None
                    damping /= 4
                else:
                    damping *= 4
            elif it == 1 or loss_t <= loss + ARMIJO_C1 * alpha * slope:
                if it > 1:
                    s, y = trial - theta, g_t - g
                    sy = np.vdot(s, y)
                    if sy > 0:
                        pairs.append((s, y, 1.0 / sy))
                    else:   # negative curvature, which the pairs cannot model
                        pairs.clear()
                theta, u, prop, loss, g = trial, u_t, prop_t, loss_t, g_t
                endgame = loss <= ENDGAME_FACTOR * target_loss
                if pairs:
                    direction = _lbfgs_direction(g, pairs)
                    slope = np.vdot(g, direction)
                if not pairs or slope >= 0:   # first step or restart
                    pairs.clear()
                    norm = np.linalg.norm(g)
                    if norm == 0:   # stationary: no descent direction left
                        break
                    direction = g * (-STEEPEST_STEP_NORM / norm)
                    slope = -STEEPEST_STEP_NORM * norm
                alpha = 1.0
            else:
                alpha *= 0.5
            if not endgame:
                trial = theta + alpha * direction
        if project:
            ells.append(math.log(loss))  # every loss > target_loss > 0
            if it >= check_from and ells[-1] - PLATEAU_RATE_FACTOR * (
                    ells[0] - ells[-1]) / window * (cfg.max_iters - it) \
                    > math.log(target_loss):
                return GrapeResult(ControlPulses(u, m.dt), 1.0 - loss, it, False)

    return GrapeResult(ControlPulses(u, m.dt), 1.0 - loss, it, False)


BISECT_RESOLUTION_STEPS = 4  # min_time resolution = 4 * dt


def fingerprint(u: np.ndarray, extra: tuple = ()) -> tuple:
    """Cache key: matrix rounded to 1e-6 plus structural context."""
    return (u.shape[0], (np.round(u, 6) + 0.0).tobytes()) + extra


def _weyl_coordinates(u: np.ndarray) -> np.ndarray:
    """Weyl coordinates c1 >= c2 >= |c3|, c1 <= pi/4, of a 2-qubit unitary:
    pair sums of lambda / 2, 2 lambda the eigenphases of M^T M for M = u /
    det(u)^(1/4) in the magic basis, folded by local equivalences."""
    mm = _MAGIC.conj().T @ (u / np.linalg.det(u) ** 0.25) @ _MAGIC
    lam = np.angle(np.linalg.eigvals(mm.T @ mm)) / 2
    lam[3] = -lam[:3].sum()
    c = (lam[[0, 1, 0]] + lam[[1, 2, 2]]) / 2
    return np.sort(np.abs(c - math.pi / 2 * np.round(c / (math.pi / 2))))[::-1]


def min_time_bound(v_target: np.ndarray, m: HamiltonianModel,
                   fidelity: float) -> float:
    """Duration (ns) below which no pulse on m reaches fidelity with v_target.

    At 2 qubits, with no drift, free local control and mu = MU_MAX on
    the one XY pair (0 if uncoupled), the least time to U is theta(U) / (pi
    mu), theta = max(c1, (c1 + c2 + |c3|) / 2): U's Weyl coordinates must be
    special-majorized by t (pi mu, pi mu, 0), the Cartan coefficients of H =
    pi mu (XX + YY)
    (Khaneja et al., PRA 63, 032308, 2001; Vidal et al., PRL 88, 237902,
    2002). A D ns pulse reaching U with F(U, V) >= f gives theta(V) <= pi mu
    D + theta(W), W = U^dag V, F(W, I) >= f. Over W's local class |Tr W|^2
    / 16 peaks at the canonical gate (Horn's theorem on diagonals of SO(4)),
    at 1 - S + P <= 1 - S + S^2 / 3, S = sum sin^2 c_i, so S <= S* = (3 -
    sqrt(9 - 12 (1 - f))) / 2 and theta(W) <= delta = arcsin(sqrt(S*)) by
    concavity, or pi/2 > every theta if S* > 1. So D >= (theta(V) - delta)
    / (pi mu): 0.503 ns under the exact bound at f = 0.999, mu = 0.02 GHz.

    At 3 or more qubits, and at 2 uncoupled ones where that gives 0, a
    member's bound is no bound for a merge (CNOT.CNOT = I). The bound is the
    largest T_A = (arccos sqrt(P_A) - arccos sqrt(f)) / (2 pi MU_MAX c_A)
    over the cuts A | B of m's qubits, P_A = cut_fidelity_bound(V, A) and
    c_A the number of pairs crossing it; inf if c_A = 0 and P_A < f. Proof:
    in the interaction picture of the terms inside A or B, U = (L_A (x)
    L_B) W, and W is generated by the crossing XY terms alone, of operator
    norm <= 2 pi MU_MAX c_A. So W(s) / sqrt(d) traces a curve of length <=
    2 pi MU_MAX c_A D on the unit sphere of Hilbert-Schmidt space, and U is
    within that Fubini-Study distance, arccos(|Tr(X^dag Y)| / (|X|_F
    |Y|_F)), of the product L_A (x) L_B. V is at least
    arccos sqrt(P_A) from every product and at most arccos sqrt(f) from U,
    so the triangle inequality gives D >= T_A (after Nielsen et al., PRA 67,
    052301, 2003). The Weyl bound stays at 2 coupled qubits: exact under
    free local control, it is never below the cut formula at f = 1, nor on
    sampled Haar-random targets at f = 0.999.
    """
    return _speed_limit(v_target, m, fidelity)[0]


def _speed_limit(v_target: np.ndarray, m: HamiltonianModel,
                 fidelity: float) -> tuple[float, str | None]:
    """min_time_bound, and why, if a cut that no pair crosses makes it inf."""
    n, bound = m.num_qubits, 0.0
    if n == 2:
        mu = MU_MAX if m.pairs else 0.0
        c = _weyl_coordinates(v_target)
        s = (3.0 - math.sqrt(max(0.0, 9.0 - 12.0 * (1.0 - fidelity)))) / 2.0
        angle = max(c[0], c.sum() / 2) - math.asin(min(1.0, math.sqrt(s)))
        if angle > 0:
            bound = angle / (math.pi * mu) if mu > 0 else math.inf
        if m.pairs or bound:
            return bound, None
    for mask in range(1, 2 ** (n - 1)):   # every cut once: A without qubit n-1
        part = [q for q in range(n) if mask >> q & 1]
        p = cut_fidelity_bound(v_target, part)
        # slack for rounding: a product target's bound is 1 within ulps
        if p >= fidelity - 1e-12:
            continue
        crossing = sum((mask >> a ^ mask >> b) & 1 for a, b in m.pairs)
        if not crossing:
            return math.inf, (f"no coupling crosses the cut of model qubits "
                              f"{part}, and no product across it exceeds "
                              f"fidelity {p:.6f}")
        bound = max(bound, (math.acos(math.sqrt(p)) - math.acos(
            math.sqrt(fidelity))) / (TWO_PI * MU_MAX * crossing))
    return bound, None


def cut_fidelity_bound(v_target: np.ndarray, part: list[int]) -> float:
    """Highest fidelity with v_target of any product L = A (x) B across the
    cut part | rest: sigma_1^2 / d, sigma_1 the largest singular value of
    v_target realigned across the cut, since |Tr(V^dag L)| <= sigma_1 |A|_F
    |B|_F = sigma_1 sqrt(d) (operator Schmidt decomposition)."""
    d = len(v_target)
    n = d.bit_length() - 1
    rest = [q for q in range(n) if q not in part]
    dp = 2 ** len(part)
    t = v_target.reshape((2,) * (2 * n)).transpose(
        part + rest + [n + q for q in part] + [n + q for q in rest])
    realigned = t.reshape(dp, d // dp, dp, d // dp).transpose(0, 2, 1, 3)
    sigma = np.linalg.svd(realigned.reshape(dp * dp, -1), compute_uv=False)[0]
    return float(sigma ** 2 / d)


def _compress(amps: np.ndarray, n: int) -> np.ndarray:
    """amps resampled onto n steps, each channel's cumulative area kept at
    every new step boundary. With zero drift, u(t / c) / c on [0, cT] has the
    unitary of u on [0, T], so a converged pulse squeezed onto a shorter grid
    starts near its target, and a pulse stretched onto a longer one keeps
    its unitary (exactly for an integer c) at lower amplitudes."""
    old = amps.shape[1]
    area = np.concatenate((np.zeros((len(amps), 1)), amps.cumsum(axis=1)), 1)
    at = np.linspace(0.0, old, n + 1)
    return np.diff([np.interp(at, np.arange(old + 1), a) for a in area])


def _coarsen(amps: np.ndarray) -> np.ndarray:
    """amps on segments twice as long: the mean of each pair of steps."""
    k, n = amps.shape
    return amps.reshape(k, n // 2, 2).mean(axis=2)


def _onto_dt(res: GrapeResult, v_target: np.ndarray, m: HamiltonianModel,
             cfg: OptimizerConfig) -> GrapeResult:
    """A trial on 2*m.dt segments as a pulse on m's steps, each segment
    repeated, which keeps its unitary. A success counts once evolve on m
    confirms it at the threshold; one that falls short there is a failure."""
    pulses = ControlPulses(np.repeat(res.pulses.amplitudes, 2, axis=1), m.dt)
    if not res.converged:
        return GrapeResult(pulses, res.fidelity, res.iterations, False)
    fid = 1.0 - infidelity(evolve(pulses, m), v_target)
    return GrapeResult(pulses, fid, res.iterations, fid >= cfg.fidelity_threshold)


def min_time(v_target: np.ndarray, m: HamiltonianModel,
             cfg: OptimizerConfig | None = None,
             fallback_amplitudes: np.ndarray | None = None
             ) -> tuple[float, GrapeResult]:
    """Shortest duration achieving the fidelity threshold, by bisection.

    Doubles an upper bound until success, then bisects with resolution
    4*dt: every bisection trial is a multiple of 4*dt. A doubling rung only
    has to find a duration that works, so it runs on segments of 2*dt, a
    model with m's channels and step 2*m.dt: a pulse constant over each
    segment is exactly a pulse on dt steps (np.repeat), and a segment costs
    one eigendecomposition, as a step does, so an evaluation costs about
    half as much. A rung starts from the failed trial with the best fidelity
    so far, if one beat the identity, stretched onto its dt steps (_compress:
    with zero drift an integer stretch keeps the unitary, and no stretch
    raises an amplitude), and only if that fails, from grape_optimize's cold
    draw on dt steps. Each start is averaged onto the segments, and each
    result is repeated back onto dt; a success counts once evolve on m
    confirms it (_onto_dt). The fallback polish and every bisection trial
    run on m. A bisection trial starts from the best found pulses compressed
    onto its steps and, only if that fails, reruns from them truncated. The
    result is on that grid too, unless it is the fallback's own duration and
    that is not. Either way it is a pulse on m's dt steps.

    fallback_amplitudes, when given, is a pulse table that approximates the
    target, e.g. the layered member pulses of a merged instruction. Its
    fidelity is roughly the product of the member fidelities, so it can sit
    below the threshold: it is a warm start, not a proven upper bound. The
    doubling search polishes it at its own duration with the same optimizer
    as every trial: the line search accepts only descent, so the polish never
    leaves the warm start for a worse pulse. If it converges, the result is
    at most the fallback's duration. If it does not, it is one more failed
    trial, and the result can exceed it. The schedule-level guarantee that
    aggregation never lengthens a compile comes from compile_circuit, which
    keeps the unaggregated schedule when it is shorter.

    A trial shorter than min_time_bound cannot converge, so it does not run.
    Its failure would have seeded the next rung, so the bound can change the
    later trials' starts and pulses, but it skips no trial that could
    converge. A bound over CAP_NS raises ConvergenceError at once. So does
    inf: a CNOT on an uncoupled pair, or a cut that no pair crosses when
    cut_fidelity_bound across it is below the threshold, since every pulse
    is a product across such a cut; the error names that cut.

    A trial shorter than min_time_bound + BAND_NS runs at most one plateau
    window, max_iters // 24 evaluations per start. That is a heuristic, not
    a proof: the 2-qubit bound assumes free, instant local control, which
    m's bounded drives do not give. Measured at the default configuration,
    10 of 10 trials in the band failed (CNOTs at 12 ns for an 11.9965 ns
    bound, among them), every 2-qubit trial 1-2 ns above its bound
    converged, and the trials that converge in the band, such as XY-native
    targets right past their bound, do so in 1 evaluation. A band trial's
    failure seeds the next rung, so the budget can change later starts and
    pulses.
    """
    cfg = cfg or OptimizerConfig()
    fid0 = 1.0 - infidelity(np.eye(m.dim, dtype=complex), v_target)
    seed = GrapeResult(ControlPulses(np.zeros((len(m.channels), 0)), m.dt),
                       fid0, 0, fid0 >= cfg.fidelity_threshold)
    if seed.converged:
        return 0.0, seed

    t_min, why = _speed_limit(v_target, m, cfg.fidelity_threshold)
    if t_min > CAP_NS:
        raise ConvergenceError(
            why or f"the {t_min:.2f} ns minimum-time bound exceeds the "
            f"{CAP_NS} ns cap", fid0)
    coarse = HamiltonianModel(m.num_qubits, m.pairs, 2 * m.dt)
    band_budget = max(1, cfg.max_iters // 24)

    def trial(n: int, starts) -> GrapeResult | None:
        """The first start (model, amplitudes) to converge in n steps of m,
        or None, at once under t_min; a failed one that beats seed replaces
        it. Under t_min + BAND_NS each start gets band_budget evaluations."""
        nonlocal seed
        if n * m.dt < t_min:
            return None
        budget = band_budget if n * m.dt < t_min + BAND_NS else None
        for model, init in starts:
            res = grape_optimize(v_target, model, n * m.dt, cfg,
                                 init_amplitudes=init, budget=budget)
            if model is coarse:
                res = _onto_dt(res, v_target, m, cfg)
            if res.converged:
                return res
            if res.fidelity > seed.fidelity:
                seed = res
        return None

    fb = fallback_amplitudes
    steps, best = BISECT_RESOLUTION_STEPS, None
    while best is None and steps * m.dt <= CAP_NS:
        if fb is not None and fb.shape[1] <= steps:
            hi, starts, fb = fb.shape[1], [(m, fb)], None
        else:   # a rung: the best failure stretched, then cold, on 2*dt
            fine = [m.bounds[:, None] * np.tanh(
                _cold_theta(len(m.channels), steps, cfg.seed))]
            if seed.iterations:
                fine.insert(0, _compress(seed.pulses.amplitudes, steps))
            hi, starts = steps, [(coarse, _coarsen(a)) for a in fine]
            steps *= 2
        best = trial(hi, starts)
    if best is None:
        raise ConvergenceError(
            f"no pulse under {CAP_NS} ns reached fidelity "
            f"{cfg.fidelity_threshold}", seed.fidelity)

    res_steps = BISECT_RESOLUTION_STEPS
    lo = hi // 2 // res_steps * res_steps
    while hi - lo > res_steps:
        # on the grid, and short of hi even when a fallback's hi is not
        mid = lo + max(1, (hi - lo) // (2 * res_steps)) * res_steps
        res = trial(mid, [(m, _compress(best.pulses.amplitudes, mid)),
                          (m, best.pulses.amplitudes[:, :mid])])
        if res is None:
            lo = mid
        else:
            hi, best = mid, res
    return hi * m.dt, best


class OptimalControlUnit:
    """Latency oracle: per-instruction minimum-time pulse synthesis with cache."""

    def __init__(self, cfg: OptimizerConfig | None = None, adjacency=None):
        """adjacency: callable (site_a, site_b) -> bool, or None for all-to-all
        coupling inside each instruction."""
        self.cfg = cfg or OptimizerConfig()
        self.adjacency = adjacency
        # fingerprint -> (duration, GrapeResult, HamiltonianModel)
        self.cache: dict = {}

    def _pairs(self, qubits) -> tuple:
        """Coupled operand pairs (i, j), i < j, as positions in qubits."""
        pairs = []
        for i, a in enumerate(qubits):
            for j in range(i + 1, len(qubits)):
                if self.adjacency is None or self.adjacency(a, qubits[j]):
                    pairs.append((i, j))
        return tuple(pairs)

    def _embed_member(self, gate, row: dict, qubits) -> np.ndarray:
        """The gate's own pulse on the rows of row, which maps a channel's
        kind and wires (positions in qubits, a pair's ascending) to its row;
        the other rows stay at zero.  Both models take their XY pairs from
        adjacency, so a coupled gate's channel is in row; an uncoupled 2-qubit
        gate has no pulse and fails its own synthesis first."""
        _, res, sub_model = self.synthesize(AggregatedInstruction([gate]))
        amps = res.pulses.amplitudes
        seg = np.zeros((len(row), amps.shape[1]))
        pos = [qubits.index(s) for s in gate.qubits]
        for k, ch in enumerate(sub_model.channels):
            wires = tuple(sorted(pos[q] for q in ch.qubits))
            seg[row[ch.name[:2], wires]] = amps[k]
        return seg

    def _concat_fallback(self, ins, model: HamiltonianModel) -> np.ndarray | None:
        """Member pulses embedded and laid out in layers: a warm start for
        min_time.

        Each member starts as soon as its qubits are free, so members on
        disjoint qubits share time steps and the table lasts the members'
        critical path.  With zero drift, idle channels stay at zero and
        channels on disjoint qubits commute, so each member's pulse acts
        exactly as its gate tensored with identity and the layers have the
        unitary of the sequential concatenation.  That approximates the merged
        target at roughly the product of the member fidelities, which can fall
        below the threshold.
        """
        if len(ins.gates) < 2:
            return None
        row = {(ch.name[:2], ch.qubits): i for i, ch in enumerate(model.channels)}
        segs = [self._embed_member(g, row, ins.qubits) for g in ins.gates]
        ends = asap_finishes((g.qubits, seg.shape[1])
                             for g, seg in zip(ins.gates, segs))
        table = np.zeros((len(model.channels), max(ends)))
        for end, seg in zip(ends, segs):
            table[:, end - seg.shape[1]:end] += seg
        return table

    def synthesize(self, ins) -> tuple[float, GrapeResult, HamiltonianModel]:
        """min_time on the instruction's target unitary over its sub-lattice.

        The channel set is fixed by the qubit count and the coupled pairs, so
        the unitary, the pairs and the threshold select one pulse."""
        pairs = self._pairs(ins.qubits)
        key = fingerprint(ins.target_unitary,
                          (pairs, self.cfg.fidelity_threshold))
        if key not in self.cache:
            model = HamiltonianModel(len(ins.qubits), pairs)
            fallback = self._concat_fallback(ins, model)
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
