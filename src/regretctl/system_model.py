"""Time-varying linear-quadratic plant data, validation, and cost evaluation.

The plant is x_{t+1} = A_t x_t + B_u_t u_t + B_w_t w_t with x_0 = 0 and cost
x_T' Q_T x_T + sum_t (x_t' Q_t x_t + u_t' R_t u_t).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import _mv


class DimensionError(ValueError):
    """A matrix in the system description has the wrong shape."""


class DefinitenessError(ValueError):
    """A cost matrix violates its required (semi)definiteness."""


def as_count(value, name: str) -> int:
    """value as an int (a horizon, lookahead or delay); a value that is not
    an int or np.integer, bools and 3.0 among them, is a ValueError rather
    than something int() truncates."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _sym_eigh(M):
    M = np.asarray(M, dtype=float)
    return np.linalg.eigh((M + np.swapaxes(M, -1, -2)) / 2.0)


def psd_sqrt(M):
    """Symmetric PSD square root via eigendecomposition, negative eigenvalues
    clamped to zero. M may be one (k, k) matrix or a stack (..., k, k)."""
    vals, vecs = _sym_eigh(M)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _pd_eigh(M):
    vals, vecs = _sym_eigh(M)
    if np.min(vals) <= 0:
        raise DefinitenessError(
            f"matrix is not positive definite (min eigenvalue {np.min(vals):g})"
        )
    return vals, vecs


def pd_inv_sqrt(M):
    """Inverse symmetric square root of a positive-definite matrix, or of
    every matrix in a stack (..., k, k); raises DefinitenessError if any is
    not positive definite."""
    vals, vecs = _pd_eigh(M)
    return (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


@dataclass(frozen=True)
class LqSystem:
    """Time-varying LQ plant and cost data.

    All per-step quantities are stacked along the leading (time) axis:
    A: (T, n, n), B_u: (T, n, m), B_w: (T, n, p), Q: (T, n, n), R: (T, m, m),
    Q_T: (n, n). The initial state is identically zero.
    """

    A: np.ndarray
    B_u: np.ndarray
    B_w: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Q_T: np.ndarray
    validated: bool = field(default=False, compare=False)

    @property
    def T(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def m(self):
        return self.B_u.shape[2]

    @property
    def p(self):
        return self.B_w.shape[2]

    @staticmethod
    def time_invariant(A, B_u, B_w, Q, R, Q_T=None, *, horizon):
        """Broadcast a single (A, B_u, B_w, Q, R) across all `horizon` steps."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B_u = np.atleast_2d(np.asarray(B_u, dtype=float))
        B_w = np.atleast_2d(np.asarray(B_w, dtype=float))
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        R = np.atleast_2d(np.asarray(R, dtype=float))
        n = A.shape[0]
        Q_T = np.zeros((n, n)) if Q_T is None else np.atleast_2d(np.asarray(Q_T, dtype=float))
        T = as_count(horizon, "horizon")
        if T <= 0:
            raise ValueError(f"horizon must be positive, got {T}")
        tile = lambda M: np.broadcast_to(M, (T,) + M.shape).copy()
        return LqSystem(tile(A), tile(B_u), tile(B_w), tile(Q), tile(R), Q_T)

    @staticmethod
    def from_steps(A, B_u, B_w, Q, R, Q_T):
        """Build from per-step lists of matrices."""
        st = lambda ms: np.stack([np.atleast_2d(np.asarray(M, dtype=float)) for M in ms])
        Q_T = np.atleast_2d(np.asarray(Q_T, dtype=float))
        return LqSystem(st(A), st(B_u), st(B_w), st(Q), st(R), Q_T)


@dataclass(frozen=True)
class Trajectory:
    """A realized rollout: states x (T+1, n), controls u (T, m), disturbances
    w (T, p), the total cost, and the per-step costs step_costs (T,):
    x_t' Q_t x_t + u_t' R_t u_t, with the terminal term added at the last
    step. A batch of rollouts carries the same leading axes on every array,
    total_cost included."""

    x: np.ndarray
    u: np.ndarray
    w: np.ndarray
    total_cost: float | np.ndarray
    step_costs: np.ndarray


def as_signal(x, T: int, k: int) -> np.ndarray:
    """x as a float array of shape (..., T, k): one signal of T steps with k
    components (k = -1 infers it), or a batch of such signals along the
    leading axes."""
    x = np.asarray(x, dtype=float)
    return x.reshape(x.shape[:-2] + (T, k))


def _check_shape(name, M, expected):
    if M.shape != expected:
        raise DimensionError(f"{name} has shape {M.shape}, expected {expected}")


def _finite(name, what, M):
    """M, refused when the arithmetic that made it overflowed."""
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} overflows the float range in {what}")
    return M


def validate_system(sys: LqSystem) -> LqSystem:
    """Check dimensions, finiteness and definiteness; return the system with
    cost matrices symmetry-projected.

    Every entry must be finite, and so must the symmetrized cost matrices and
    the PSD tolerances; Q_t and Q_T must be PSD (min eigenvalue >=
    -1e-9*(1+||M||)); R_t must be PD.
    """
    T, n, m, p = sys.T, sys.n, sys.m, sys.p
    for name, B in (("B_u", sys.B_u), ("B_w", sys.B_w)):
        rows = B.shape[1]  # named alone: a (T, n, k) shape would take k from the bad block
        if rows != n:
            raise DimensionError(f"{name} has {rows} row{'' if rows == 1 else 's'}, expected n = {n}")
    _check_shape("A", sys.A, (T, n, n))
    _check_shape("B_u", sys.B_u, (T, n, m))
    _check_shape("B_w", sys.B_w, (T, n, p))
    _check_shape("Q", sys.Q, (T, n, n))
    _check_shape("R", sys.R, (T, m, m))
    _check_shape("Q_T", sys.Q_T, (n, n))
    for name in ("A", "B_u", "B_w", "Q", "R", "Q_T"):
        if not np.all(np.isfinite(getattr(sys, name))):
            raise ValueError(f"{name} has a non-finite (NaN or inf) entry")

    # an overflow below is refused by name, not warned about
    with np.errstate(over="ignore"):
        Qs = _finite("Q", "its symmetrization", (sys.Q + np.transpose(sys.Q, (0, 2, 1))) / 2.0)
        Rs = _finite("R", "its symmetrization", (sys.R + np.transpose(sys.R, (0, 2, 1))) / 2.0)
        QTs = _finite("Q_T", "its symmetrization", (sys.Q_T + sys.Q_T.T) / 2.0)
        # per-step Frobenius norms as np.linalg.norm computes them (a dot
        # product of the flattened matrix), so the tolerances keep their bits
        Qf = Qs.reshape(T, 1, n * n)
        tol_psd = 1e-9 * (1.0 + np.sqrt((Qf @ np.swapaxes(Qf, 1, 2))[:, 0, 0]))
        tol_psd_T = 1e-9 * (1.0 + np.linalg.norm(QTs))
    _finite("Q", "its PSD tolerance", tol_psd)
    _finite("Q_T", "its PSD tolerance", tol_psd_T)
    ev_q = np.linalg.eigvalsh(Qs).min(axis=1)
    ev_r = np.linalg.eigvalsh(Rs).min(axis=1)
    bad = np.nonzero((ev_q < -tol_psd) | (ev_r <= 0.0))[0]
    if bad.size:
        t = int(bad[0])
        if ev_q[t] < -tol_psd[t]:
            raise DefinitenessError(
                f"Q at t={t} is not PSD (min eigenvalue {float(ev_q[t]):g})"
            )
        raise DefinitenessError(
            f"R at t={t} is not positive definite (min eigenvalue {float(ev_r[t]):g})"
        )
    ev = float(np.linalg.eigvalsh(QTs).min())
    if ev < -tol_psd_T:
        raise DefinitenessError(f"Q_T is not PSD (min eigenvalue {ev:g})")

    return replace(sys, Q=Qs, R=Rs, Q_T=QTs, validated=True)


def as_validated(sys: LqSystem) -> LqSystem:
    """`sys` itself if it has been validated already, else validate_system(sys)."""
    return sys if sys.validated else validate_system(sys)


@dataclass(frozen=True)
class NormalizedSystem:
    """An R-normalized system (R_t = I) together with the per-step rescaling
    map u = R_t^{-1/2} u' from normalized controls u' to original ones u."""

    system: LqSystem
    R_inv_sqrt: np.ndarray  # (T, m, m), R_t^{-1/2}


def normalize_control_weight(sys: LqSystem) -> NormalizedSystem:
    """Rescale controls so that R_t = I: B_u_t' = B_u_t R_t^{-1/2},
    u_t' = R_t^{1/2} u_t. Costs are preserved under the rescaling maps."""
    sys = as_validated(sys)
    T, m = sys.T, sys.m
    R_inv_sqrt = pd_inv_sqrt(sys.R)
    B_u = np.einsum("tij,tjk->tik", sys.B_u, R_inv_sqrt)
    eye = np.broadcast_to(np.eye(m), (T, m, m)).copy()
    norm_sys = replace(sys, B_u=B_u, R=eye)
    return NormalizedSystem(norm_sys, R_inv_sqrt)


def _quad(M, v):
    """v' M v for a vector v or for each vector of a stack v: (..., k),
    evaluated as (v' M) v like `v @ M @ v`, so each item keeps its bits."""
    return ((v[..., None, :] @ M) @ v[..., :, None])[..., 0, 0]


def evaluate_cost(sys: LqSystem, w, u) -> Trajectory:
    """Roll the dynamics forward from x_0 = 0 under (w, u) and return the full
    trajectory with per-step and total costs, including the terminal term
    x_T' Q_T x_T.

    w: (..., T, p) and u: (..., T, m) may carry the same leading batch axes;
    every leading index is an independent trajectory, with the bits it gets
    alone. The costs accumulate step by step in time order."""
    T, n = sys.T, sys.n
    w, u = as_signal(w, T, -1), as_signal(u, T, -1)
    batch = w.shape[:-2]
    if w.shape != batch + (T, sys.p):
        raise DimensionError(f"w has shape {w.shape}, expected {batch + (T, sys.p)}")
    if u.shape != batch + (T, sys.m):
        raise DimensionError(f"u has shape {u.shape}, expected {batch + (T, sys.m)}")
    x = np.zeros(batch + (T + 1, n))
    steps = np.zeros(batch + (T,))
    cost = np.zeros(batch)
    for t in range(T):
        xt, ut = x[..., t, :], u[..., t, :]
        steps[..., t] = _quad(sys.Q[t], xt) + _quad(sys.R[t], ut)
        cost += steps[..., t]
        x[..., t + 1, :] = _mv(sys.A[t], xt) + _mv(sys.B_u[t], ut) + _mv(sys.B_w[t], w[..., t, :])
    terminal = _quad(sys.Q_T, x[..., T, :])
    steps[..., T - 1] += terminal
    cost += terminal
    return Trajectory(x=x, u=u, w=w, total_cost=cost if batch else float(cost), step_costs=steps)
