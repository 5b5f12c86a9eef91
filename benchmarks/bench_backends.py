"""Benchmark the compiled kernels against the pure-numpy fallbacks.

Runs each hot kernel on a batch of synthesis-sized problems and reports the
median wall time per call for both code paths. Invoke with

    python3 benchmarks/bench_backends.py [--horizon T] [--state-dim N] [--repeats K]

The compiled path requires numba and REGRETCTL_BACKEND left unset (or set to
"numba"); the fallback path is always available.
"""

import argparse
import time

import numpy as np

from regretctl import kernels


def _make_problem(rng, T, n, m, p):
    A = rng.standard_normal((T, n, n)) * (0.9 / np.sqrt(n))
    B_u = rng.standard_normal((T, n, m))
    B_w = rng.standard_normal((T, n, p))
    Q = np.zeros((T, n, n))
    R = np.zeros((T, m, m))
    sqQ = np.zeros((T + 1, n, n))
    for t in range(T):
        M = rng.standard_normal((n, n))
        Q[t] = M @ M.T / n
        D = rng.standard_normal((m, m))
        R[t] = D @ D.T / m + 0.5 * np.eye(m)
        vals, vecs = np.linalg.eigh(Q[t])
        sqQ[t] = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    return A, B_u, B_w, Q, R, sqQ


def _time(fn, args, repeats):
    fn(*args)  # warm-up (triggers compilation on the numba path)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--horizon", type=int, default=200)
    ap.add_argument("--state-dim", type=int, default=8)
    ap.add_argument("--repeats", type=int, default=20)
    args = ap.parse_args()

    T, n = args.horizon, args.state_dim
    m = p = max(1, n // 2)
    rng = np.random.default_rng(0)
    A, B_u, B_w, Q, R, sqQ = _make_problem(rng, T, n, m, p)
    P_T = np.zeros((n, n))
    w = rng.standard_normal((T, p))

    cases = {
        "lqr_backward": (A, B_u, Q, R, P_T),
        "hinf_backward": (A, B_u, B_w, Q, R, P_T, 50.0),
        "forward_kalman": (A, B_u, sqQ),
        "rollout_feedback": (
            A,
            B_u,
            B_w,
            rng.standard_normal((T, m, n)) * 0.1,
            rng.standard_normal((T, m, p)) * 0.1,
            w,
        ),
    }
    # backward_kalman consumes forward_kalman outputs
    _, _, R_e, Atil = kernels.PY_KERNELS["forward_kalman"](A, B_u, sqQ)
    W = sqQ @ np.linalg.solve(R_e, sqQ)
    cases["backward_kalman"] = (Atil, B_w, W, 2.0)

    print(f"active backend: {kernels.BACKEND}")
    print(f"problem: T={T}, n={n}, m=p={m}, repeats={args.repeats}")
    print(f"{'kernel':<22}{'numpy (ms)':>12}{'active (ms)':>13}{'speedup':>9}")
    for name, case in cases.items():
        t_py = _time(kernels.PY_KERNELS[name], case, args.repeats)
        t_active = _time(getattr(kernels, name), case, args.repeats)
        speedup = t_py / t_active if t_active > 0 else float("inf")
        print(f"{name:<22}{t_py * 1e3:>12.3f}{t_active * 1e3:>13.3f}{speedup:>8.1f}x")
    if kernels.BACKEND == "numpy":
        print("note: numba unavailable or disabled; both columns use the fallback.")


if __name__ == "__main__":
    main()
