"""The benchmark's steps that run in a fresh interpreter.

They run apart from the measuring process for two reasons: a new process
is what a user starts, and a child's peak RSS as `wait4` reports it includes
the resident set it inherited from its parent until `exec`, so the
measuring process must stay small and never import numpy itself.

    python3 perfbench/child.py inputs SPEC       write the inputs, print the CLI arguments
    python3 perfbench/child.py setup SPEC        build the workload's system, no synthesis
    python3 perfbench/child.py check SPEC DIR    check the CLI outputs written in DIR
    python3 perfbench/child.py cli SPEC TRACE RESULT
                                                 one in-process CLI call, traced if TRACE is 1
    python3 perfbench/child.py env               print the environment record
    python3 perfbench/child.py probe OUT         time a fixed burst of work every 20 ms
                                                 until SIGTERM, then write the bursts to OUT

SPEC is a JSON file naming the workload, the seed, the sizes, the reference
and the CLI arguments; run.py writes it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter


def _workload(spec):
    from workloads import WORKLOADS

    return replace(WORKLOADS[spec["workload"]], sizes=spec["sizes"], reference=spec["reference"])


def inputs(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    directory = Path(spec_path).parent / "inputs"
    directory.mkdir(exist_ok=True)
    argv = _workload(spec).inputs(spec["seed"], spec["sizes"], directory)
    print(json.dumps(argv))


def setup(spec_path):
    import regretctl.cli  # noqa: F401  (users pay this import)

    spec = json.loads(Path(spec_path).read_text())
    _workload(spec).setup(spec["argv"], spec["sizes"])


def check(spec_path, call_dir):
    from workloads import CheckError

    spec = json.loads(Path(spec_path).read_text())
    try:
        _workload(spec).check(Path(call_dir), spec["sizes"], spec["reference"])
    except (CheckError, KeyError, ValueError, TypeError) as e:
        print(f"{type(e).__name__}: {e}")
        sys.exit(3)


def cli(spec_path, trace, result_path):
    """Run `regretctl.cli.main` in this process and write the start and wall
    time of that call (and, traced, its spans) to RESULT. Exits with the
    CLI's code."""
    from contextlib import nullcontext

    from regretctl import cli as regret_cli

    import tracer

    spec = json.loads(Path(spec_path).read_text())
    rec = tracer.Tracer(run_id=f"{spec['workload']}:{spec['seed']}") if trace == "1" else None
    code = 0
    with tracer.installed(rec) if rec else nullcontext():
        start = perf_counter()
        try:
            regret_cli.main(spec["argv"], standalone_mode=False)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        wall = perf_counter() - start
    if rec:
        rec.dump(result_path, start, wall)
    else:
        Path(result_path).write_text(json.dumps({"start": start, "wall": wall}))
    sys.exit(code)


def env():
    import os
    import platform

    import numpy as np

    from regretctl import kernels
    from run import THREAD_VARS

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
                "nproc": os.cpu_count(),
                "backend": kernels.BACKEND,
                "threads": {k: os.environ.get(k) for k in THREAD_VARS},
            }
        )
    )


def probe(out_path):
    """Every 20 ms, time one burst of the small-matrix work the CLI is made of
    (a 2x2 eigh, square root and solve, 50 times; about 1 ms on a quiet
    core). The burst times show how fast the CPU ran at each moment.

    Each burst first runs the same work 10 times untimed. Without that, the
    timed burst started with caches in whatever state the call under test
    left them, and it ran up to 10% slower during one workload's calls than
    during another's."""
    import signal
    import time

    import numpy as np

    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    print("ready", flush=True)
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.eye(2)
    bursts = []
    while not stop:
        for i in range(60):
            if i == 10:
                start = perf_counter()
            vals, vecs = np.linalg.eigh(a)
            b = (vecs * np.sqrt(vals)) @ vecs.T + 0.1 * np.linalg.solve(a, b)
        bursts.append((start, perf_counter() - start))
        time.sleep(0.02)
    Path(out_path).write_text(json.dumps(bursts))


if __name__ == "__main__":
    step, args = sys.argv[1], sys.argv[2:]
    steps = {"inputs": inputs, "setup": setup, "check": check, "cli": cli, "env": env, "probe": probe}
    steps[step](*args)
