"""Benchmark of the regretctl CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/regretctl`. With --trace 0
the workload's CLI command runs again and again, each time as a fresh
`python -m regretctl.cli` process with PYTHONPATH=src, for about S seconds;
each call's outputs are checked, and between calls a fresh interpreter
times the workload's set-up. It reports the end-to-end metrics: the median
wall time and peak RSS of the successful calls and the median set-up time.
With --trace 1 the CLI call runs in-process (`regretctl.cli.main`), once
untraced and once with the tracer of tracer.py installed, in pairs for about
S seconds, and it reports the per-layer metrics (medians over the pairs).
All times are corrected for the machine's speed (see `Probe`).

All work happens in perfbench/_work/<workload>, which each run empties
first. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `failed / attempted` is the
error rate. A call fails on a nonzero exit, a JSON error record on stderr, a
failed output check or, traced, output bytes that differ from the untraced
call's. Without src/regretctl the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
CHILD = str(HERE / "child.py")
PY = sys.executable
BUDGET_S = 170.0  # a run must end within 180 s
MIN_SETUPS = 9
# The probe's burst time that defines one reference second (see `Probe`).
PROBE_REF_S = 1e-3
MIN_WINDOW_S = 2.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Call:
    start: float
    wall: float
    code: int
    rss_mb: float
    stdout: Path
    stderr: Path


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def spawn(argv, cwd: Path, name: str, deadline: float) -> Call:
    """Run one child with stdout and stderr sent to files in `cwd`; kill it
    at `deadline`. Wall time spans fork to reaping; peak RSS is the child's
    `ru_maxrss` from `wait4`."""
    cwd.mkdir(parents=True, exist_ok=True)
    out_path, err_path = cwd / f"{name}.stdout", cwd / f"{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(max(deadline - start, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(start, wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path, err_path)


def error_record(path: Path):
    """The CLI's JSON error record on stderr, if it wrote one."""
    for line in path.read_text(errors="replace").splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and "error" in doc:
            return doc["error"]
    return None


class Probe:
    """Corrects times for the speed of the machine.

    A shared virtual CPU can run the same code up to twice as slow for
    minutes at a time, with hardly any of it reported as steal time. So
    while a run's children run, a probe process on the same CPU times a
    fixed ~1 ms burst of small-matrix work every 20 ms, after an untimed
    warm-up (6-9% of the CPU). A child's corrected time is its time times
    PROBE_REF_S / (median burst time while it ran): the time it would have
    taken on a CPU that runs a burst in PROBE_REF_S. The measuring process
    pins itself, and so every child, to one CPU for this.
    """

    def __init__(self, work: Path):
        self.out = work / "probe.json"
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        with open(work / "probe.stderr", "wb") as err:
            self.proc = subprocess.Popen(
                [PY, CHILD, "probe", str(self.out)],
                stdout=subprocess.PIPE, stderr=err, env=child_env(),
            )
        self.proc.stdout.readline()  # the probe has set its SIGTERM handler
        self.proc.stdout.close()
        self.bursts = None

    def stop(self):
        self.proc.terminate()
        code = self.proc.wait()
        os.sched_setaffinity(0, self._affinity)
        if code or not self.out.is_file():
            raise BenchError(f"speed probe failed with exit code {code}")
        self.bursts = json.loads(self.out.read_text())
        if not self.bursts:
            raise BenchError("speed probe timed no burst")

    def speed(self, start: float, wall: float) -> float:
        """The factor that brings a wall time from `start` to the reference
        speed, from the bursts in that interval or, for one shorter than
        MIN_WINDOW_S, in a window of that length around its middle."""
        half = max(wall, MIN_WINDOW_S) / 2
        mid = start + wall / 2
        inside = [d for t, d in self.bursts if mid - half <= t <= mid + half]
        inside = inside or [d for _, d in self.bursts]
        return PROBE_REF_S / statistics.median(inside)

    def burst_ms(self, calls) -> dict:
        """Median burst time in ms while one of `calls` ran and while none
        did. If they differ, the calls' own load on the CPU, and not only
        the CPU's speed, sets the correction."""
        spans = [(c.start, c.start + c.wall) for c in calls]
        during, between = [], []
        for t, d in self.bursts:
            (during if any(a <= t <= b for a, b in spans) else between).append(1e3 * d)
        return {
            "during": statistics.median(during) if during else None,
            "between": statistics.median(between) if between else None,
        }


class Session:
    """One run of one workload in its own work directory."""

    def __init__(self, workload, seed: int, work: Path):
        self.work = work
        self.deadline = time.perf_counter() + BUDGET_S
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.spec = work / "spec.json"
        self.errors = []
        spec = {
            "workload": workload.name,
            "seed": seed,
            "sizes": workload.sizes,
            "reference": workload.reference,
            "argv": None,
        }
        self._write_spec(spec)
        made = self.child("inputs")
        if made.code:
            raise BenchError(f"input generation failed:\n{made.stderr.read_text()}")
        spec["argv"] = json.loads(made.stdout.read_text())
        self._write_spec(spec)
        self.argv = spec["argv"]

    def _write_spec(self, spec):
        self.spec.write_text(json.dumps(spec, indent=1))

    def child(self, step, *args, cwd=None):
        return spawn([PY, CHILD, step, str(self.spec), *map(str, args)], cwd or self.work, step, self.deadline)

    def setup(self) -> Call:
        made = self.child("setup")
        if made.code:
            raise BenchError(f"set-up failed:\n{made.stderr.read_text()}")
        return made

    def failure(self, call: Call, call_dir: Path):
        """Why a CLI call failed, or None."""
        record = error_record(call.stderr)
        if call.code or record:
            return f"exit code {call.code}, error record {record}"
        checked = self.child("check", call_dir)
        if checked.code:
            return checked.stdout.read_text().strip() or f"check exited with {checked.code}"
        return None

    def note(self, problem):
        if problem:
            self.errors.append(problem)
            print(f"failed: {problem}", file=sys.stderr)
        return problem is not None

    def time_left(self, end, typical):
        now = time.perf_counter()
        return now + typical <= min(end, self.deadline)

    def end_to_end(self, seconds: float) -> dict:
        probe = Probe(self.work)
        try:
            self.setup()  # warm the file cache and bytecode, and the probe; not timed
            end = time.perf_counter() + seconds
            calls, ok, setups = [], [], []
            while True:
                call_dir = self.work / "call"
                shutil.rmtree(call_dir, ignore_errors=True)
                call = spawn([PY, "-m", "regretctl.cli", *self.argv], call_dir, "cli", self.deadline)
                calls.append(call)
                if not self.note(self.failure(call, call_dir)):
                    ok.append(call)
                setups.append(self.setup())
                typical = statistics.median(c.wall for c in calls) + statistics.median(
                    c.wall for c in setups
                )
                if not self.time_left(end, typical):
                    break
            while len(setups) < MIN_SETUPS and self.time_left(
                self.deadline, statistics.median(c.wall for c in setups)
            ):
                setups.append(self.setup())
        finally:
            probe.stop()
        timed = ok or calls  # times of failed calls only when none succeeded
        raw = {"wall_s": [c.wall for c in timed], "setup_s": [c.wall for c in setups]}
        factors = {
            "wall_s": [probe.speed(c.start, c.wall) for c in timed],
            "setup_s": [probe.speed(c.start, c.wall) for c in setups],
        }
        samples = {m: [w * f for w, f in zip(raw[m], factors[m])] for m in raw}
        samples["peak_rss_mb"] = [c.rss_mb for c in timed]
        return {
            "attempted": len(calls),
            "failed": len(calls) - len(ok),
            "samples": samples,
            "uncorrected": raw,
            "factors": factors,
            "burst_ms": {"cli": probe.burst_ms(calls), "setup": probe.burst_ms(setups)},
        }

    def traced(self, seconds: float) -> dict:
        import tracer

        probe = Probe(self.work)
        try:
            end = time.perf_counter() + seconds
            attempted, failed, pair_walls, pairs = 0, 0, [], []
            while True:
                results, pair_start, pair_wall = {}, time.perf_counter(), 0.0
                # alternate which call goes first, so drift does not bias the overhead
                for trace in ("0", "1") if len(pair_walls) % 2 == 0 else ("1", "0"):
                    call_dir = self.work / ("traced" if trace == "1" else "plain")
                    shutil.rmtree(call_dir, ignore_errors=True)
                    result = self.work / f"{call_dir.name}.result.json"
                    call = self.child("cli", trace, result, cwd=call_dir)
                    attempted += 1
                    pair_wall += call.wall
                    if self.note(self.failure(call, call_dir)):
                        failed += 1
                    else:
                        results[trace] = json.loads(result.read_text())
                pair_walls.append(pair_wall)
                if len(results) == 2:
                    if self.note(same_outputs(self.work / "plain", self.work / "traced")):
                        failed += 1
                    else:
                        pairs.append((pair_start, time.perf_counter() - pair_start, results))
                if not self.time_left(end, statistics.median(pair_walls)):
                    break
        finally:
            probe.stop()
        # one speed factor per pair, from the bursts while either call ran
        per_pair = [
            tracer.layer_metrics(results["1"], results["0"]["wall"], probe.speed(start, wall))
            for start, wall, results in pairs
        ]
        if per_pair and self.note(counts_differ(per_pair)):
            failed += 1
        samples = {
            name: [m[name][0] for m in per_pair] or [0.0] for name, _ in tracer.PER_LAYER
        }
        return {"attempted": attempted, "failed": failed, "samples": samples}


def same_outputs(plain: Path, traced: Path):
    """Why the traced call's files differ from the untraced call's, or None."""
    names = sorted(p.name for p in plain.iterdir())
    if names != sorted(p.name for p in traced.iterdir()):
        return f"traced and untraced calls wrote different files: {names}"
    for name in names:
        if (plain / name).read_bytes() != (traced / name).read_bytes():
            return f"traced and untraced calls wrote different bytes to {name}"
    return None


def counts_differ(per_pair):
    """Which count differs between the traced calls of one run, or None."""
    import tracer

    for name, unit in tracer.PER_LAYER:
        values = {m[name][0] for m in per_pair}
        if unit in ("count", "bytes", "bits") and len(values) > 1:
            return f"{name} differs between traced calls: {sorted(values)}"
    return None


def git(*args):
    """Output of a git command on the checkout, or None outside a git
    repository (git is not asked to look above the checkout for one)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:  # no git program
        return None
    return proc.stdout if proc.returncode == 0 else None


def environment(session: Session) -> dict:
    made = spawn([PY, CHILD, "env"], session.work, "env", session.deadline)
    env = json.loads(made.stdout.read_text()) if made.code == 0 else {}
    commit = git("rev-parse", "HEAD")
    env["commit"] = commit.strip() if commit else "unknown"
    # whether tracked files, and the program's sources among them, differ from the commit
    for key, paths in (("dirty", ()), ("src_dirty", ("--", "src"))):
        status = git("status", "--porcelain", "--untracked-files=no", *paths)
        env[key] = bool(status.strip()) if status is not None else None
    return env


def run(workload, seed: int, seconds: float, trace: bool, work: Path | None = None) -> dict:
    """Measure one workload; return the result record (see the module
    docstring) with the per-call samples, errors and environment."""
    session = Session(workload, seed, work or WORK / workload.name)
    measured = session.traced(seconds) if trace else session.end_to_end(seconds)
    if trace:
        import tracer

        units = dict(tracer.PER_LAYER)
    else:
        units = dict(END_TO_END)
    metrics = {
        name: {"value": statistics.median(values), "unit": units[name]}
        for name, values in measured["samples"].items()
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
        "samples": measured["samples"],
        "uncorrected_samples": measured.get("uncorrected", {}),
        "speed_factors": measured.get("factors", {}),
        "burst_ms": measured.get("burst_ms", {}),
        "errors": session.errors,
        "environment": environment(session),
    }


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "regretctl" / "cli.py").is_file():
        print(f"no regretctl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    (WORK / args.workload / "result.json").write_text(json.dumps(result, indent=1))
    print(f"environment {json.dumps(result['environment'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
