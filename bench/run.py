"""End-to-end benchmark of the schurgate CLI.

    python3 bench/run.py --workload tables|lseries|reports|all \
        --seed N --seconds S --trace 0|1

Each job is a fresh ``python -m schurgate.cli ... --format json`` process,
run one at a time by this single closed-loop client, under an address-space
limit and a timeout.  A pass runs every job of the workload once; passes
repeat, alternating PYTHONHASHSEED between 0 and 1, until the next pass would
not fit in S seconds (at least two passes, or one traced pair).  Every output is checked once
by ``checks.py``, and every later pass must reproduce its bytes exactly.

--trace 0 reports the end-to-end metrics (medians over passes), --trace 1
runs untraced and traced passes in pairs and reports the per-layer metrics
of ``tracer.py``.  The last line of stdout is the JSON result; a summary
table goes to stderr and details to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

DEADLINE_S = 165.0       # a run ends well inside 180 s, whatever the jobs do
JOB_TIMEOUT_S = 60.0
MEMORY_LIMIT = 1 << 30   # address space of one job, traced or not
SETUP_PER_PASS = 3
SETUP_CODE = "import schurgate.cli as c; c.build_parser()"


class JobResult(NamedTuple):
    wall: float
    cpu: float
    maxrss_kib: int
    returncode: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def _limit_address_space(limit: int):
    def apply():  # runs in the child only, between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return apply


def run_process(cmd: list[str], env: dict, timeout: float, memory_limit: int) -> JobResult:
    """Run one child to completion; wall time, rusage CPU and peak RSS from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=ROOT, preexec_fn=_limit_address_space(memory_limit))
    killed = threading.Event()
    timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    timer.start()
    reader.start()
    status = None
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        if status is None:  # interrupted: stop and reap the child before leaving
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return JobResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
                     out, b"".join(err), killed.is_set())


class Harness:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.jobs = workloads.build(workload, seed)
        self.start = time.monotonic()
        self.checked: dict[int, tuple[str, str | None]] = {}  # job -> (first digest, problem)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # jobs that ran but gave a wrong or irreproducible answer
        self.pass_walls: list[float] = []
        self.job_walls: dict[int, list[float]] = {}

    def env(self, hash_seed: int) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
        env.pop("SCHURGATE_MAX_CONDUCTOR", None)  # every run uses the default conductor cap
        return env

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def cold_starts(self, repeats: int) -> list[float]:
        """Wall times of fresh interpreters that import schurgate.cli and build the parser."""
        times = []
        for _ in range(repeats):
            res = run_process([sys.executable, "-c", SETUP_CODE], self.env(0),
                              min(JOB_TIMEOUT_S, self.remaining()), MEMORY_LIMIT)
            if res.returncode:
                raise RuntimeError(f"cold start failed: {res.stderr.decode()[-500:]}")
            times.append(res.wall)
        return times

    def run_pass(self, hash_seed: int, trace_dir: Path | None = None) -> list[JobResult]:
        """One pass over the workload's jobs; every job is checked or compared."""
        results = []
        for i, argv in enumerate(self.jobs):
            args = [*argv, "--format", "json"]
            if trace_dir is None:
                cmd = [sys.executable, "-m", "schurgate.cli", *args]
            else:
                spans = trace_dir / f"job-{i:03d}.spans"
                cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), str(i), "--", *args]
            timeout = min(JOB_TIMEOUT_S, max(self.remaining(), 0.1))
            res = run_process(cmd, self.env(hash_seed), timeout, MEMORY_LIMIT)
            self.attempted += 1
            problem, wrong = self.judge(i, argv, res)
            if problem:
                self.failed += 1
                self.wrong += wrong
                self.problems.append(f"{' '.join(argv)}: {problem}")
            results.append(res)
            self.job_walls.setdefault(i, []).append(round(res.wall, 4))
        return results

    def judge(self, i: int, argv: list[str], res: JobResult) -> tuple[str | None, bool]:
        """(why the job failed or None, whether its answer was wrong)."""
        if res.timed_out:
            return "timed out", False
        if res.returncode:
            return f"exit {res.returncode}: {res.stderr.decode(errors='replace')[-300:]}", False
        digest = hashlib.sha256(res.stdout).hexdigest()
        if i not in self.checked:  # first output of this job: check it
            try:
                errs = checks.check(argv, json.loads(res.stdout))
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                errs = [f"unreadable output: {exc!r}"]
            self.checked[i] = (digest, "; ".join(errs) or None)
        first_digest, problem = self.checked[i]
        if digest != first_digest:
            return "output differs from an earlier pass", True
        return problem, problem is not None

    def passes(self, one_pass, at_least: int) -> list:
        """Run passes until the next would end after `seconds`."""
        t0 = time.monotonic()
        out = []
        while True:
            p0 = time.monotonic()
            out.append(one_pass(len(out)))
            now = time.monotonic()
            self.pass_walls.append(round(now - p0, 3))
            if len(out) >= at_least and now - t0 + (now - p0) > self.seconds:
                return out
            if self.remaining() < 1.5 * (now - p0):
                return out


def end_to_end(h: Harness) -> dict[str, float]:
    setup: list[float] = []

    def one_pass(k: int) -> list[JobResult]:
        # cold starts ahead of every pass, so set-up is sampled across the whole run
        setup.extend(h.cold_starts(SETUP_PER_PASS))
        return h.run_pass(k % 2)

    # two passes at least, so every output is reproduced under both hash seeds
    passes = h.passes(one_pass, 2)
    return {
        "wall_s": statistics.median(sum(r.wall for r in p) for p in passes),
        "cpu_s": statistics.median(sum(r.cpu for r in p) for p in passes),
        "job_p50_s": statistics.median(r.wall for p in passes for r in p),
        "peak_rss_mib": statistics.median(max(r.maxrss_kib for r in p) / 1024 for p in passes),
        "setup_s": statistics.median(setup),
    }


def per_layer(h: Harness) -> dict[str, float]:
    trace_dir = RESULTS / "trace" / h.workload
    trace_dir.mkdir(parents=True, exist_ok=True)

    def pair(k: int) -> dict[str, float]:
        plain = h.run_pass(0)
        for old in trace_dir.glob("job-*.spans"):
            old.unlink()
        traced = h.run_pass(1, trace_dir)
        files = sorted(str(f) for f in trace_dir.glob("job-*.spans"))
        m = tracer.layer_metrics(files, sum(len(r.stdout) for r in traced))
        m["trace.overhead_s"] = sum(r.wall for r in traced) - sum(r.wall for r in plain)
        return m

    pairs = h.passes(pair, 1)
    return {key: statistics.median(p[key] for p in pairs) for key in pairs[0]}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    units = declared_units(trace)
    h = Harness(workload, seed, seconds)
    h.cold_starts(1)  # warm-up: writes the package's bytecode cache
    values = per_layer(h) if trace else end_to_end(h)
    if set(values) != set(units):
        raise RuntimeError(f"reported metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    result = {
        "correct": h.wrong == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {
        **result, "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "pass_walls": h.pass_walls,
        "job_walls": {" ".join(j): h.job_walls.get(i) for i, j in enumerate(h.jobs)},
        "problems": h.problems,
    }
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(f"{workload} (seed {seed}): {h.attempted} jobs attempted, {h.failed} failed, "
          f"{len(h.jobs)} jobs per pass", file=sys.stderr)
    for k, v in values.items():
        print(f"  {k:48s} {v:14.6g} {units[k]}", file=sys.stderr)
    for p in h.problems[:10]:
        print(f"  FAILED {p}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "schurgate" / "cli.py").is_file():
        print(f"error: no schurgate package under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through run_process, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
