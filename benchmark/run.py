#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the parahecke command line.

Usage:
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job is one real ``parahecke`` CLI command, run in a fresh child
process (``benchmark/child.py``) with ``--jobs 1``, one job at a time.  A
run repeats passes over its workload's jobs for about ``--seconds``; the
seed only shuffles the job order within each pass and picks each child's
``PYTHONHASHSEED``, so every seed must produce the same bytes.

Workloads:
    satake-cold  ``satake`` (height 2 on c2 and a2, height 3 on the rank-1
                 data and gl2) with no persistent cache.  Θ construction
                 dominates it.
    verify-cold  ``verify center`` on c2, ``verify presentation`` on a2 and
                 c2, ``verify all`` on a1, a1_unequal, a1_torsion2 and gl2,
                 with no persistent cache.  The rewriting engine and the ring
                 kernel dominate it; Θ construction is a few percent.
    satake-warm  the satake-cold jobs against a private cache directory that
                 an untimed cold pass of the same code fills first.  Cache
                 load and save and the parahoric elimination dominate it.

Every job's exit code and stdout sha256 must equal ``reference.json``.  On
the satake workloads the standalone rank-1 oracle ``tests/oracle_a1_satake.py``
must agree with the ``x = t[-1]`` row of the a1 and a1_unequal jobs.

With ``--trace 0`` the last stdout line reports, per workload:
    wall_s       sum over jobs of the time from spawn to exit
    setup_s      sum over jobs of the time from spawn until Engine.load_cache returns
    cpu_s        sum over jobs of the child's user + system CPU (os.wait4)
    peak_rss_mb  largest per-child maximum resident set (os.wait4)
each job's time being its mean over the run's passes and its RSS the median.
The benchmark, its probe thread and every child share one pinned CPU, and
the times are adjusted for that CPU's speed while the job ran, as sampled by
the probe (see SpeedProbe): they are seconds at the reference host's
uncontended speed.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
``child.py``'s probes instead.  Layer times there are raw, not adjusted, and
ringcore and affweyl times are attribution (the probes on about a million
kernel calls inflate them), not wall time; ``host.raw_wall_s`` and
``host.probe_speed`` show the untraced passes' raw time and the CPU's mean
speed.  Spans of the last traced pass are written to
``.benchmark_out/<workload>-seed<N>.spans.jsonl``.

Run from the root of a checkout; it needs ``src/parahecke`` and
``tests/oracle_a1_satake.py`` there and exits with code 2 without a result
line when they are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_right

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "parahecke", "data")
ORACLE = os.path.join(ROOT, "tests", "oracle_a1_satake.py")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
TMP_ROOT = os.path.join(ROOT, ".benchmark_tmp")
OUT_DIR = os.path.join(ROOT, ".benchmark_out")

# The whole run, set-up included, must end well inside 180 s.
DEADLINE_S = 165.0

SATAKE_JOBS = (
    ("c2", "satake", "--height", "2"),
    ("a2", "satake", "--height", "2"),
    ("a1", "satake", "--height", "3"),
    ("a1_unequal", "satake", "--height", "3"),
    ("a1_torsion2", "satake", "--height", "3"),
    ("gl2", "satake", "--height", "3"),
)
VERIFY_JOBS = (
    ("c2", "verify", "center"),
    ("a2", "verify", "presentation"),
    ("c2", "verify", "presentation"),
    ("a1", "verify", "all"),
    ("a1_unequal", "verify", "all"),
    ("a1_torsion2", "verify", "all"),
    ("gl2", "verify", "all"),
)
# name -> (jobs, warm cache)
WORKLOADS = {
    "satake-cold": (SATAKE_JOBS, False),
    "verify-cold": (VERIFY_JOBS, False),
    "satake-warm": (SATAKE_JOBS, True),
}
ORACLE_DATA = ("a1", "a1_unequal")
ORACLE_X, ORACLE_ZERO = "t[-1]·w[]", "t[0]·w[]"
VERIFY_SUITES = ("presentation", "bern", "center", "satake", "compat")


# A shared host's CPUs run at a speed that changes from second to second
# (other tenants share the physical cores), by up to 1.7x on the reference
# host.  The benchmark pins itself and every child to one CPU and a probe
# thread on that CPU times a fixed 0.3 ms loop every PROBE_PERIOD_S, which
# takes about 2% of the CPU from the job.  A job's reported time weights each
# second of its wall time by the speed the probe saw then, relative to
# PROBE_REF_S, the loop's time on an uncontended CPU of the reference host
# (2-vCPU Intel Xeon VM).  The raw wall time is reported with --trace 1.
PROBE_PERIOD_S = 0.02
PROBE_REF_S = 0.34e-3
PROBE_LOOP = 600


def _probe_loop(n: int = PROBE_LOOP) -> int:
    table: dict = {}
    x = 1
    for i in range(n):
        x = (x * 1103515245 + 12345) % (1 << 61)
        key = (i % 97, x % 13)
        table[key] = table.get(key, 0) + x
    return len(table)


class SpeedProbe:
    """Samples the speed of the CPU this process is pinned to."""

    def __init__(self):
        self.times: list = []  # sample end, time.monotonic()
        self.speeds: list = []  # PROBE_REF_S / loop time
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = time.perf_counter()
            _probe_loop()
            dt = time.perf_counter() - t0
            self.speeds.append(PROBE_REF_S / dt)
            self.times.append(time.monotonic())

    def start(self) -> None:
        self._thread.start()
        while not self.times:  # the first sample covers what comes before it
            time.sleep(PROBE_PERIOD_S)

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def adjusted(self, a: float, b: float) -> float:
        """Seconds of [a, b] at reference speed: the integral of the speed.

        Each sample's speed holds from the previous sample to it; after the
        last sample the last speed holds.
        """
        times, speeds = self.times, self.speeds
        n = len(times)  # the thread appends time last, so speeds[:n] are set
        i = bisect_right(times, a, 0, n)
        total, t = 0.0, a
        while i < n and times[i] < b:
            total += (times[i] - t) * speeds[i]
            t = times[i]
            i += 1
        return total + (b - t) * speeds[min(i, n - 1)]

    def mean_speed(self) -> float:
        return statistics.fmean(self.speeds)


def pin_to_one_cpu() -> int:
    """Pin this process, its threads and its children to one allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def job_key(job) -> str:
    return " ".join(job)


def job_label(job) -> str:
    """Metric label: ``c2.satake``, ``c2.verify-center``."""
    datum, cmd = job[0], job[1]
    return f"{datum}.{cmd}" if cmd == "satake" else f"{datum}.{cmd}-{job[2]}"


def cli_args(job) -> list:
    return ["--datum", job[0], "--jobs", "1", *job[1:]]


# -- one child -----------------------------------------------------------


def _wait(pid: int, timeout: float):
    """Reap ``pid``; kill it first if it outlives ``timeout`` seconds."""
    timed_out = False
    try:
        fd = os.pidfd_open(pid)
    except (AttributeError, OSError):
        fd = None
    if fd is not None:
        try:
            if not select.select([fd], [], [], max(timeout, 0.0))[0]:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
        finally:
            os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    return status, usage, timed_out


def run_job(job, env: dict, tmp: str, trace: bool, deadline: float, probe: SpeedProbe) -> dict:
    """Run one job; times are speed-adjusted by ``probe``, ``raw_wall`` is not."""
    out_path = os.path.join(tmp, "stdout")
    err_path = os.path.join(tmp, "stderr")
    rep_path = os.path.join(tmp, "report.json")
    if os.path.exists(rep_path):
        os.unlink(rep_path)
    argv = [sys.executable, CHILD, rep_path, "1" if trace else "0", *cli_args(job)]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        status, usage, timed_out = _wait(pid, deadline - t0)
        t1 = time.monotonic()
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    report = {}
    if os.path.exists(rep_path):
        with open(rep_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    setup_done = report.get("setup_done")
    wall = probe.adjusted(t0, t1)
    return {
        "job": job,
        "code": None if timed_out else os.waitstatus_to_exitcode(status),
        "stdout": stdout,
        "stderr_path": err_path,
        "raw_wall": t1 - t0,
        "wall": wall,
        "setup": None if setup_done is None else probe.adjusted(t0, setup_done),
        "cpu": (usage.ru_utime + usage.ru_stime) * wall / (t1 - t0),
        "rss_mb": usage.ru_maxrss / 1024.0,
        "report": report,
    }


# -- correctness ---------------------------------------------------------


def run_oracle() -> dict:
    """Oracle rows in q for the rank-1 data, from the datum files alone."""
    out = {}
    for name in ORACLE_DATA:
        proc = subprocess.run(
            [sys.executable, ORACLE, os.path.join(DATA, f"{name}.json")],
            capture_output=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode == 0:
            out[name] = json.loads(proc.stdout)
        else:
            print(f"oracle failed on {name}: {proc.stderr.decode(errors='replace')}", file=sys.stderr)
    return out


def _as_q(pairs):
    """v-pairs with q = v^2 as sorted q-pairs; None if an exponent is odd."""
    if pairs is None or any(e % 2 for e, _ in pairs):
        return None
    return sorted([e // 2, c] for e, c in pairs)


def oracle_mismatch(stdout: bytes, want: dict | None) -> str | None:
    if want is None:
        return "oracle did not run"
    try:
        table = json.loads(stdout)
        row = next(r for r in table["rows"] if r["x"] == ORACLE_X)
        coeffs = {e["m"]: e["coeff"] for e in row["entries"]}
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return f"no {ORACLE_X} row in the output ({type(exc).__name__})"
    got = {"s_xx": _as_q(coeffs.get(ORACLE_X)), "s_x0": _as_q(coeffs.get(ORACLE_ZERO))}
    if got["s_xx"] != want["s_xx"] or got["s_x0"] != want["s_x0"]:
        return f"oracle {want} != engine {got}"
    return None


def check(res: dict, reference: dict, oracle: dict | None) -> str | None:
    """Why the job failed, or None."""
    job = res["job"]
    want = reference.get(job_key(job))
    if res["code"] is None:
        return "timed out"
    if want is None:
        return "no reference recorded"
    if res["code"] != want["exit"]:
        return f"exit code {res['code']} != {want['exit']}"
    digest = hashlib.sha256(res["stdout"]).hexdigest()
    if digest != want["sha256"]:
        return f"stdout sha256 {digest[:12]} != {want['sha256'][:12]}"
    if res["setup"] is None:
        return "Engine.load_cache never returned"
    if oracle is not None and job[0] in ORACLE_DATA and job[1] == "satake":
        return oracle_mismatch(res["stdout"], oracle.get(job[0]))
    return None


# -- per-layer metrics ---------------------------------------------------


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(results, cache_bytes: int) -> dict:
    """Per-layer figures of one traced pass, summed over its jobs."""
    stats: dict = {}
    counters: dict = {}
    absent: set = set()
    loaded = final = inv_distinct = 0
    for res in results:
        rep = res["report"]
        for group, (calls, self_s, incl_s) in rep.get("stats", {}).items():
            acc = stats.setdefault(group, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += incl_s
        for name, n in rep.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + n
        absent.update(rep.get("absent", ()))
        loaded += sum(v for k, v in rep.get("loaded", {}).items() if k != "hecke.gen_cache_entries")
        final += rep.get("final", {}).get("hecke.gen_cache_entries", 0)
        inv_distinct += rep.get("invert_distinct", 0)

    def st(group, i):
        return None if group in absent else stats.get(group, [0, 0.0, 0.0])[i]

    def cnt(name, *needs):
        return None if absent.intersection(needs) else counters.get(name, 0)

    calls = st("bernstein.theta", 0)
    builds = cnt("bernstein.theta_builds", "bernstein.theta", "bernstein.theta_memo", "bernstein.theta.probe")
    rw_calls = cnt("affweyl.reduced_word_calls", "affweyl", "affweyl.probe")
    rw_hits = cnt("affweyl.reduced_word_hits", "affweyl", "affweyl.reduced_word_memo", "affweyl.probe")
    inv_calls = st("hecke.invert", 0)
    m = {
        "ringcore.kernel_calls": (st("ringcore.kernel", 0), "count"),
        "ringcore.kernel_self_s": (st("ringcore.kernel", 1), "s"),
        "ringcore.exact_div_calls": (st("ringcore.exact_div", 0), "count"),
        "ringcore.exact_div_self_s": (st("ringcore.exact_div", 1), "s"),
        "affweyl.calls": (st("affweyl", 0), "count"),
        "affweyl.self_s": (st("affweyl", 1), "s"),
        "affweyl.reduced_word_hit_ratio": (
            None if rw_calls is None or rw_hits is None else _ratio(rw_hits, rw_calls), "ratio"),
        "hecke.mul_calls": (st("hecke.mul", 0), "count"),
        "hecke.mul_self_s": (st("hecke.mul", 1), "s"),
        "hecke.gen_cache_entries": (final, "count"),
        "hecke.invert_calls": (inv_calls, "count"),
        "hecke.invert_distinct": (None if inv_calls is None else inv_distinct, "count"),
        "hecke.invert_useful_ratio": (
            None if inv_calls is None else (_ratio(inv_distinct, inv_calls) if inv_calls else 1.0), "ratio"),
        "bernstein.theta_calls": (calls, "count"),
        "bernstein.theta_builds": (builds, "count"),
        "bernstein.theta_hit_ratio": (
            None if calls is None or builds is None else _ratio(calls - builds, calls), "ratio"),
        "bernstein.theta_incl_s": (st("bernstein.theta", 2), "s"),
        "parahoric.satake_rows": (
            cnt("parahoric.satake_rows", "parahoric.satake_table", "parahoric.satake_table.probe"), "count"),
        "parahoric.satake_table_self_s": (st("parahoric.satake_table", 1), "s"),
        "parahoric.center_elt_builds": (
            cnt("parahoric.center_elt_builds", "parahoric.center_elt", "parahoric.center_memo",
                "parahoric.center_elt.probe"), "count"),
        "parahoric.center_elt_incl_s": (st("parahoric.center_elt", 2), "s"),
        "parahoric.facet_incl_s": (st("parahoric.facet", 2), "s"),
        "engine.load_cache_s": (st("engine.load_cache", 2), "s"),
        "engine.save_cache_s": (st("engine.save_cache", 2), "s"),
        "engine.cache_bytes": (cache_bytes, "bytes"),
        "engine.cache_entries_loaded": (loaded, "count"),
        "rootdatum.build_s": (st("rootdatum.build", 2), "s"),
        "rootdatum.enum_s": (st("rootdatum.enum", 2), "s"),
    }
    for suite in VERIFY_SUITES:
        group = f"verify.{suite}"
        m[f"{group}_s"] = (None if "verify.suites" in absent else stats.get(group, [0, 0.0, 0.0])[2], "s")
    m["trace.cli_main_s"] = (st("cli.main", 2), "s")
    return m


# -- main ------------------------------------------------------------------


def _dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _by_job(passes, field: str, agg=statistics.fmean) -> dict:
    by_job: dict = {}
    for results in passes:
        for res in results:
            if res[field] is not None:
                by_job.setdefault(job_key(res["job"]), []).append(res[field])
    return {k: agg(v) for k, v in by_job.items()}


def _fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    for path in (os.path.join(SRC, "parahecke", "cli.py"), ORACLE, REFERENCE):
        if not os.path.isfile(path):
            return _fail(f"missing {os.path.relpath(path, ROOT)}; run from a full checkout")
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        reference = json.load(fh)["jobs"]

    jobs, warm = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    pin_to_one_cpu()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = os.path.join(TMP_ROOT, f"run-{os.getpid()}")
    cache_dir = os.path.join(tmp, "cache")
    os.makedirs(tmp)
    probe = SpeedProbe()
    try:
        probe.start()
        # Compile the package once, untimed: users do not pay that per run.
        warmup = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import parahecke.cli"],
            capture_output=True, timeout=120, cwd=ROOT,
        )
        if warmup.returncode != 0:
            return _fail(f"cannot import parahecke: {warmup.stderr.decode(errors='replace')}")

        base_env = dict(os.environ)
        base_env.pop("PARAHECKE_CACHE_DIR", None)  # a user's cache would turn cold runs warm
        if warm:
            base_env["PARAHECKE_CACHE_DIR"] = cache_dir
        oracle = run_oracle() if jobs is SATAKE_JOBS else None

        attempted = failed = 0

        def run_pass(trace: bool, order=None):
            nonlocal attempted, failed
            order = list(order) if order is not None else rng.sample(jobs, len(jobs))
            results = []
            for job in order:
                env = dict(base_env, PYTHONHASHSEED=str(rng.randrange(2**32)))
                res = run_job(job, env, tmp, trace, deadline, probe)
                why = check(res, reference, oracle)
                attempted += 1
                if why is not None:
                    failed += 1
                    with open(res["stderr_path"], "r", encoding="utf-8", errors="replace") as fh:
                        tail = fh.read()[-400:]
                    print(f"FAIL {job_key(job)}: {why}\n{tail}", file=sys.stderr)
                results.append(res)
            return results, order

        if warm:
            run_pass(False)  # prime the private cache with the code under test

        measure_start = time.monotonic()
        passes, traced = [], []
        step = 0.0
        while True:
            t = time.monotonic()
            if passes and (t - measure_start >= args.seconds or t + step > deadline):
                break
            results, order = run_pass(False)
            passes.append(results)
            if args.trace:
                traced.append((run_pass(True, order)[0], _dir_bytes(cache_dir)))
            step = time.monotonic() - t
            print(f"pass {len(passes)}: {sum(r['wall'] for r in results):.3f} s adjusted, "
                  f"{sum(r['raw_wall'] for r in results):.3f} s raw", file=sys.stderr)

        metrics: dict = {}
        if not args.trace:
            wall = _by_job(passes, "wall")
            setup = _by_job(passes, "setup")
            cpu = _by_job(passes, "cpu")
            rss = _by_job(passes, "rss_mb", statistics.median)
            metrics = {
                "wall_s": {"value": sum(wall.values()), "unit": "s"},
                "setup_s": {"value": sum(setup.values()), "unit": "s"},
                "cpu_s": {"value": sum(cpu.values()), "unit": "s"},
                "peak_rss_mb": {"value": max(rss.values()), "unit": "MB"},
            }
        else:
            per_pass = [layer_metrics(results, nbytes) for results, nbytes in traced]
            for name, (_, unit) in per_pass[0].items():
                vals = [p[name][0] for p in per_pass if p[name][0] is not None]
                median = statistics.median_low if unit in ("count", "bytes") else statistics.median
                metrics[name] = {"value": median(vals) if vals else None, "unit": unit}
            wall = _by_job(passes, "wall")
            traced_wall = _by_job([r for r, _ in traced], "wall")
            for all_jobs in (SATAKE_JOBS, VERIFY_JOBS):
                for job in all_jobs:
                    metrics[f"cli.job.{job_label(job)}.wall_s"] = {
                        "value": wall.get(job_key(job), 0.0), "unit": "s"}
            metrics["host.raw_wall_s"] = {"value": sum(_by_job(passes, "raw_wall").values()), "unit": "s"}
            metrics["host.probe_speed"] = {"value": probe.mean_speed(), "unit": "ratio"}
            untraced_s, traced_s = sum(wall.values()), sum(traced_wall.values())
            metrics["trace.untraced_wall_s"] = {"value": untraced_s, "unit": "s"}
            metrics["trace.traced_wall_s"] = {"value": traced_s, "unit": "s"}
            metrics["trace.overhead_share"] = {"value": traced_s / untraced_s - 1.0, "unit": "ratio"}
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
            with open(spans_path, "w", encoding="utf-8") as fh:
                for res in traced[-1][0]:
                    fh.write(json.dumps({"job": job_key(res["job"]),
                                         "spans": res["report"].get("spans", [])}) + "\n")
    finally:
        probe.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
