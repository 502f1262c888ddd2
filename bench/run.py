"""The goeritz benchmark: four workloads, end-to-end metrics, a traced pass.

Run from the root of a checkout (the package is imported from ./src):

  python3 bench/run.py --workload verify-long --seed 1 --seconds 40 --trace 0
  python3 bench/run.py --workload all                 # every workload, one after another
  python3 bench/run.py --compare A.jsonl B.jsonl      # medians, ratios and spreads

A run prints a table of its metrics and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics gated in BENCHMARK.json, measured with
tracing off; with --trace 1 they are the per-layer metrics of one traced
pass, and the end-to-end numbers are not measured. Every run also appends
its full record to .bench_out/results.jsonl (or --out), which --compare reads.

Each workload runs in one fresh worker process (bench/worker.py) that
calls the package one subject at a time. This process never imports
goeritz: it generates the inputs, watches each subject against a time
budget, and checks every answer against references of its own.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

# The metrics BENCHMARK.json gates: defined on every workload and never 0.
GATED = ("subjects_per_s", "peak_rss_mb", "setup_s")
UNITS = {"subjects_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s", "error_rate": "ratio"}

SUBJECT_BUDGET_S = {"verify-long": 60, "sweep-short": 120, "report-large": 120, "catalog": 10}
HARD_LIMIT_S = 150  # stop starting subjects after this, so a run ends well within 180 s
# Wall seconds of one pass at the commit that introduced the benchmark.
# A run makes round(--seconds / this) timed passes, a number that does
# not depend on how fast the code under test is.
NOMINAL_PASS_S = {"verify-long": 6.5, "sweep-short": 8.0, "report-large": 8.0, "catalog": 4.5}
SETUP_PROBES = 24  # fresh interpreters per run, spread over the run; the fastest is reported
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0)
POLL_S = 0.05  # at most 20 wake-ups a second while a pass runs; a pipe holds far more than 50 ms of results


class WorkerDied(Exception):
    pass


class Worker:
    """A worker process and its line protocol. `setup_s` is the time from
    spawning the interpreter to its `import goeritz` being done."""

    def __init__(self, probe: bool = False):
        t0 = time.perf_counter()
        argv = [sys.executable, WORKER] + (["--probe"] if probe else [])
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV,
                                     stdin=subprocess.DEVNULL if probe else subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self._buf = bytearray()
        started = select.select([self.proc.stdout.fileno()], [], [], 60)[0]
        self.setup_s = time.perf_counter() - t0
        try:
            ready = self.recv(10) if started else None
        except WorkerDied:
            ready = None
        if not ready or not ready.get("ready"):
            self.kill()
            raise RuntimeError("the worker did not start; see its error above")

    def send(self, msg: dict) -> None:
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()

    def recv(self, timeout: float):
        """The next message, or None after `timeout` seconds without one."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while (end := self._buf.find(b"\n")) < 0:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            # Let messages gather before reading them: this process runs on the
            # worker's neighbouring CPU, and waking for every one of a pass's
            # thousands of short subjects measurably slows the worker.
            time.sleep(min(POLL_S, max(left, 0.0)))
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise WorkerDied()
            self._buf += chunk
        line = bytes(self._buf[:end])
        del self._buf[:end + 1]
        return json.loads(line)

    def call(self, msg: dict, timeout: float = 60) -> dict:
        self.send(msg)
        reply = self.recv(timeout)
        if reply is None:
            raise WorkerDied()
        return reply

    def close(self) -> None:
        try:
            self.send({"op": "exit"})
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:  # unflushed input to a worker that is gone
                    pass


def probe_setup() -> float:
    worker = Worker(probe=True)
    worker.kill()
    return worker.setup_s


class Supervisor:
    """Runs passes over a subject list in a worker, replacing the worker
    when a subject times out or the worker dies, so the run goes on."""

    def __init__(self, workload: str, seed: int, out_dir: str, hard_deadline: float):
        self.budget = SUBJECT_BUDGET_S[workload]
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.hard_deadline = hard_deadline
        self.worker = None
        self.n = 0
        self.warmup = True
        self.tracing = False
        self.setup_samples: list[float] = []
        self.rss_kb = 0
        self.replaced = 0

    def _ensure_worker(self) -> None:
        if self.worker is None:
            self.worker = Worker()
            self.setup_samples.append(self.worker.setup_s)
            self._load()
            if self.tracing:
                self.worker.call({"op": "trace"})

    def _load(self) -> None:
        self.worker.call({"op": "load", "workload": self.workload, "seed": self.seed,
                          "warmup": self.warmup, "out_dir": self.out_dir})

    def load(self, n: int, warmup: bool = False) -> None:
        """Switch to the warm-up subjects or to the pass's; the worker
        makes them from the workload and seed, and there are `n` of them."""
        self.n, self.warmup = n, warmup
        if self.worker is None:
            self._ensure_worker()
        else:
            self._load()

    def trace_on(self) -> None:
        self.tracing = True
        self.worker.call({"op": "trace"})

    def trace_report(self, spans_path: str) -> dict:
        self.tracing = False
        return self.worker.call({"op": "trace_report", "spans_path": spans_path}, timeout=120)["metrics"]

    def run_pass(self) -> list[dict | None]:
        """One result per subject; None for a subject never reached."""
        n = self.n
        results: list[dict | None] = [None] * n
        i = 0
        while i < n and time.monotonic() < self.hard_deadline:
            self._ensure_worker()
            self.worker.send({"op": "run", "start": i})
            while True:
                wait = min(self.budget, self.hard_deadline - time.monotonic())
                t0 = time.perf_counter()
                try:
                    msg = self.worker.recv(max(wait, 0.0))
                except WorkerDied:
                    msg = {"exited": True}
                if msg is None:
                    msg = {"timeout": True}
                if msg.get("done"):
                    self.rss_kb = max(self.rss_kb, msg["rss_kb"])
                    break
                if "i" in msg:
                    results[msg["i"]] = msg
                    i = msg["i"] + 1
                    continue
                msg.update(i=i, dt=time.perf_counter() - t0)
                results[i] = msg
                i += 1
                self.worker.kill()
                self.worker = None
                self.replaced += 1
                break
        return results

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of 3). Read for drift only."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for k in range(300_000):
            acc = (acc * 31 + k) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "goeritz", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= 10:
            return pct, ordered[math.ceil(pct / 100 * n) - 1]
    return None


def weight(subject: dict) -> int:
    """Subjects a call stands for: one, except in sweep-short, where a sweep
    counts as the words it checks."""
    return subject.get("weight", 1)


def describe(subject: dict) -> str:
    if subject["kind"] == "catalog":
        return f"catalog ({subject['p']},{subject['q']})"
    return " ".join(a if len(a) <= 24 else a[:20] + "..." for a in subject["argv"])


def judge(checker, subjects, results, out_dir) -> list[tuple[dict, dict | None, str | None]]:
    """(subject, result, failure reason or None) for each subject of a pass."""
    judged = []
    for i, (subject, result) in enumerate(zip(subjects, results)):
        if result is None:
            judged.append((subject, None, "not reached before the run's time limit"))
            continue
        output = None
        path = os.path.join(out_dir, f"{i}.out")
        if subject["kind"] != "catalog" and os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                output = f.read()
            os.remove(path)
        judged.append((subject, result, checker.check(subject, result, output)))
    return judged


def run_workload(workload: str, seed: int, seconds: int, traced: bool, wrong: bool) -> dict:
    started = time.monotonic()
    meta = {"git_sha": git_sha(), "source_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_before": list(os.getloadavg()), "calibration_before_s": calibrate()}
    subjects = workloads.generate(workload, seed)
    checker = workloads.Checker(workload, wrong)
    out_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    supervisor = Supervisor(workload, seed, out_dir, started + HARD_LIMIT_S)
    judged, passes, pass_walls, setup, layer = [], [], [], [], None
    n_passes = 1 if traced else max(1, round(seconds / NOMINAL_PASS_S[workload]))
    # Set-up probes go between the passes, so that they sample the whole run.
    per_gap = 0 if traced else math.ceil(SETUP_PROBES / (n_passes + 1))
    try:
        warmup = workloads.WARMUP[workload]
        supervisor.load(len(warmup), warmup=True)
        judged += judge(checker, warmup, supervisor.run_pass(), out_dir)
        supervisor.load(len(subjects))
        for k in range(n_passes):
            setup += [probe_setup() for _ in range(per_gap)]
            if k and time.monotonic() - started + pass_walls[-1] > HARD_LIMIT_S:
                break  # a slow program gets fewer passes, not unreached subjects
            t0 = time.perf_counter()
            results = supervisor.run_pass()
            pass_walls.append(time.perf_counter() - t0)
            passes.append(results)
            judged += judge(checker, subjects, results, out_dir)
            if None in results:
                break
        setup += [probe_setup() for _ in range(per_gap)]
        if traced:
            supervisor.trace_on()
            traced_results = supervisor.run_pass()
            spans_path = os.path.join(OUT_DIR, f"spans-{workload}.bin")
            layer = supervisor.trace_report(spans_path)
            judged += judge(checker, subjects, traced_results, out_dir)
            untraced_s = sum(r["dt"] for r in passes[0] if r)
            traced_s = sum(r["dt"] for r in traced_results if r)
            layer.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                          "trace.overhead_s": traced_s - untraced_s})
    finally:
        supervisor.close()
        shutil.rmtree(out_dir, ignore_errors=True)
    meta.update(loadavg_after=list(os.getloadavg()), calibration_after_s=calibrate())

    attempted = sum(weight(s) for s, _, _ in judged)
    failures = [(s, why) for s, _, why in judged if why is not None]
    failed = sum(weight(s) for s, _ in failures)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "seeded": workloads.SEEDED[workload], "why": workloads.WHY[workload],
        "inputs_sha256": workloads.digest(subjects), "subjects_per_pass": len(subjects),
        "passes": len(passes), "pass_wall_s": pass_walls, "workers_replaced": supervisor.replaced,
        "attempted": attempted, "failed": failed,
        "failures": [f"{describe(s)}: {why}" for s, why in failures[:10]],
        "meta": meta,
    }
    if traced:
        record["metrics"] = {name: {"value": layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
        return record

    ok = {id(r) for _, r, why in judged if r is not None and why is None}
    busy = done = 0.0
    latencies = []
    for i, subject in enumerate(subjects):
        runs = [results[i] for results in passes if results[i] is not None]
        if not runs:
            continue
        # Contention from other tenants of a shared machine only ever adds
        # time, and comes and goes within seconds; a subject's fastest of
        # the run's fixed number of passes is the steadiest estimate of
        # what the program itself costs.
        busy += min(r["dt"] for r in runs)
        done += weight(subject) * sum(id(r) in ok for r in runs) / len(runs)
        if weight(subject) == 1:  # a call checking many words has no per-subject latency
            latencies += [r["dt"] * 1000 for r in runs if id(r) in ok]
    metrics = {
        "subjects_per_s": done / busy if busy else 0.0,
        "peak_rss_mb": supervisor.rss_kb / 1024,
        "setup_s": min(setup + supervisor.setup_samples),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    record["latency_samples"] = len(latencies)
    if latencies:
        metrics["latency_p50_ms"] = statistics.median(latencies)
        tail_at = tail(latencies)
        if tail_at is not None:
            record["latency_tail_percentile"] = tail_at[0]
            metrics["latency_tail_ms"] = tail_at[1]
    record["setup_samples"] = len(setup) + len(supervisor.setup_samples)
    record["metrics"] = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    return record


def print_record(rec: dict) -> None:
    mode = "traced pass" if rec["trace"] else f"{rec['passes']} timed pass(es)"
    print(f"workload {rec['workload']}  seed {rec['seed']}  {mode} of {rec['subjects_per_pass']} calls")
    seeded = "inputs from the seed" if rec["seeded"] else "exhaustive inputs; the seed is unused"
    print(f"  inputs sha256 {rec['inputs_sha256']} ({seeded}); why: {rec['why']}")
    for name, m in rec["metrics"].items():
        note = ""
        if name == "latency_p50_ms":
            note = f"n={rec['latency_samples']}"
        elif name == "latency_tail_ms":
            note = f"p{rec['latency_tail_percentile']:g}, n={rec['latency_samples']}"
        elif name == "setup_s":
            note = f"fastest of {rec['setup_samples']} fresh interpreters"
        elif name == "error_rate":
            note = f"{rec['failed']} of {rec['attempted']} subjects"
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<6} {note}")
    if not rec["trace"] and "latency_p50_ms" not in rec["metrics"]:
        print(f"  {'latency_p50_ms, latency_tail_ms':<46} {'n/a':>14}        "
              "no per-subject latency seen from outside")
    elif not rec["trace"] and "latency_tail_ms" not in rec["metrics"]:
        print(f"  {'latency_tail_ms':<46} {'n/a':>14}        "
              f"fewer than ten samples beyond p90 (n={rec['latency_samples']})")
    for line in rec["failures"]:
        print(f"  FAIL {line}")
    m = rec["meta"]
    print(f"  git {m['git_sha'] or 'n/a'}  src {m['source_sha256']}  python {m['python']}  "
          f"nproc {m['nproc']}  load {m['loadavg_before'][0]:.2f}->{m['loadavg_after'][0]:.2f}  "
          f"calibration {m['calibration_before_s']:.4f}s->{m['calibration_after_s']:.4f}s")


def result_line(rec: dict) -> str:
    names = [name for name, _, _ in PER_LAYER] if rec["trace"] else GATED
    return json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                       "failed": rec["failed"],
                       "metrics": {name: rec["metrics"][name] for name in names}})


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def compare(path_a: str, path_b: str) -> int:
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]

    a, b = load(path_a), load(path_b)
    print(f"A = {path_a} ({len(a)} runs), B = {path_b} ({len(b)} runs); "
          "spread = (Q3 - Q1) / median; ratio = median B / median A")
    print(f"{'workload':<13} {'metric':<16} {'unit':<6} {'median A':>12} {'median B':>12} "
          f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'runs':>7}")
    for workload in workloads.WORKLOADS:
        ra = [r for r in a if r["workload"] == workload and not r["trace"]]
        rb = [r for r in b if r["workload"] == workload and not r["trace"]]
        for name, unit in UNITS.items():
            va = [r["metrics"][name]["value"] for r in ra if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in rb if name in r["metrics"]]
            if not va and not vb:
                continue
            ma = statistics.median(va) if va else float("nan")
            mb = statistics.median(vb) if vb else float("nan")
            ratio = mb / ma if va and vb and ma else float("nan")
            print(f"{workload:<13} {name:<16} {unit:<6} {ma:>12.5g} {mb:>12.5g} {ratio:>7.3f} "
                  f"{spread(va):>9.3f} {spread(vb):>9.3f} {len(va):>3}/{len(vb):<3}")
    counted = {name for name, unit, _ in PER_LAYER if unit in ("count", "bytes", "ratio")}
    for workload in workloads.WORKLOADS:
        runs = [r for r in a + b if r["workload"] == workload and r["trace"]]
        if not runs:
            continue
        by_seed: dict[int, list[dict]] = {}
        for r in runs:
            by_seed.setdefault(r["seed"], []).append(r)
        differing = sorted({name for group in by_seed.values() for name in counted
                            if len({r["metrics"][name]["value"] for r in group}) > 1})
        repeats = sum(len(g) for g in by_seed.values() if len(g) > 1)
        verdict = "repeat exactly" if not differing else f"DIFFER: {', '.join(differing)}"
        oa = [r["metrics"]["trace.overhead_s"]["value"] for r in runs if r in a]
        ob = [r["metrics"]["trace.overhead_s"]["value"] for r in runs if r in b]
        print(f"{workload:<13} traced: counts {verdict} ({repeats} runs sharing a seed); "
              f"overhead median A {statistics.median(oa) if oa else float('nan'):.3f} s, "
              f"B {statistics.median(ob) if ob else float('nan'):.3f} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40,
                        help="sets the number of timed passes: this over the workload's nominal pass time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.jsonl"),
                        help="JSON-lines file each run's full record is appended to")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="feed every check a wrong expected answer; error_rate must rise")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "goeritz", "__init__.py")):
        print(f"error: no goeritz package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        rec = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.wrong_expected)
        with open(args.out, "a") as f:
            f.write(json.dumps(rec) + "\n")
        print_record(rec)
        print(result_line(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
