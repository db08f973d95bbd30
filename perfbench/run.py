"""Cold-process benchmark of the relatom command line.

    python3 perfbench/run.py --workload {atoms,sweep,verify} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload W --seed N --selftest

Run from the root of a source checkout; relatom is imported from its
``src/``.  One client sends requests in a closed loop: each request is a
fresh ``python -m relatom.cli <argv>`` process, the way a researcher runs
the tool, and the next starts when it has exited.  After the loop every
output is checked (``workloads.py``).

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed number of the seed's requests through
``tracer.py``, which records per-layer spans and scipy work counts, then
the same requests untraced; the difference of their wall times is the
tracing overhead, and their data files must be byte-identical.  The sweep
is replayed serially (``SEMICLASSIC_THREADS=1``) in both halves so that
worker-side spans are visible.

``--selftest`` checks determinism on the seed's first request: two
untraced runs and two traced runs must write byte-identical data files
(``.meta.json`` sidecars excluded; ``verify`` compares its check lines)
and the traced runs must repeat every work counter exactly.

The metric names and units come from ``BENCHMARK.json``.  The last line
of standard output is the result object; the full report, with the
generated request list and provenance, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7                                         # at least, per untraced run
TRACE_REQUESTS = {"atoms": 3, "sweep": 2, "verify": 1}   # one per family where there are families
HARD_LIMIT_S = 170.0                                     # every run ends within 180 s
SERIAL_ENV = {"SEMICLASSIC_THREADS": "1"}
PROBE = "import relatom, relatom.cli; print(relatom.__file__)"


@dataclass
class Completed:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    descendants: int | None


class DescendantWatcher(threading.Thread):
    """Polls /proc for the processes a request starts (pool workers included)."""

    def __init__(self, pid, interval=0.05):
        super().__init__(daemon=True)
        self.pid, self.interval = pid, interval
        self.seen = set()
        self.available = Path(f"/proc/{pid}/task").is_dir()
        self._halt = threading.Event()

    def _children(self, pid):
        kids = []
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    kids.extend(int(k) for k in fh.read().split())
        except OSError:
            pass
        return kids

    def run(self):
        while not self._halt.is_set():
            todo = [self.pid]
            while todo:
                for kid in self._children(todo.pop()):
                    if kid not in self.seen:
                        self.seen.add(kid)
                    todo.append(kid)
            self._halt.wait(self.interval)

    def stop(self):
        self._halt.set()
        self.join()
        return len(self.seen) if self.available else None


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(cmd, env, workdir, timeout):
    """Run one cold process to completion; wall time, exit code, output and the
    peak resident set of it and every descendant it waited for."""
    workdir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    t0 = time.perf_counter()
    with open(out_path, "w") as so, open(err_path, "w") as se:
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=workdir,
                                start_new_session=True)
    watcher = DescendantWatcher(proc.pid)
    watcher.start()
    timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:   # interrupted: end the request before leaving
        _kill_group(proc.pid)
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
        descendants = watcher.stop()
        _kill_group(proc.pid)   # nothing the request started outlives it
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Completed(
        returncode=proc.returncode,
        stdout=out_path.read_text(), stderr=err_path.read_text(),
        wall_s=wall, maxrss_mb=usage.ru_maxrss / 1024.0, descendants=descendants,
    )


def request_env(extra=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SEMICLASSIC_THREADS", "RELATOM_TRACE")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


class Harness:
    def __init__(self, workload, seed, deadline):
        self.workload, self.deadline = workload, deadline
        self.tmp = OUT / f"tmp-{workload}-{seed}-{os.getpid()}"
        (self.tmp / "data").mkdir(parents=True, exist_ok=True)
        generate, self.check = wl.WORKLOADS[workload]
        self.requests = generate(seed, self.tmp / "data")
        self.nproc = len(os.sched_getaffinity(0))
        self.problems = []   # harness assertions that failed; any makes the run incorrect

    def remaining(self):
        return self.deadline - time.perf_counter()

    def probe(self, n):
        """Cold interpreter start plus ``import relatom.cli``; asserts the import
        resolves to the checkout's src/."""
        walls = []
        for _ in range(n):
            done = run_process([sys.executable, "-c", PROBE], request_env(),
                               self.tmp / "probe", self.remaining())
            path = Path(done.stdout.strip() or "?").resolve()
            if done.returncode != 0 or SRC.resolve() not in path.parents:
                self.problems.append(f"relatom imported from {done.stdout.strip()!r} "
                                     f"(exit {done.returncode}), not {SRC}")
            walls.append(done.wall_s)
        return walls

    def run(self, req, traced, extra_env=None, tag="u"):
        workdir = self.tmp / f"{tag}{req.index:04d}"
        spans_path = workdir / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *req.argv]
        else:
            cmd = [sys.executable, "-m", "relatom.cli", *req.argv]
        done = run_process(cmd, request_env(extra_env), workdir, self.remaining())
        if done.descendants is not None and done.descendants > self.nproc:
            self.problems.append(f"request {req.index} started {done.descendants} "
                                 f"processes > nproc {self.nproc}")
        if done.returncode < 0:
            self.problems.append(f"request {req.index} killed by signal {-done.returncode}")
        data = {f: Path(f).read_bytes() for f in req.data_files if Path(f).is_file()}
        spans = json.loads(spans_path.read_text()) if traced and spans_path.is_file() else None
        return done, data, spans

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def load_relatom():
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from relatom import thomas_fermi

    return thomas_fermi, numpy.__version__, scipy.__version__


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(numpy_version, scipy_version, installed):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "relatom_installed_outside_checkout": installed,
    }


def highest_tail_percentile(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    n = len(values)
    best = None
    for p in (0.9, 0.99, 0.999):
        if n * (1.0 - p) >= 10:
            best = (p, statistics.quantiles(values, n=1000, method="inclusive")[int(p * 1000) - 1])
    return None if best is None else {"percentile": best[0] * 100, "value_s": best[1]}


def tally(outcomes):
    failed = [o for o in outcomes if o.status != wl.OK]
    wrong = [o for o in outcomes if o.status == wl.WRONG]
    return len(outcomes), failed, wrong


def measure(h, seconds, relatom_tf):
    """Closed loop of requests until they have taken ``seconds`` of wall time
    and end a whole rotation.  A set-up probe runs before each request,
    so the probes see the same state of the machine as the requests; the loop
    time counts requests only."""
    h.probe(1)   # untimed: may compile bytecode
    done, probes = [], []
    loop_s = 0.0
    for req in h.requests:
        probes.extend(h.probe(1))
        start = time.perf_counter()
        done.append((req, h.run(req, traced=False)[0]))
        loop_s += time.perf_counter() - start
        if (loop_s >= seconds and len(done) % wl.ROTATION[h.workload] == 0) or h.remaining() <= 0:
            break
    if len(probes) < SETUP_PROBES:
        probes.extend(h.probe(SETUP_PROBES - len(probes)))

    outcomes, records = [], []
    for req, proc in done:
        res = h.check(req, proc, relatom_tf)
        outcomes.extend(res)
        records.append({**req.record(), "wall_s": proc.wall_s, "exit": proc.returncode,
                        "maxrss_mb": proc.maxrss_mb, "processes_started": proc.descendants,
                        "outcomes": [o.status for o in res],
                        "reasons": sorted({o.reason for o in res if o.reason})})
    walls = [proc.wall_s for _, proc in done]
    attempted, failed, wrong = tally(outcomes)
    metrics = {
        "request_p50_s": statistics.median(walls),
        "requests_per_min": 60.0 * len(done) / loop_s,
        "peak_rss_mb": max(proc.maxrss_mb for _, proc in done),
        "setup_s": statistics.median(probes),
    }
    detail = {
        "samples": len(walls),
        "request_tail": highest_tail_percentile(walls),
        "failed_share": len(failed) / attempted,
        "loop_s": loop_s,
        "setup_probes_s": probes,
        "requests": records,
    }
    return metrics, detail, attempted, failed, wrong


def span_metric(name, agg, trace_stats):
    """Value of a per_layer metric name from the aggregated spans (0 if unseen)."""
    head, _, stat = name.rpartition(".")
    if name.startswith("trace."):
        return trace_stats[name[len("trace."):]]
    if name.startswith("numerics."):
        return agg["numerics"][stat]
    if name.startswith("layer."):
        return agg["layers"].get(head[len("layer."):], {}).get(stat, 0)
    return agg["spans"].get(head, {}).get(stat, 0)


def measure_traced(h, relatom_tf, names):
    h.probe(1)
    reqs = list(itertools.islice(h.requests, TRACE_REQUESTS[h.workload]))
    extra = SERIAL_ENV if h.workload == "sweep" else None
    plain = [h.run(r, traced=False, extra_env=extra, tag="u") for r in reqs]
    traced = [h.run(r, traced=True, extra_env=extra, tag="t") for r in reqs]

    outcomes, records = [], []
    for req, (proc, data, spans), (uproc, udata, _) in zip(reqs, traced, plain):
        res = h.check(req, proc, relatom_tf)
        outcomes.extend(res)
        if data != udata or (h.workload == "verify" and proc.stdout != uproc.stdout):
            h.problems.append(f"request {req.index}: traced and untraced outputs differ")
        if spans is None:
            h.problems.append(f"request {req.index}: tracer wrote no spans (exit {proc.returncode})")
        records.append({**req.record(), "traced_wall_s": proc.wall_s, "untraced_wall_s": uproc.wall_s,
                        "exit": proc.returncode, "outcomes": [o.status for o in res],
                        "spans": tracer.aggregate([spans])["spans"] if spans else None})
    docs = [spans for _, _, spans in traced if spans is not None]
    agg = tracer.aggregate(docs)
    traced_s = sum(p.wall_s for p, _, _ in traced)
    plain_s = sum(p.wall_s for p, _, _ in plain)
    in_spans = sum(a["self_s"] for a in agg["spans"].values())   # = root span durations
    trace_stats = {
        "wall_s": traced_s,
        "overhead_s": traced_s - plain_s,
        "outside_spans_s": traced_s - in_spans,
    }
    metrics = {n: span_metric(n, agg, trace_stats) for n in names}
    attempted, failed, wrong = tally(outcomes)
    detail = {
        "mode": "serial replay (SEMICLASSIC_THREADS=1)" if extra else "as run",
        "traced_requests": len(reqs),
        "untraced_wall_s": plain_s,
        "absent_spans": agg["absent"],
        "spans": agg["spans"],
        "layers": agg["layers"],
        "numerics": agg["numerics"],
        "requests": records,
    }
    return metrics, detail, attempted, failed, wrong


def selftest(h):
    """Determinism of the seed's first request that writes its data files;
    returns (passed, findings)."""
    by_stdout = h.workload == "verify"   # writes no data files
    runs = []
    for req in itertools.islice(h.requests, 6):
        runs = [h.run(req, traced=False, tag="a")]
        if by_stdout or len(runs[0][1]) == len(req.data_files):
            break
    for traced, tag in ((False, "b"), (True, "c"), (True, "d")):
        extra = SERIAL_ENV if traced and h.workload == "sweep" else None
        runs.append(h.run(req, traced=traced, extra_env=extra, tag=tag))
    keys = [proc.stdout if by_stdout else data for proc, data, _ in runs]
    counters = [None if spans is None else
                {c: tracer.aggregate([spans])["numerics"][c] for c in tracer.COUNTERS}
                for _, _, spans in runs[2:]]
    findings = {
        "request": req.record(),
        "exit_codes": [proc.returncode for proc, _, _ in runs],
        "compared": "check lines on stdout" if by_stdout else
                    f"{len(keys[0])} data file(s), .meta.json sidecars excluded",
        "untraced_repeat_identical": keys[0] == keys[1],
        "traced_vs_untraced_identical": keys[0] == keys[2] == keys[3],
        "traced_counters": counters,
        "traced_counters_identical": counters[0] == counters[1] and counters[0] is not None,
    }
    passed = bool(keys[0]) and all(findings[k] for k in (
        "untraced_repeat_identical", "traced_vs_untraced_identical", "traced_counters_identical"))
    return passed, findings


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "relatom" / "cli.py").is_file():
        print(f"no relatom sources under {SRC}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    installed = importlib.util.find_spec("relatom")
    installed = installed.origin if installed is not None else None
    relatom_tf, numpy_version, scipy_version = load_relatom()

    h = Harness(args.workload, args.seed, t_start + HARD_LIMIT_S)
    try:
        if args.selftest:
            passed, findings = selftest(h)
            print(json.dumps(findings, indent=1))
            return 0 if passed and not h.problems else 1
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, detail, attempted, failed, wrong = measure_traced(h, relatom_tf, names)
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics, detail, attempted, failed, wrong = measure(h, args.seconds, relatom_tf)
    finally:
        h.close()

    correct = not wrong and not h.problems
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(numpy_version, scipy_version, installed),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "failure_reasons": sorted({f"{o.status}: {o.reason}" for o in failed}),
        "harness_problems": h.problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **detail,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"report: {path.relative_to(ROOT)}")
    for reason in report["failure_reasons"] + h.problems:
        print(f"  {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
