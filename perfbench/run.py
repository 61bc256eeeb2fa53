"""Seeded benchmark for the hopfcalc command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sym-d40 --seed 1 --seconds 36 --trace 0

It writes seeded spec files under ``perfbench/out/`` and calls
``hopfcalc.cli.main(argv)`` in this process, as a closed loop with one
client: the next request starts when the previous one has returned and its
output has been checked.  The clock runs only inside ``main``.  A run makes a
fixed number of requests, ``--seconds`` divided by the workload's typical
request time (``TYPICAL_REQUEST_S``), so two runs with the same seed attempt
the same requests.

Workloads (see BENCHMARK.json for why each was chosen):

* ``sym-d40``      ``report --format json`` on one-vertex trees, n = 4, d = 40
* ``oracle-d24``   ``oracle --format json`` on the same family at d = 24
* ``corpus-small`` fixtures, small trees, pair and projected graphs, products,
                   ``check-link``, ``classify`` and invalid documents

A request fails on a wrong exit code, an output that fails its check, or a
run past its workload's deadline, which a CPU-time interval timer enforces.
Failed requests rank above every completed one in the latency percentiles;
each is charged the deadline plus the time it ran.

With ``--trace 0`` all six end-to-end metrics are printed, and the last
line reports the two with a bound (``BOUND_METRICS``); with ``--trace 1``
it reports per-layer metrics from spans recorded around the
public functions of each module (see ``tracer.py``), plus the tracing
overhead: traced minus plain ``latency_p50_s``, from a plain and a traced
phase of half the requests each.

The result's ``correct`` is false when hopfcalc reports success with a
wrong output, or when a repeated request prints different bytes.  The
result's ``failed`` counts every request that hopfcalc answered with a wrong
exit code or output, such as the internal-error exit on an invalid document;
those leave ``correct`` alone.  Missed deadlines count in ``failed_ratio``
and in the latency percentiles but not in ``failed``: request times run in a
continuum from healthy to minutes of Smith-form coefficient growth, and the
same request's CPU time varies by a quarter on a shared host, so which
requests near a deadline miss it differs between runs with one seed, while
``failed`` must repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Per-request deadlines in CPU seconds of this process, so that time spent
# waiting while other processes on the host run is not charged.  When they
# were set (Python 3.11, two shared x86 cores), healthy sym-d40 requests took
# 1-2.5 s and healthy oracle-d24 requests 0.25-0.8 s; those hit by Smith-form
# coefficient growth took from a few seconds to minutes.  corpus-small
# requests took under 0.06 s.
DEADLINE_S = {"sym-d40": 9.0, "oracle-d24": 4.0, "corpus-small": 1.0}
# Typical wall seconds per request on the same host, with missed deadlines,
# file writing and checking.  They turn --seconds into a fixed request count.
TYPICAL_REQUEST_S = {"sym-d40": 2.0, "oracle-d24": 0.75, "corpus-small": 0.01}
SETUP_LAUNCHES = 9

# The end-to-end metrics in the result line, each with a regression bound in
# BENCHMARK.json.  The other four are printed and kept in result.json only:
# failed_ratio, latency_tail_s, throughput_rps and peak_rss_mib follow how
# many requests of a run hit Smith-form coefficient growth (by seed, 0 to 1 of
# 15 on sym-d40 and 1 to 10 of 40 on oracle-d24).  One such request costs a
# whole deadline and up to 8 MiB, so between seeds these spread by up to 0.4
# of their median, more than the largest bound a benchmark may set, and
# failed_ratio is 0 on some seeds.
BOUND_METRICS = ("setup_s", "latency_p50_s")


class DeadlineExceeded(BaseException):
    """Raised by an interval timer; a BaseException so that no handler in
    hopfcalc.cli can absorb it."""


# ---------------------------------------------------------------------------
# environment


def source_commit() -> str:
    """Commit of the checkout from .git/HEAD, or a digest of src/ when the
    checkout is not a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    return fh.read().strip()
            return ref
        return ref
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "hopfcalc")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def import_cli():
    """Import hopfcalc.cli from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hopfcalc", "cli.py")):
        raise SystemExit(f"error: {SRC}/hopfcalc/cli.py not found; run from a hopfcalc checkout")
    sys.path.insert(0, SRC)
    from hopfcalc import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise SystemExit(f"error: imported hopfcalc from {cli.__file__}, not from {SRC}")
    return cli


def _raise_deadline(signum, frame):
    raise DeadlineExceeded()


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import hopfcalc.cli, one at a time.

    Popen.wait with a timeout polls in steps of up to 50 ms, which would
    quantize the times, so the wait blocks and an interval timer bounds it.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    previous = signal.signal(signal.SIGALRM, _raise_deadline)
    try:
        for _ in range(SETUP_LAUNCHES):
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", "import hopfcalc.cli"], env=env, cwd=ROOT)
            signal.setitimer(signal.ITIMER_REAL, 60)
            try:
                code = proc.wait()
            except DeadlineExceeded:
                proc.kill()
                proc.wait()
                raise SystemExit("error: importing hopfcalc.cli took more than 60 s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(time.perf_counter() - start)
            if code != 0:
                raise SystemExit(f"error: importing hopfcalc.cli exited with {code}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    return times


# ---------------------------------------------------------------------------
# requests


class Client:
    """Calls cli.main in-process under a deadline and checks each output."""

    def __init__(self, cli, deadline: float, tracer: Tracer | None = None) -> None:
        self.cli = cli
        self.deadline = deadline
        self.tracer = tracer
        self.seen: dict[str, tuple[str, str | None]] = {}  # name -> (stdout digest, reason)
        self.wrong: list[str] = []
        self.failures: dict[str, int] = {}
        self.late = 0  # requests stopped at the deadline

    def _on_deadline(self, signum, frame):
        if self.tracer is not None:
            self.tracer.abort_innermost()
        raise DeadlineExceeded()

    def call(self, argv) -> tuple[int | str | None, str, float]:
        """Run one request; returns (exit code, stdout, wall seconds).  The exit
        code is None when the request used up its deadline of CPU time, and
        names the exception when one escapes main."""
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGPROF, self._on_deadline)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_PROF, self.deadline)
                try:
                    code = self.cli.main(list(argv))
                finally:
                    signal.setitimer(signal.ITIMER_PROF, 0)
        except DeadlineExceeded:
            code = None
        except Exception as exc:  # a traceback, which the README exit codes rule out
            code = f"uncaught {type(exc).__name__}"
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGPROF, previous)
        return code, out.getvalue(), elapsed

    def run(self, req: workloads.Request, argv, request_id: int) -> tuple[bool, float]:
        """One checked request; returns (passed, seconds)."""
        if self.tracer is not None:
            self.tracer.begin_request(request_id)
        code, stdout, elapsed = self.call(argv)
        if self.tracer is not None:
            self.tracer.end_request(completed=code is not None)
        if code is None:
            self.late += 1
            reason = f"deadline of {self.deadline} s of CPU time exceeded"
        else:
            digest = hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()
            if req.name in self.seen:
                first, reason = self.seen[req.name]
                if digest != first:
                    reason = "exit code or stdout differs from an earlier run of the same request"
                    self.wrong.append(f"{req.name}: {reason}")
            else:
                reason = checker.check(req.facts, code, stdout, argv)
                self.seen[req.name] = (digest, reason)
                if reason and code == 0:
                    self.wrong.append(f"{req.name}: {reason}")
        if reason:
            self.failures[reason] = self.failures.get(reason, 0) + 1
        return reason is None, elapsed


def request_stream(workload: str, seed: int, spec_dir: str, fixtures: dict[str, str]):
    """Endless (request, argv) pairs.  corpus-small cycles through one seeded
    mix; the other workloads never repeat an input."""
    if workload == "corpus-small":
        cycle = [(req, workloads.write_files(req, os.path.join(spec_dir, f"{i:03d}")))
                 for i, req in enumerate(workloads.corpus_small(seed, fixtures))]
        while True:
            yield from cycle
    make = workloads.sym_d40 if workload == "sym-d40" else workloads.oracle_d24
    index = 0
    while True:
        req = make(seed, index)
        yield req, workloads.write_files(req, os.path.join(spec_dir, "current"))
        index += 1


def read_fixtures() -> dict[str, str]:
    fixture_dir = os.path.join(SRC, "hopfcalc", "fixtures")
    out = {}
    for name in sorted(os.listdir(fixture_dir)):
        if name.endswith(".json"):
            with open(os.path.join(fixture_dir, name), encoding="utf-8") as fh:
                out[name] = fh.read()
    return out


def request_count(workload: str, seconds: float, cycle: int) -> int:
    """Requests that fill about ``seconds``, rounded up to whole cycles of
    ``cycle`` requests; the same for every run with these arguments."""
    count = max(1, round(seconds / TYPICAL_REQUEST_S[workload]))
    return -(-count // cycle) * cycle


def measure(client: Client, stream, count: int, first_id: int = 0):
    """Closed loop over the next ``count`` requests.  Returns per-request
    (passed, seconds) pairs."""
    return [client.run(*next(stream), request_id)
            for request_id in range(first_id, first_id + count)]


# ---------------------------------------------------------------------------
# metrics


def latency_ranks(results, deadline: float) -> list[float]:
    """Request times, a failed request charged the deadline plus its own time."""
    return sorted(t if ok else deadline + t for ok, t in results)


def tail(ranked: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (percentile, value)."""
    index = max(len(ranked) - 11, 0)
    return 100.0 * (index + 1) / len(ranked), ranked[index]


def end_to_end(results, deadline: float, setup: list[float]) -> dict[str, dict]:
    ranked = latency_ranks(results, deadline)
    passed = sum(ok for ok, _ in results)
    busy = sum(t for _, t in results)
    _, tail_value = tail(ranked)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "latency_p50_s": {"value": statistics.median(ranked), "unit": "s"},
        "latency_tail_s": {"value": tail_value, "unit": "s"},
        "throughput_rps": {"value": passed / busy, "unit": "1/s"},
        "failed_ratio": {"value": (len(results) - passed) / len(results), "unit": "ratio"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
    }


def describe(metrics: dict[str, dict], results, deadline: float, setup: list[float]) -> list[str]:
    ranked = latency_ranks(results, deadline)
    pct, _ = tail(ranked)
    failed = sum(not ok for ok, _ in results)
    notes = {
        "setup_s": f"median of {len(setup)} launches",
        "latency_p50_s": f"n = {len(ranked)}",
        "latency_tail_s": f"p{pct:.1f} of n = {len(ranked)}, {len(ranked) - 1 - max(len(ranked) - 11, 0)} beyond",
        "throughput_rps": f"{len(ranked) - failed} passed in {sum(t for _, t in results):.2f} s of requests",
        "failed_ratio": f"{failed} of {len(ranked)}",
        "peak_rss_mib": "ru_maxrss of this process",
    }
    return [f"{name:<16} {m['value']:>12.6g} {m['unit']:<6} ({notes[name]})" for name, m in metrics.items()]


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("HOPFCALC_CACHE", None)  # no disk memo between requests
    cli = import_cli()
    deadline = DEADLINE_S[args.workload]
    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    fixtures = read_fixtures()
    stream = request_stream(args.workload, args.seed, os.path.join(out_dir, "specs"), fixtures)
    cycle = len(workloads.corpus_small(args.seed, fixtures)) if args.workload == "corpus-small" else 1
    env = {
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
        "commit": source_commit(), "deadline_cpu_s": deadline, "seconds": args.seconds,
        "workload": args.workload, "trace": args.trace, "clients": 1, "loop": "closed",
    }
    print("environment: " + json.dumps(env, sort_keys=True))

    if args.trace:
        half = request_count(args.workload, args.seconds / 2, cycle)
        plain_client = Client(cli, deadline)
        plain = measure(plain_client, stream, half)
        tracer = Tracer()
        tracer.install()
        try:
            traced_client = Client(cli, deadline, tracer)
            traced = measure(traced_client, stream, half, first_id=half)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(out_dir, "spans.jsonl"))
        results = plain + traced
        clients = (plain_client, traced_client)
        printed = reported = tracer.metrics()
        overhead = (statistics.median(latency_ranks(traced, deadline))
                    - statistics.median(latency_ranks(plain, deadline)))
        reported["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name in sorted(reported):
            print(f"{name:<48} {reported[name]['value']:>12.6g} {reported[name]['unit']}")
    else:
        setup = measure_setup()
        client = Client(cli, deadline)
        results = measure(client, stream, request_count(args.workload, args.seconds, cycle))
        clients = (client,)
        printed = end_to_end(results, deadline, setup)
        reported = {name: printed[name] for name in BOUND_METRICS}
        print("\n".join(describe(printed, results, deadline, setup)))

    wrong = [w for c in clients for w in c.wrong]
    failures: dict[str, int] = {}
    for c in clients:
        for reason, count in c.failures.items():
            failures[reason] = failures.get(reason, 0) + count
    for reason, count in sorted(failures.items()):
        print(f"failed x{count}: {reason}")
    late = sum(c.late for c in clients)
    result = {
        "correct": not wrong,
        "attempted": len(results),
        "failed": sum(not ok for ok, _ in results) - late,
        "metrics": reported,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "wrong": wrong, **result, "late": late, "metrics": printed,
                   "requests": results}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
