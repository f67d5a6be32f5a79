"""Benchmark runner: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload verdicts|falsify|evolve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run builds one round of seeded requests, repeats whole
rounds until ``--seconds`` have passed (and at least enough rounds for
100 latency samples), checks every output against independent
computations, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The line before it holds the same figures uncorrected
for host speed.  Every duration is scaled by ``reference / measured``,
where ``measured`` is the workload's calibration kernel's mean time just
before and just after the block of requests it ran in (see ``calib.py``).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("verdicts", "falsify", "evolve")
BLOCK_S = 0.15        # raw request time between two calibration runs
MIN_SAMPLES = 100     # latency samples per run, so p90 has >= 10 beyond it
MIN_ROUNDS = 3        # rounds per run, so per-request medians have a middle


class Calibrator:
    """The calibration kernel in a helper process (see calib.py)."""

    def __init__(self, workload):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calib.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        # the helper announces its reference time; importing calib here
        # would load numpy and scipy before the set-up is timed
        words = self.proc.stdout.readline().split()
        if len(words) != 2 or words[0] != "ready":
            self.close()
            raise RuntimeError("calibration helper failed to start")
        self.reference = float(words[1])
        self.times = []

    def measure(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        self.times.append(float(line))
        return self.times[-1]

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _pin_to_one_cpu():
    """Run this process and the helper (which inherits the mask) on one
    CPU, so the kernel measures the CPU the requests run on."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})


def _throughput_metrics(samples, key, workload):
    """End-to-end metrics of completed requests, durations taken from key.

    Rates use, for each request of the round, the median of its
    durations over the rounds, so that one slow round moves them little;
    latencies are percentiles over every completed request."""
    durs = [s[key] for s in samples]
    by_request = {}
    for s in samples:
        by_request.setdefault(s["index"], []).append(s)
    total = work = nodes = 0.0
    for runs in by_request.values():
        total += statistics.median(s[key] for s in runs)
        work += runs[0]["work"]
        nodes += runs[0]["work"] * runs[0]["unit_nodes"]
    return {
        "requests_per_s": (len(by_request) / total, "req/s"),
        "latency_p50_ms": (statistics.median(durs) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(durs, n=10, method="inclusive")[8] * 1e3, "ms"),
        "nodes_per_s": (nodes / total, "nodes/s"),
        # on workloads without evaluations or steps these count requests
        "evals_per_s": ((work if workload == "falsify" else len(by_request)) / total, "evals/s"),
        "steps_per_s": ((work if workload == "evolve" else len(by_request)) / total, "steps/s"),
    }


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "dissipate", "__init__.py")):
        print(f"error: no dissipate package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    docdir = os.path.join(OUT, f"docs-{args.workload}-{os.getpid()}")

    t_harness = time.perf_counter()
    cal = Calibrator(args.workload)
    try:
        k_before = cal.measure()
        t_setup = time.perf_counter()
        harness_s = t_setup - t_harness

        # ---- set-up: import the program and prepare the inputs
        sys.path.insert(0, SRC)
        os.environ["DISSIPATE_WORKERS"] = "1"
        os.makedirs(docdir, exist_ok=True)
        import workloads
        requests = workloads.build(args.workload, args.seed, docdir)
        t_ready = time.perf_counter()
        k_after = cal.measure()
        setup_raw = t_ready - T_START - harness_s
        setup_s = setup_raw * cal.reference / (0.5 * (k_before + k_after))

        return _measure(args, cal, requests, k_after, setup_raw, setup_s)
    finally:
        cal.close()
        shutil.rmtree(docdir, ignore_errors=True)


def _measure(args, cal, requests, k_prev, setup_raw, setup_s):
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    min_rounds = 2 if args.trace else max(MIN_ROUNDS, math.ceil(MIN_SAMPLES / len(requests)))
    samples = []     # one dict per completed request
    factors = []     # host-speed factor per request serial
    attempted = failed = wrong = 0
    first_outputs = {}
    block = []       # (serial, round index, request, output, raw duration)
    block_raw = 0.0
    rounds = 0
    t_loop = time.perf_counter()

    def close_block():
        # blocks never span two rounds, so `rounds` and `traced` are theirs
        nonlocal k_prev, block_raw, failed, wrong
        k_now = cal.measure()
        factor = cal.reference / (0.5 * (k_prev + k_now))
        k_prev = k_now
        for serial, idx, req, out, raw in block:
            factors[serial] = factor
            if isinstance(out, BaseException):
                continue
            work, reason = req.check(out)
            if reason is not None:
                failed += 1
                wrong += 1
                print(f"wrong output: {req.name}: {reason}", file=sys.stderr)
                continue
            samples.append({
                "raw": raw, "corrected": raw * factor, "work": work,
                "unit_nodes": req.unit_nodes, "traced": traced, "round": rounds,
                "index": idx,
            })
        block.clear()
        block_raw = 0.0

    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for idx, req in enumerate(requests):
                serial = len(factors)
                factors.append(None)
                if traced:
                    tracer.request = serial
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out = req.run()
                except Exception as err:  # a failing request is counted, not fatal
                    out = err
                    failed += 1
                    print(f"request failed: {req.name}: {err!r}", file=sys.stderr)
                raw = time.perf_counter() - t0
                if rounds == 0:
                    first_outputs[idx] = out
                block.append((serial, idx, req, out, raw))
                block_raw += raw
                if block_raw >= BLOCK_S:
                    close_block()
        finally:
            if traced:
                tracer.uninstall()
        if block:
            close_block()
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() - t_loop >= args.seconds \
                and (not args.trace or rounds % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.workload == "falsify":
        reason = workloads.falsify_worker_check(requests, first_outputs)
        if reason is not None:
            failed += 1
            wrong += 1
            print(f"wrong output: {reason}", file=sys.stderr)

    timed = [s for s in samples if not s["traced"]]
    raw = {name: v for name, (v, _) in _throughput_metrics(timed, "raw", args.workload).items()}
    raw.update(setup_s=setup_raw, peak_rss_mb=peak_rss_mb)
    print(json.dumps({
        "raw": raw,
        "host": {
            "kernel_ms_median": statistics.median(cal.times) * 1e3,
            "reference_ms": cal.reference * 1e3,
            "rounds": rounds,
            "samples": len(timed),
        },
    }))

    if args.trace:
        metrics, consistent = _layer_metrics(args, tracer, factors, samples)
        if not consistent:
            wrong += 1
    else:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
        metrics.update(_throughput_metrics(timed, "corrected", args.workload))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _layer_metrics(args, tracer, factors, samples):
    """Per-layer metrics per traced round, the tracing overhead, and
    whether the counts reached by independent paths agree."""
    table = tracer.layer_table(factors)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"), table)

    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    n_rounds = len({s["round"] for s in traced}) or 1
    overhead = 100.0 * (sum(s["corrected"] for s in traced)
                        / sum(s["corrected"] for s in plain) - 1.0)
    counts = tracer.counts

    def per_round(v):
        return v / n_rounds

    m = {}
    for name, row in table.items():
        m[f"{name}.calls"] = (per_round(row["calls"]), "count")
        m[f"{name}.ms"] = (per_round(row["ms"]), "ms")
    m["formcheck.FormEvaluator.init_ms"] = m.pop("formcheck.FormEvaluator.init.ms")
    m["formcheck.FormEvaluator.init_calls"] = m.pop("formcheck.FormEvaluator.init.calls")
    for name in ("formcheck.falsify", "semigroup.evolve", "cli.main"):
        m[f"{name}.self_ms"] = (per_round(table[name]["self_ms"]), "ms")
    m["coeffspec.sample_operator.points"] = (per_round(counts["coeffspec.sample_operator.points"]), "count")
    m["semigroup.discretize.nnz"] = (per_round(counts["semigroup.discretize.nnz"]), "count")
    m["semigroup.splu.fill_nnz"] = (per_round(counts["semigroup.splu.fill_nnz"]), "count")
    m["report.render_report.bytes"] = (per_round(counts["report.render_report.bytes"]), "bytes")
    lam_calls = table["pointwise.lambda_of"]["calls"]
    m["pointwise.lambda_of.tests_per_call"] = (
        counts["pointwise.lambda_of.tests"] / lam_calls if lam_calls else 0.0, "tests/call")

    evaluations = sum(s["work"] for s in traced) if args.workload == "falsify" else 0
    evolves = len(traced) if args.workload == "evolve" else 0
    m["falsify.evaluations"] = (per_round(evaluations), "count")
    m["evolve.requests"] = (per_round(evolves), "count")
    m["trace.overhead_pct"] = (overhead, "%")
    m["trace.spans"] = (per_round(len(tracer.spans)), "count")

    consistent = True
    if table["formcheck.value"]["calls"] != evaluations:
        print(f"inconsistent: formcheck.value calls {table['formcheck.value']['calls']}"
              f" != falsifier evaluations {evaluations}", file=sys.stderr)
        consistent = False
    if table["semigroup.splu"]["calls"] != evolves:
        print(f"inconsistent: semigroup.splu calls {table['semigroup.splu']['calls']}"
              f" != evolve requests {evolves}", file=sys.stderr)
        consistent = False
    return m, consistent


if __name__ == "__main__":
    sys.exit(main())
