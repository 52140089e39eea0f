"""Benchmark harness for sgp: one workload per run, end to end or traced.

    python3 bench/run.py --workload query_mix --seed 1 --seconds 35 --trace 0

``--workload all`` runs the three workloads in turn, each in its own
interpreter.

Runs ``sgp.cli.run(argv)`` in-process with stdout captured, repeating the
workload's fixed request list in rounds for ``--seconds`` seconds, then
checks every output against ``oracle.py`` outside the timed phase.  The
last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, their times at a reference host speed sampled by
``speed.py`` (the measured seconds are printed too and kept in the run
record); with ``--trace 1`` they are the per-layer ones, in measured
seconds, from a traced round recorded by ``spans.py``.  Both lists are
in BENCHMARK.json, and README.md maps them to the ROADMAP baseline rows.

Self-test of the harness's own pieces: ``python3 bench/selfcheck.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle as O
import spans as T
import speed
import verify
import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 9
# a traced round is budgeted at this many untraced rounds
TRACED_ROUND_COST = 3
WALK_REPS = 3

WARMUP = {
    "query_mix": [["info", "gens:4,7"], ["classify", "gens:4,6,17", "--N", "2"],
                  ["project", "gens:4,6,17", "--N", "2"], ["obstruct", "gens:4,6,17"],
                  ["bounds", "eval", "rho3", "2", "1"],
                  ["family", "buchweitz", "--params", "g=16", "i=4"]],
    # serial on both scan workloads: every scan request starts its own pool,
    # so a pool here would warm nothing and add only fork noise to setup_s
    **{w: [["scan", "--genus", "6..8", "--predicate", "obstruction",
            "--parallelism", "1"]] for w in W.SCAN_PARALLELISM},
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio", "setup_s": "s"}


@dataclass
class Round:
    """One pass over the request list.  Times are measured seconds with
    the speed sampler's handler time taken out; ``at`` holds each
    request's (start, end) for normalization."""
    start: float
    end: float
    wall: float
    cpu: float
    child_cpu: float
    latencies: list[float]
    at: list[tuple[float, float]]
    rcs: list
    outs: list[str]


@dataclass
class RefRound:
    """A Round's times at the reference host speed (see speed.py)."""
    wall: float
    cpu: float
    latencies: list[float]


def at_ref_speed(rnd: Round, sampler: speed.Sampler) -> RefRound:
    lat = [sampler.normalize(d, a, b) for d, (a, b) in zip(rnd.latencies, rnd.at)]
    # time between requests is harness overhead, scaled by the round's speed
    wall = sum(lat) + (rnd.wall - sum(rnd.latencies)) * sampler.factor(rnd.start, rnd.end)
    return RefRound(wall, rnd.cpu * sampler.factor(rnd.start, rnd.end, wall=False), lat)


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def import_sgp():
    """(Re)import sgp from this checkout's src/, never from elsewhere."""
    for name in [k for k in sys.modules if k == "sgp" or k.startswith("sgp.")]:
        del sys.modules[name]
    cli = importlib.import_module("sgp.cli")
    origin = Path(sys.modules["sgp"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"sgp imported from {origin}, not from {SRC}")
    return cli


def run_round(cli, requests, tracer=None, sampler=None) -> Round:
    def spent() -> float:
        return sampler.spent if sampler is not None else 0.0

    latencies, at, rcs, outs = [], [], [], []
    own0, kids0 = _cpu()
    spent0 = spent()
    start = time.perf_counter()
    for i, (_, argv) in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i
        out, err = io.StringIO(), io.StringIO()
        s0 = spent()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run(list(argv))
            except Exception as exc:  # a crash is one failed output, not the end of the run
                rc = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0 - (spent() - s0))
        at.append((t0, t1))
        rcs.append(rc)
        outs.append(out.getvalue())
    end = time.perf_counter()
    own1, kids1 = _cpu()
    handler = spent() - spent0
    return Round(start, end, end - start - handler, own1 - own0 + kids1 - kids0 - handler,
                 kids1 - kids0, latencies, at, rcs, outs)


def timed_rounds(cli, requests, seconds: float, sampler: speed.Sampler | None,
                 reserve: float = 0.0) -> list[Round]:
    """Rounds while the next one (plus ``reserve`` rounds) fits in ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, requests, sampler=sampler))
        last = rounds[-1]
        if time.perf_counter() - start + (last.end - last.start) * (1 + reserve) > seconds:
            return rounds


def walk_nodes(hi: int) -> tuple[int, float]:
    """Nodes of the genus tree up to ``hi`` and the median time per node."""
    core = sys.modules["sgp.core"]
    times = []
    for _ in range(WALK_REPS):
        t0 = time.perf_counter()
        nodes = sum(1 for _ in core.descendants(core.NumericalSemigroup(), hi))
        times.append(time.perf_counter() - t0)
    return nodes, statistics.median(times) / nodes


def check_rounds(requests, rounds, pinned) -> verify.Tally:
    total = verify.Tally()
    first: dict[int, tuple] = {}
    for rnd in rounds:
        for i, ((kind, argv), rc, out) in enumerate(zip(requests, rnd.rcs, rnd.outs)):
            if i in first and first[i][0] == (rc, out):
                total.add(first[i][1])
                continue
            tally = verify.check(kind, argv, rc, out, pinned)
            first.setdefault(i, ((rc, out), tally))
            total.add(tally)
    return total


def percentile_ms(rounds, q: int) -> float:
    """q-th percentile, in ms, over requests of each request's median latency."""
    per_request = [statistics.median(lat) for lat in zip(*(r.latencies for r in rounds))]
    if len(per_request) == 1:
        return per_request[0] * 1e3
    return statistics.quantiles(per_request, n=100, method="inclusive")[q - 1] * 1e3


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def run_record(args, requests, rounds, extra) -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "git_commit": _git_commit(),
            "requests_per_round": len(requests), "rounds": len(rounds), **extra}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def setup(workload: str, seed: int, sampler: speed.Sampler):
    """Import, input generation and warm-up, repeated.

    Returns the module, the requests and the median set-up time, in
    measured seconds and at the reference speed.
    """
    times, ref_times = [], []
    for _ in range(SETUP_REPS):
        s0 = sampler.spent
        t0 = time.perf_counter()
        cli = import_sgp()
        requests = W.make_requests(workload, seed)
        warm = run_round(cli, [("warmup", a) for a in WARMUP[workload]], sampler=sampler)
        t1 = time.perf_counter()
        times.append(t1 - t0 - (sampler.spent - s0))
        ref_times.append(sampler.normalize(times[-1], t0, t1))
        if any(rc != 0 for rc in warm.rcs):
            raise RuntimeError(f"warm-up failed: {warm.rcs}")
    return cli, requests, statistics.median(times), statistics.median(ref_times)


def time_values(rounds) -> dict[str, float]:
    """wall_s, cpu_s and the latency percentiles, as medians over rounds."""
    return {"wall_s": statistics.median(r.wall for r in rounds),
            "cpu_s": statistics.median(r.cpu for r in rounds),
            "req_p50_ms": percentile_ms(rounds, 50),
            "req_p90_ms": percentile_ms(rounds, 90)}


def end_to_end(ref_rounds, rss: float, pass_ratio: float, setup_s: float) -> dict:
    values = {**time_values(ref_rounds), "peak_rss_mb": rss,
              "pass_ratio": pass_ratio, "setup_s": setup_s}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced_run(cli, workload: str, requests, seconds: float, problems: list):
    """Untraced rounds, a direct tree walk, then one traced round.

    Returns (untraced rounds, traced round, peak RSS, per-layer metrics
    that do not depend on verification).
    """
    workers = W.SCAN_PARALLELISM.get(workload, 0)
    hi = W.SCAN_GENUS[1]
    t0 = time.perf_counter()
    nodes, s_per_node = walk_nodes(hi) if workers else (0, 0.0)
    if workers and nodes != sum(O.A007323[:hi + 1]):
        problems.append(f"walk to genus {hi} gave {nodes} nodes")
    rounds = timed_rounds(cli, requests, seconds - (time.perf_counter() - t0),
                          sampler=None, reserve=TRACED_ROUND_COST)
    rss = peak_rss_mb()
    tracer = T.Tracer()
    gc0 = gc_collections()
    tracer.install()
    try:
        traced = run_round(cli, requests, tracer)
    finally:
        tracer.uninstall()
    gc_count = gc_collections() - gc0
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload}.bin")
    if workers == 1:
        # each serial scan walks the whole tree up to hi from the root
        expected = len(requests) * (sum(O.A007323[:hi + 1]) - 1)
        if tracer.children_seen != expected:
            problems.append(f"traced walk saw {tracer.children_seen} children, "
                            f"expected {expected}")
    metrics = {}
    summary = tracer.summary()
    for name in T.SPAN_NAMES:
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    eff = [r.cpu / (r.wall * workers) for r in rounds] if workers else [0.0]
    wall_s = statistics.median(r.wall for r in rounds)
    metrics.update({
        "cli.scan.worker_cpu_s": (statistics.median(r.child_cpu for r in rounds), "s"),
        "cli.scan.parallel_eff": (statistics.median(eff), "ratio"),
        "core.walk.nodes": (nodes, "count"),
        "core.walk.us_per_node": (s_per_node * 1e6, "us"),
        "py.gc.collections": (gc_count, "count"),
        "trace.overhead_ratio": (traced.wall / wall_s, "ratio"),
    })
    return rounds, traced, rss, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sgp benchmark")
    parser.add_argument("--workload", choices=W.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one interpreter per workload, so peak RSS and set-up are its own
        return max([subprocess.run([sys.executable, __file__, "--workload", w,
                                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)]).returncode
                    for w in W.WORKLOADS])
    if not (SRC / "sgp" / "__init__.py").is_file():
        print(f"error: no sgp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pinned = O.load_pinned()
    # the sampler runs through set-up and the untraced timed phase only:
    # per-layer times are measured seconds, and spans must not hold its handler
    sampler = speed.Sampler()
    with sampler:
        cli, requests, raw_setup_s, setup_s = setup(args.workload, args.seed, sampler)
        if not args.trace:
            rounds = timed_rounds(cli, requests, args.seconds, sampler)
    problems: list[str] = []
    if args.trace:
        rounds, traced, rss, layers = traced_run(cli, args.workload, requests,
                                                 args.seconds, problems)
        checked = rounds + [traced]
    else:
        rss = peak_rss_mb()
        checked = rounds
        ref_rounds = [at_ref_speed(r, sampler) for r in rounds]

    tally = check_rounds(requests, checked, pinned)
    problems += tally.problems
    failed_ops = sum(rc != 0 for r in checked for rc in r.rcs)
    fail_ratio = tally.failed / tally.outputs
    if args.trace:
        layers["obstruction.not_weierstrass.count"] = (tally.verdicts // len(checked), "count")
        layers["obstruction.not_weierstrass.unsound"] = (tally.unsound // len(checked), "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = end_to_end(ref_rounds, rss, 1.0 - fail_ratio, setup_s)
    measured = {"setup_s": raw_setup_s, **time_values(rounds)}
    speed_factor = len(sampler.took) * speed.REF_SAMPLE_S / sum(sampler.took)

    record = run_record(args, requests, checked, {
        "outputs_per_round": tally.outputs // len(checked),
        "walk_nodes_per_scan": (sum(O.A007323[:W.SCAN_GENUS[1] + 1])
                                if args.workload in W.SCAN_PARALLELISM else 0),
        "latency_samples_per_round": len(requests),
        "failed_outputs": tally.failed, "checked_outputs": tally.outputs,
        "fail_ratio": fail_ratio, "not_weierstrass": tally.verdicts,
        "not_weierstrass_unsound": tally.unsound, "problems": problems[:5],
        "measured_seconds": measured, "speed_samples": len(sampler.took),
        "speed_factor": speed_factor})
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"requests/round={len(requests)} python={record['python']} nproc={record['nproc']}")
    print(f"# fail_ratio {fail_ratio:.6f} ratio ({tally.failed} of {tally.outputs} outputs; "
          f"{tally.unsound} unsound not_weierstrass of {tally.verdicts}, {tally.wrong} wrong)")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"# times above are at the reference host speed; this host ran at "
              f"{speed_factor:.3f} of it ({len(sampler.took)} samples); measured: "
              + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()))
    for problem in problems[:5]:
        print(f"# problem: {problem}")
    result = {"correct": failed_ops == 0 and not problems,
              "attempted": len(requests) * len(checked), "failed": failed_ops,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
