#!/usr/bin/env python3
"""treesnake benchmark: three pipeline workloads, timed end to end or traced.

Run from the root of a checkout; the program is imported from ./src:

    python3 perfbench/run.py --workload quad-n500 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload quad-n500 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

One op is one pipeline call; op k draws its inputs from (seed, k).  Every op
result is checked; an op fails on an exception, a disallowed exit status or a
failed check.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  perfbench/NOTES.md explains the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

SETUP_PROBES = 5  # setup_s is the median over this many fresh processes
RSS_PROBE_OPS = 2  # full-size ops in the process that measures peak_rss_mb
MIN_OPS = 3  # timed ops per end-to-end run, however short --seconds is
MIN_TRACE_OPS = 2  # untraced and traced ops each, per traced run

# A correct sampler gives KS around 0.04 (same law) to 0.08 (the finite-size
# gap at the seed commit) with 1000 samples a side; 0.5 only arises from a
# broken sampler, such as a lost n^(1/4) or kappa scale factor.
KS_SANITY = 0.5


if not (SRC / "treesnake" / "__init__.py").is_file():
    sys.exit(f"error: no treesnake sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import treesnake as ts  # noqa: E402
import treesnake.cli  # noqa: E402,F401
import treesnake.quadmap  # noqa: E402,F401

if Path(ts.__file__).resolve().parent != SRC / "treesnake":
    sys.exit(f"error: imported treesnake from {ts.__file__}, not {SRC}")


def op_seed(seed: int, k: int) -> int:
    """Integer seed of op k, derived from the run seed and k alone."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _cli(argv: list[str]) -> dict:
    """Run the CLI in-process through the module attribute, capturing stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ts.cli.run(argv)
    return {"argv": argv, "rc": rc, "stdout": buf.getvalue()}


def _parse(res: dict, problems: list[str]):
    try:
        return json.loads(res["stdout"])
    except ValueError as exc:
        problems.append(f"{' '.join(res['argv'][:3])}: report does not parse: {exc}")
        return None


# -- range-n2000 -------------------------------------------------------------

RANGE_SAMPLES = 1000


def _range_argv(n: int, grid: int, samples: int, seed: int) -> list[str]:
    return ["compare", "--discrete-n", str(n), "--grid", str(grid),
            "--samples", str(samples), "--seed", str(seed)]


def range_op(seed: int, k: int) -> dict:
    return _cli(_range_argv(2000, 4096, RANGE_SAMPLES, op_seed(seed, k)))


def range_check(res: dict) -> list[str]:
    problems: list[str] = []
    if res["rc"] not in (0, 1):  # 1 is the red KS verdict of criterion 07
        problems.append(f"exit status {res['rc']}")
    report = _parse(res, problems)
    if report is None:
        return problems
    if report.get("n_a") != RANGE_SAMPLES or report.get("n_b") != RANGE_SAMPLES:
        problems.append(f"sample counts {report.get('n_a')}, {report.get('n_b')}")
    stat = report.get("statistic")
    if not isinstance(stat, float) or not 0.0 <= stat <= KS_SANITY:
        problems.append(f"KS statistic {stat!r} outside [0, {KS_SANITY}]")
    if report.get("pass") is not (res["rc"] == 0):
        problems.append("verdict disagrees with the exit status")
    return problems


def range_warm() -> None:
    _cli(_range_argv(50, 64, 20, 0))


def _corrupt_range(res: dict) -> list[dict]:
    report = json.loads(res["stdout"])

    def with_report(**changes):
        return dict(res, stdout=json.dumps({**report, **changes}))
    return [
        dict(res, rc=2),
        dict(res, stdout=res["stdout"][:-10]),
        with_report(n_a=RANGE_SAMPLES - 1),
        with_report(statistic=KS_SANITY + 0.25),
        with_report(statistic=-0.01),
        with_report(**{"pass": not report["pass"]}),
    ]


# -- quad-n500 ---------------------------------------------------------------

QUAD_N = 500
QUAD_MAPS = 100


def quad_op(seed: int, k: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    radii, dists, attempts = ts.quadmap.sample_radius_and_distance(QUAD_N, QUAD_MAPS, rng)
    return {"radii": radii, "dists": dists, "attempts": attempts}


def quad_check(res: dict) -> list[str]:
    problems: list[str] = []
    radii, dists = np.asarray(res["radii"]), np.asarray(res["dists"])
    if radii.shape != (QUAD_MAPS,) or dists.shape != (QUAD_MAPS,):
        return [f"shapes {radii.shape}, {dists.shape}, want ({QUAD_MAPS},)"]
    bad = ~((1 <= dists) & (dists <= radii) & (radii <= QUAD_N + 1))
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"map {i}: distance {dists[i]}, radius {radii[i]}, n {QUAD_N}")
    if not res["attempts"] >= QUAD_MAPS:
        problems.append(f"{res['attempts']} attempts for {QUAD_MAPS} maps")
    return problems


def quad_warm() -> None:
    ts.quadmap.sample_radius_and_distance(20, 2, np.random.default_rng(0))


def _corrupt_quad(res: dict) -> list[dict]:
    def with_item(key, i, value):
        arr = np.array(res[key])
        arr[i] = value
        return dict(res, **{key: arr})
    return [
        with_item("dists", 0, 0),
        with_item("dists", 1, res["radii"][1] + 1),
        with_item("radii", 2, QUAD_N + 2),
        dict(res, radii=res["radii"][:-1]),
        dict(res, attempts=QUAD_MAPS - 1),
    ]


# -- exact-n5 ----------------------------------------------------------------

EXACT_CALLS = (
    ["verify", "--identity", "reroot", "--n", "5"],
    ["verify", "--identity", "reroot-closed", "--n", "5"],
    ["verify", "--identity", "quad", "--n", "5"],
    ["verify", "--identity", "census", "--n", "6"],
)
EXACT_TERMS = 3**5 * 14  # labelled single-child-root trees with 5 edges: 3^5 Cat(4)
EXACT_CHECKED = 2916  # well-labelled trees with 5 edges
EXACT_ITEMS = 2 * EXACT_TERMS + EXACT_CHECKED


def exact_op(seed: int, k: int) -> list[dict]:
    return [_cli(list(argv)) for argv in EXACT_CALLS]


def exact_check(results: list[dict]) -> list[str]:
    problems: list[str] = []
    if [r["argv"] for r in results] != [list(a) for a in EXACT_CALLS]:
        return ["wrong calls"]
    for res in results:
        what = res["argv"][2]
        if res["rc"] != 0:
            problems.append(f"{what}: exit status {res['rc']}")
        report = _parse(res, problems)
        if report is None:
            continue
        if report.get("equal") is not True:
            problems.append(f"{what}: equal is {report.get('equal')!r}")
        if what.startswith("reroot") and report.get("terms") != EXACT_TERMS:
            problems.append(f"{what}: {report.get('terms')} terms, want {EXACT_TERMS}")
        if what == "quad" and report.get("checked") != EXACT_CHECKED:
            problems.append(f"quad: {report.get('checked')} checked, want {EXACT_CHECKED}")
    return problems


def exact_warm() -> None:
    for argv in EXACT_CALLS:
        _cli(argv[:-1] + ["2"])


def _corrupt_exact(results: list[dict]) -> list[dict]:
    def with_report(i, **changes):
        out = copy.deepcopy(results)
        out[i]["stdout"] = json.dumps({**json.loads(out[i]["stdout"]), **changes})
        return out
    failed = copy.deepcopy(results)
    failed[3]["rc"] = 1
    return [
        with_report(0, equal=False),
        with_report(1, terms=EXACT_TERMS - 1),
        with_report(2, checked=EXACT_CHECKED + 1),
        with_report(3, equal=False),
        failed,
        results[:3],
    ]


# -- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    items_per_op: int
    op: Callable
    check: Callable
    warm: Callable
    corrupt: Callable  # a correct result -> results the check must reject
    accept_exact: float = 0.0  # exact positivity acceptance 2/(n+2), if conditioned


WORKLOADS = {
    w.name: w
    for w in (
        Workload("range-n2000", 2 * RANGE_SAMPLES, range_op, range_check,
                 range_warm, _corrupt_range),
        Workload("quad-n500", QUAD_MAPS, quad_op, quad_check, quad_warm,
                 _corrupt_quad, accept_exact=2 / (QUAD_N + 2)),
        Workload("exact-n5", EXACT_ITEMS, exact_op, exact_check, exact_warm,
                 _corrupt_exact),
    )
}

# Counters recorded at span boundaries: span name -> fn(arguments, result).
HOOKS = {
    "gw_sampler.sample_label_extrema": lambda a, r: {"trees": a["samples"]},
    "gw_sampler.sample_conditioned_batch": lambda a, r: {
        "trees": r[1], "conditioned_attempts": r[1], "accepted": len(r[0])},
    "snake_limit.sample_extrema": lambda a, r: {
        "snakes": a["count"], "grid_steps": a["m"] * a["count"]},
    "exact_enum.labelled_atoms": lambda a, r: {"atoms": 1},
}


# -- host speed --------------------------------------------------------------
#
# On a shared 2-CPU host the same pure-Python op takes from 1.6 to 3.3
# seconds depending on the minute, and one CPU can run a third slower than
# the other.  So the process pins itself to its faster CPU, and every time
# metric, set-up included, is scaled to a nominal host: a fixed pure-Python
# loop is timed on the same CPU before and after each op, and the op's
# seconds are multiplied by REF_NOMINAL_S over the loop's mean time.  This
# cut the run-to-run spread of op_p50_s on exact-n5 from about 0.15 to 0.05
# and on quad-n500 from 0.15 to 0.05; on the numpy-heavy range-n2000, whose
# raw times drift less, it widened it from 0.04 to 0.09.  Raw seconds are
# printed beside the scaled ones.

REF_NOMINAL_S = 0.015  # the loop's time on a quiet core of the baseline machine


def _spin() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return perf_counter() - t0


def ref_seconds() -> float:
    """Fastest of three runs of the reference loop: the host's current speed."""
    return min(_spin() for _ in range(3))


def pin_to_fastest_cpu() -> None:
    """Pin this process, and the processes it starts, to its fastest CPU."""
    speed = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = statistics.median(ref_seconds() for _ in range(3))
    best = min(speed, key=speed.__getitem__)
    os.sched_setaffinity(0, {best})
    print(f"pinned to cpu {best}; reference loop seconds by cpu "
          f"{ {c: round(t, 4) for c, t in speed.items()} }")


# -- running ops -------------------------------------------------------------

@dataclass
class OpStats:
    ops: list = field(default_factory=list)  # op id of each timed op
    raw: list = field(default_factory=list)  # its wall seconds
    scale: list = field(default_factory=list)  # its host-speed scale factor
    attempted: int = 0
    failed: int = 0

    @property
    def scaled(self) -> list:
        return [r * s for r, s in zip(self.raw, self.scale)]


def run_ops(op, check, seed: int, seconds: float, min_ops: int, call=None) -> OpStats:
    """Run op(seed, k) for k = 0, 1, ... until seconds pass and min_ops are done.

    call(k, op, seed, k) wraps each op (the tracer's run_op); the check and
    the reference loop run outside the timed region.
    """
    stats = OpStats()
    start = perf_counter()
    ref = ref_seconds()
    k = 0
    while k < min_ops or perf_counter() - start < seconds:
        raw = None
        try:
            t0 = perf_counter()
            result = call(k, op, seed, k) if call else op(seed, k)
            raw = perf_counter() - t0
            problems = check(result)
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc()
            problems = ["raised"]
        ref_after = ref_seconds()
        if raw is not None:
            stats.ops.append(k)
            stats.raw.append(raw)
            stats.scale.append(2 * REF_NOMINAL_S / (ref + ref_after))
        ref = ref_after
        stats.attempted += 1
        if problems:
            stats.failed += 1
            print(f"op {k} failed: {'; '.join(problems)}", file=sys.stderr)
        k += 1
    return stats


# glibc raises its mmap threshold when a large block is freed, and from then
# on keeps freed blocks of up to 32 MB in its heap.  Whether such a block is
# reused or the heap grows instead depends on the data: on range-n2000 the
# peak RSS jumps by one (1000, 4096) float64 array, 31 MB, at the second,
# third or a later op, depending on the seed.  A fixed threshold returns
# every block above it to the system when it is freed, so the peak follows
# the arrays that are live at once.  Only the probe process gets it; the
# timed ops run with the default allocator.
RSS_PROBE_ENV = {"MALLOC_MMAP_THRESHOLD_": str(256 * 1024)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_peak_rss(workload: str, seed: int) -> dict:
    """Peak RSS of a fresh process that runs ops 0 .. RSS_PROBE_OPS-1 only."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--rss-probe", workload,
         "--seed", str(seed)],
        cwd=ROOT, env={**os.environ, **RSS_PROBE_ENV}, capture_output=True,
        text=True, timeout=150, check=True,
    )
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def rss_probe(wl: Workload, seed: int) -> dict:
    wl.warm()
    stats = run_ops(wl.op, wl.check, seed, 0, RSS_PROBE_OPS)
    return {"peak_rss_mb": peak_rss_mb(), "attempted": stats.attempted,
            "failed": stats.failed}


def measure_setup(workload: str) -> tuple[list, list]:
    """Raw and scaled seconds from process start to ready-for-the-first-op."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        ref = ref_seconds()
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        raw.append(float(proc.stdout.split()[-1]) - t0)
        scaled.append(raw[-1] * 2 * REF_NOMINAL_S / (ref + ref_seconds()))
    return raw, scaled


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, seed: int, seconds: float) -> dict:
    setup_raw, setup = measure_setup(wl.name)
    start = perf_counter()  # the RSS probe and the timed ops share the seconds
    rss = measure_peak_rss(wl.name, seed)
    wl.warm()
    stats = run_ops(wl.op, wl.check, seed, seconds - (perf_counter() - start), MIN_OPS)
    op_p50 = statistics.median(stats.scaled)
    print(f"{wl.name}: {stats.attempted} ops, {stats.failed} failed; raw op seconds "
          f"{[round(t, 3) for t in stats.raw]}, scale {[round(s, 3) for s in stats.scale]}; "
          f"raw setup seconds {[round(t, 3) for t in setup_raw]}; peak RSS "
          f"{rss['peak_rss_mb']:.2f} MB in the probe, {peak_rss_mb():.2f} MB here")
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "items_per_s": metric(wl.items_per_op / op_p50, "1/s"),
        "op_p50_s": metric(op_p50, "s"),
        "peak_rss_mb": metric(rss["peak_rss_mb"], "MB"),
    }
    attempted = stats.attempted + rss["attempted"]
    failed = stats.failed + rss["failed"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(wl: Workload, seed: int, seconds: float) -> dict:
    from tracing import Tracer, summarize

    wl.warm()
    plain = run_ops(wl.op, wl.check, seed, seconds / 2, MIN_TRACE_OPS)
    tracer = Tracer(HOOKS)
    tracer.install()
    try:
        stats = run_ops(wl.op, wl.check, seed, seconds / 2, MIN_TRACE_OPS,
                        call=tracer.run_op)
        # Op 0 once more: its counts must repeat exactly.
        repeat = run_ops(lambda s, _k: wl.op(s, 0), wl.check, seed, 0, 1,
                         call=lambda _k, *a: tracer.run_op("repeat", *a))
    finally:
        tracer.uninstall()
    tracer.write(SPAN_DIR / f"spans-{wl.name}.jsonl")

    per_op = summarize(tracer.spans)
    n = max(len(stats.ops), 1)
    layer, by_name, calls, made = Counter(), Counter(), Counter(), Counter()
    op_wall = 0.0
    for k, scale in zip(stats.ops, stats.scale):
        layer.update({key: t * scale for key, t in per_op[k].layer.items()})
        by_name.update({key: t * scale for key, t in per_op[k].name.items()})
        calls.update(per_op[k].calls)
        made.update(tracer.counts[k])
        op_wall += per_op[k].wall * scale

    def counts_of(op_id) -> dict:
        c, hooked = per_op[op_id].calls, tracer.counts[op_id]
        return {
            "gw_sampler.trees": hooked["trees"],
            "snake_limit.snakes": hooked["snakes"],
            "quadmap.cvs_build_calls": c["quadmap.cvs_build"],
            "exact_enum.atoms": hooked["atoms"],
            "spatial_tree.reroot_calls": c["spatial_tree.reroot_at"],
            "plane_tree.calls": sum(v for k, v in c.items() if k.startswith("plane_tree.")),
        }

    first, again = counts_of(0), counts_of("repeat")
    repeats = first == again
    if not repeats:
        print(f"counts of op 0 did not repeat: {first} then {again}", file=sys.stderr)

    cvs = by_name["quadmap.cvs_build"]
    inv = by_name["quadmap.cvs_inverse"]
    ks = by_name["snake_limit.ks_report"] + by_name["snake_limit.ks_two_sample"]
    accounted = sum(v for key, v in layer.items() if key != "bench")
    overhead = statistics.median(stats.scaled) / statistics.median(plain.scaled) - 1
    values = {
        "gw_sampler.self_s": (layer["gw_sampler"] / n, "s"),
        "gw_sampler.trees": (first["gw_sampler.trees"], "count"),
        "gw_sampler.trees_per_s": (_ratio(made["trees"], layer["gw_sampler"]), "1/s"),
        "gw_sampler.accept_ratio": (
            _ratio(made["accepted"], made["conditioned_attempts"]), "ratio"),
        "snake_limit.self_s": (layer["snake_limit"] / n, "s"),
        "snake_limit.snakes": (first["snake_limit.snakes"], "count"),
        "snake_limit.grid_steps_per_s": (
            _ratio(made["grid_steps"], by_name["snake_limit.sample_extrema"]), "1/s"),
        "snake_limit.ks_s": (ks / n, "s"),
        "quadmap.cvs_build_s": (cvs / n, "s"),
        "quadmap.cvs_build_calls": (first["quadmap.cvs_build_calls"], "count"),
        "quadmap.cvs_inverse_s": (inv / n, "s"),
        "quadmap.self_s": ((layer["quadmap"] - cvs - inv) / n, "s"),
        "quadmap.maps_per_s": (_ratio(calls["quadmap.cvs_build"], layer["quadmap"]), "1/s"),
        "exact_enum.self_s": (layer["exact_enum"] / n, "s"),
        "exact_enum.atoms": (first["exact_enum.atoms"], "count"),
        "exact_enum.atoms_per_s": (_ratio(made["atoms"], layer["exact_enum"]), "1/s"),
        "spatial_tree.self_s": (layer["spatial_tree"] / n, "s"),
        "spatial_tree.reroot_s": (by_name["spatial_tree.reroot_at"] / n, "s"),
        "spatial_tree.reroot_calls": (first["spatial_tree.reroot_calls"], "count"),
        "plane_tree.self_s": (layer["plane_tree"] / n, "s"),
        "plane_tree.calls": (first["plane_tree.calls"], "count"),
        "cli.self_s": (layer["cli"] / n, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.accounted_ratio": (_ratio(accounted, op_wall), "ratio"),
    }
    other = sorted(set(layer) - {key.split(".")[0] for key in values} - {"bench"})
    print(f"{wl.name}: {plain.attempted} untraced and {stats.attempted} traced ops, "
          f"{len(tracer.spans)} spans; op 0 counts {first}")
    if other:
        print(f"layers outside the metric list: {other}")
    if made["conditioned_attempts"]:
        print(f"gw_sampler.accept_ratio {values['gw_sampler.accept_ratio'][0]:.6f} "
              f"beside exact 2/(n+2) = {wl.accept_exact:.6f}")
    attempted = plain.attempted + stats.attempted + repeat.attempted
    failed = plain.failed + stats.failed + repeat.failed
    return {"correct": failed == 0 and repeats, "attempted": attempted,
            "failed": failed,
            "metrics": {key: metric(v, u) for key, (v, u) in values.items()}}


# -- entry point -------------------------------------------------------------

def self_test() -> int:
    """Check the tracer, the self-time arithmetic, and that every checker
    accepts a real op result and counts corrupted ones as failed ops."""
    from tracing import Tracer, self_times

    errors = []
    original = ts.cli.run
    tracer = Tracer()
    tracer.install()
    wrapped = ts.cli.run is not original
    tracer.uninstall()
    if not wrapped or ts.cli.run is not original:
        errors.append("the tracer did not wrap and then restore treesnake.cli.run")
    spans = [["bench.op", 0.0, 10.0, -1, 0], ["a.f", 2.0, 5.0, 0, 0],
             ["b.g", 3.0, 4.0, 1, 0], ["a.h", 6.0, 8.0, 0, 0]]
    if self_times(spans) != [5.0, 2.0, 1.0, 2.0]:
        errors.append(f"self times {self_times(spans)}")

    def boom(seed, k):
        raise RuntimeError("op raised")
    if run_ops(boom, lambda r: [], 0, 0, 1).failed != 1:
        errors.append("a raising op was not counted as failed")
    for wl in WORKLOADS.values():
        good = wl.op(0, 0)
        if wl.check(good):
            errors.append(f"{wl.name}: a real result failed: {wl.check(good)}")
        for i, bad in enumerate(wl.corrupt(good)):
            if run_ops(lambda s, k: bad, wl.check, 0, 0, 1).failed != 1:
                errors.append(f"{wl.name}: corruption {i} was not counted as failed")
        print(f"{wl.name}: checker accepts op 0 and rejects {len(wl.corrupt(good))} corruptions")
    for e in errors:
        print(f"self-test: {e}", file=sys.stderr)
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    p.add_argument("--rss-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        WORKLOADS[args.setup_probe].warm()
        print(repr(time.time()))
        return 0
    if args.rss_probe:
        print(json.dumps(rss_probe(WORKLOADS[args.rss_probe], args.seed)))
        return 0
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    pin_to_fastest_cpu()
    run = traced if args.trace else end_to_end
    print(json.dumps(run(WORKLOADS[args.workload], args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
