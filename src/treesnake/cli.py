"""Command-line front end for the samplers, verifiers, and comparisons.

Every randomized subcommand takes an explicit --seed so that a run is
fully determined by its flags; there is no wall-clock fallback.  `sample`
and `quad` cut the sample budget into blocks of SAMPLE_BLOCK draws, block
k drawing from child k of SeedSequence(seed); `snake` draws from child 0
of the seed, and `compare` its trees from child 0 and its snakes from
child 1.  Everything runs in one process.  Timing lives only in the
manifest printed to stdout, never in the files written to --out.

A `sample` block is one sample_measure call: the sized measures draw the
whole block through the row kernel, the unsized ones cut it from one count
stream.  Its flat count and label arrays become CSV text at most
_BLOCK_ENTRIES values at a time (_joined), each root printed as the
integer given.  Which measures need --n, and the least n each takes, is
gw_sampler's SIZED_MEASURES; the others take no --n.  Only P-x, P-n-x and
Pbar-n-x take --x (default 0, at most 2^62 either way), and the unlabelled
Pi and Pi-n take only --gamma uniform3.  An --out path is checked before
any subcommand starts: its directory must exist and be writable, and it
must not be a directory.

Exit status: 0 when the requested checks pass (or a pure sampling run
completes), 1 when a verification or comparison fails, a sampler runs out
of its rejection budget or a size or sample count passes plane_tree's
MAX_VERTICES (checked before the rows are allocated; `verify` checks the
closed-form count of what it would enumerate before it starts, against 10^6
maps, atoms or shapes for quad, the re-rooting forms and the census, which
stops at --n 12), 2 for usage errors and inputs outside a sampler's domain.
Those errors print one line; any other exception keeps its traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from treesnake.exact_enum import (
    UnreachableSizeError,
    count_well_labelled,
    verify_reroot_identity,
    verify_reroot_identity_closed,
    verify_size_law,
)
from treesnake.gw_sampler import (
    MEASURES,
    NegativeRootLabel,
    OffspringDistribution,
    RejectionBudgetExhausted,
    SIZED_MEASURES,
    SizeOverflow,
    StepDistribution,
    UnreachableSize,
    sample_label_extrema,
    sample_measure,
    spawn_rngs,
)
from treesnake.plane_tree import _BLOCK_ENTRIES, MAX_VERTICES, tree_to_line
from treesnake.quadmap import (
    NotWellLabelled,
    canonical_code,
    cvs_build,
    cvs_inverse,
    distances,
    enumerate_well_labelled,
    sample_uniform_quads,
)
from treesnake.snake_limit import ks_report, sample_extrema, samples_csv, to_lattice

KS_THRESHOLD = 0.05

# Draws per RNG block of `sample` and `quad`; changing it changes their output.
SAMPLE_BLOCK = 256

# The largest |--x|: a tree has at most MAX_VERTICES vertices and the integer
# steps move a label by at most 1, so every label stays inside int64.
_MAX_ROOT_LABEL = 2**62


class UsageError(ValueError):
    """Bad parameter combination caught before any work starts."""


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run and find what it wrote."""

    subcommand: str
    config: dict
    seed: int | None
    outputs: tuple[str, ...]
    elapsed_seconds: float


def _print_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2, default=str))


def _offspring(name: str) -> OffspringDistribution:
    if name != "geometric":
        raise UsageError(f"unknown offspring law {name!r}")
    return OffspringDistribution.geometric_half()


def _step(name: str) -> StepDistribution:
    if name == "uniform3":
        return StepDistribution.uniform3()
    if name == "pm1":
        return StepDistribution.uniform_pm1()
    if name == "normal":
        return StepDistribution.normal()
    raise UsageError(f"unknown step law {name!r}")


def _check_samples(total: int) -> None:
    # before anything is allocated; every sample has at least one vertex
    if total < 1:
        raise UsageError("need a positive sample count")
    if total > MAX_VERTICES:
        raise SizeOverflow(f"{total} samples exceed the budget of {MAX_VERTICES}")


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _run_blocks(fn, args, total: int, seed: int) -> list:
    """fn(*args, size, seed_sequence) for each block of the budget, in order.

    Block k gets child k of SeedSequence(seed).
    """
    _check_samples(total)
    sizes = [min(SAMPLE_BLOCK, total - s) for s in range(0, total, SAMPLE_BLOCK)]
    seqs = np.random.SeedSequence(seed).spawn(len(sizes))
    return [fn(*args, size, seq) for size, seq in zip(sizes, seqs)]


def _check_out(path: str) -> None:
    """--out must name a file, not a directory, in a writable directory."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise UsageError(f"--out {path} is a directory")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise UsageError(f"--out {path} is not in a writable directory")


def _write_text(path: str, *chunks: str) -> None:
    with open(path, "w") as fh:
        fh.writelines(chunks)


def _finish(args, subcommand: str, config: dict, artifact: list[str], t0: float,
            summary: dict | None = None) -> None:
    """Route the data artifact, its text chunks in order, and print the manifest.

    The artifact goes to --out when given, otherwise to stdout; the
    manifest (with timing, hence never byte-stable) is printed only when
    the artifact went to a file, keeping stdout single-purpose.
    """
    outputs = ()
    if args.out:
        _write_text(args.out, *artifact)
        outputs = (args.out,)
    else:
        sys.stdout.writelines(artifact)
    manifest = RunManifest(
        subcommand, config, getattr(args, "seed", None), outputs,
        time.perf_counter() - t0,
    )
    if args.out:
        payload = {"manifest": asdict(manifest)}
        if summary:
            payload["summary"] = summary
        _print_json(payload)


def _joined(values: np.ndarray, starts: np.ndarray, sep: str) -> Iterator[str]:
    """Each tree's values as text joined by sep, tree i taking values
    starts[i] to starts[i + 1], its root printed as an integer.

    The values are turned into Python objects one chunk of at most
    _BLOCK_ENTRIES at a time, each chunk starting where the last one ended.
    """
    bounds = starts.tolist()
    lo, chunk = 0, []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a == lo + len(chunk):  # the next chunk starts at this root
            lo, chunk = a, values[a : a + _BLOCK_ENTRIES].tolist()
        chunk[a - lo] = int(chunk[a - lo])  # a root label is set to the integer given
        text = sep.join(map(str, chunk[a - lo : b - lo]))
        while b > lo + len(chunk):  # the tree runs on into the next chunk
            lo += len(chunk)
            chunk = values[lo : lo + _BLOCK_ENTRIES].tolist()
            text += sep + sep.join(map(str, chunk[: b - lo]))
        yield text


def _sample_block(measure, mu, gamma, n, x, size: int, seq) -> tuple[str, str]:
    """The CSV header line and the CSV text of one block of `sample` draws."""
    counts, starts, labels = sample_measure(
        measure, mu, gamma, n, x, size, np.random.default_rng(seq))
    # tree_to_line's format, without PlaneTree's re-check of rows that the
    # samplers only ever draw as valid trees
    fields = [list(_joined(counts, starts, ","))]
    if labels is not None:
        fields.append(list(_joined(labels, starts, ";")))
    del counts, labels  # before the csv writer copies the fields
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(*fields))
    return "tree\n" if len(fields) == 1 else "tree,labels\n", buf.getvalue()


def _cmd_sample(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    least = SIZED_MEASURES.get(args.measure)
    if least is not None:
        if args.n is None:
            raise UsageError(f"measure {args.measure} needs --n")
        if args.n < least:
            raise UsageError(f"measure {args.measure} needs --n at least {least}")
    elif args.n is not None:
        raise UsageError(f"measure {args.measure} takes no --n")
    # --x is the root label of the P family; Pi has no labels, and Q is rooted at 0
    if args.x is not None and args.measure not in ("P-x", "P-n-x", "Pbar-n-x"):
        raise UsageError(f"measure {args.measure} takes no --x")
    if args.measure in ("Pi", "Pi-n") and args.gamma != "uniform3":
        raise UsageError(f"measure {args.measure} has no labels, so takes only --gamma uniform3")
    x = 0 if args.x is None else args.x
    if abs(x) > _MAX_ROOT_LABEL:
        raise UsageError(f"--x {x} is outside [-2^62, 2^62]")
    mu = _offspring(args.mu)
    gamma = _step(args.gamma)
    # every block is drawn before any is written, so a failed block leaves no file
    blocks = _run_blocks(
        _sample_block, (args.measure, mu, gamma, args.n, x), args.samples, args.seed
    )
    _finish(
        args, "sample",
        {"measure": args.measure, "n": args.n, "x": x, "mu": args.mu,
         "gamma": args.gamma, "samples": args.samples},
        [blocks[0][0], *(text for _, text in blocks)], t0, {"rows": args.samples},
    )
    return 0


def _census_report(n: int) -> dict:
    entries = []
    for k in range(1, n + 1):
        total, positive, ratio = count_well_labelled(k)
        want_total = 3**k * _catalan(k)
        entries.append(
            {
                "n": k,
                "labelled": total,
                "labelled_expected": want_total,
                "well_labelled": positive,
                "ratio": f"{ratio.numerator}/{ratio.denominator}",
                "ratio_expected": str(Fraction(2, k + 2)),
                "equal": total == want_total and ratio == Fraction(2, k + 2),
            }
        )
    return {
        "identity": "census",
        "n": n,
        "equal": all(e["equal"] for e in entries),
        "entries": entries,
    }


def _quad_battery_report(n: int) -> dict:
    checked = 0
    failures = []
    for wt in enumerate_well_labelled(n):
        try:
            q = cvs_build(wt)  # cvs_inverse validates it
            got = distances(q).counts
            want = {0: 1}  # the extra vertex, then one vertex per label
            for l in wt.labels:
                want[l] = want.get(l, 0) + 1
            back = cvs_inverse(q)
            if got != want or back.tree != wt.tree or back.labels != wt.labels:
                failures.append(tree_to_line(wt.tree))
        except Exception as exc:  # noqa: BLE001 - collect and report, don't stop the sweep
            failures.append(f"{tree_to_line(wt.tree)}: {exc}")
        checked += 1
    return {
        "identity": "quad",
        "n": n,
        "checked": checked,
        "failures": failures[:20],
        "equal": not failures,
    }


# what each identity enumerates, as the size budget counts it
_VERIFY_ITEMS = {"reroot": "atoms", "reroot-closed": "atoms", "size-law": "trees",
                 "census": "shapes", "quad": "maps"}
# the budgets below MAX_VERTICES: the battery builds, checks and inverts a
# map in about 55 us (quad --n 7, 208494 maps, 11 s), the re-rooting forms
# hold their measures in dicts at about 7 us an atom (reroot-closed --n 7,
# 288684 atoms, 2 s and 100 MB), and the census runs its label DP on a
# shape in 35 to 40 us at n = 11 (58786 shapes, 2.0 to 2.3 s); 10^6 items
# is under a minute
_VERIFY_CAPS = {"reroot": 10**6, "reroot-closed": 10**6, "quad": 10**6, "census": 10**6}


def _verify_items(identity: str, n: int, gamma: StepDistribution) -> int:
    """How many items verify enumerates at --n n, by closed form.

    The re-rooting identities run over the |support|^n Cat(n-1) labelled
    single-child-root trees with n edges, the quad battery over the
    2 3^n Cat(n)/(n+2) well-labelled trees with n edges (one map each),
    the census over the Cat(k) shapes with k = 1..n edges (one label DP
    each) and the size law over the trees with 1..n vertices.
    """
    if identity in ("reroot", "reroot-closed"):
        return len(gamma.support) ** n * _catalan(n - 1)
    if identity == "size-law":
        return sum(_catalan(k - 1) for k in range(1, n + 1))
    if identity == "census":
        return sum(_catalan(k) for k in range(1, n + 1))
    return 2 * 3**n * _catalan(n) // (n + 2)


def _check_verify_size(identity: str, n: int, gamma: StepDistribution) -> None:
    # the counts grow with n, so sizes are tried upwards and the first one
    # past the budget is named: the count at a huge --n is never computed
    cap = _VERIFY_CAPS.get(identity, MAX_VERTICES)
    for k in range(1, n + 1):
        items = _verify_items(identity, k, gamma)
        if items > cap:
            raise SizeOverflow(
                f"--n {n} passes the budget of {cap} "
                f"{_VERIFY_ITEMS[identity]} ({items} at --n {k})"
            )


def _cmd_verify(args: argparse.Namespace) -> int:
    mu = _offspring(args.mu)
    gamma = _step(args.gamma)
    if args.n < 1:
        raise UsageError("need --n at least 1")
    if args.identity in ("size-law", "census", "quad") and args.gamma != "uniform3":
        # the census and the battery are statements about steps in
        # {-1, 0, 1}, and the size law has no steps
        raise UsageError(f"identity {args.identity} takes only --gamma uniform3")
    _check_verify_size(args.identity, args.n, gamma)
    if args.identity == "reroot":
        report = verify_reroot_identity(args.n, mu, gamma)
    elif args.identity == "reroot-closed":
        report = verify_reroot_identity_closed(args.n, mu, gamma)
    elif args.identity == "size-law":
        report = verify_size_law(mu, args.n)
    elif args.identity == "census":
        report = _census_report(args.n)
    else:
        report = _quad_battery_report(args.n)
    text = json.dumps(report, indent=2, default=str) + "\n"
    if args.out:
        _write_text(args.out, text)
    sys.stdout.write(text)
    return 0 if report["equal"] else 1


def _quad_block(n: int, size: int, seq) -> Counter:
    """Canonical-code counts of one block of uniform quadrangulations."""
    rng = np.random.default_rng(seq)
    return Counter(canonical_code(q).decode() for q in sample_uniform_quads(n, size, rng))


def _cmd_quad(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.n < 1:
        raise UsageError("need --n at least 1")
    codes = sum(_run_blocks(_quad_block, (args.n,), args.samples, args.seed), Counter())

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("code", "count"))
    for code in sorted(codes):
        writer.writerow((code, codes[code]))
    _finish(
        args, "quad",
        {"n": args.n, "samples": args.samples},
        [buf.getvalue()], t0,
        {"distinct_codes": len(codes)},
    )
    return 0


def _cmd_snake(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.grid < 2:
        raise UsageError("need --grid at least 2")
    _check_samples(args.samples)
    sups, infs = sample_extrema(args.grid, args.samples, spawn_rngs(args.seed, 1)[0])
    ranges = sups - infs
    _finish(
        args, "snake",
        {"grid": args.grid, "samples": args.samples},
        [samples_csv(ranges)], t0,
        {"mean_range": float(ranges.mean()), "sd_range": float(ranges.std())},
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.discrete_n < 1 or args.grid < 2:
        raise UsageError("need --discrete-n at least 1 and --grid at least 2")
    _check_samples(args.samples)
    mu = _offspring(args.mu)
    gamma = _step("uniform3")
    kappa = math.sqrt(mu.sigma / 2.0) / gamma.rho
    tree_rng, snake_rng = spawn_rngs(args.seed, 2)

    # The label ranges are integers, so the continuum ranges are mapped onto
    # the same lattice before the KS: a raw KS of integers against a
    # continuous law is floored at half the largest point mass.
    mins, maxs = sample_label_extrema(mu, gamma, args.discrete_n, 0, args.samples, tree_rng)
    sups, infs = sample_extrema(args.grid, args.samples, snake_rng)
    cont = to_lattice((sups - infs) / kappa, args.discrete_n**0.25)

    report = ks_report(maxs - mins, cont, KS_THRESHOLD)
    report["discrete_n"] = args.discrete_n
    report["grid"] = args.grid
    text = json.dumps(report, indent=2, default=str) + "\n"
    if args.out:
        _write_text(args.out, text)
    sys.stdout.write(text)
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesnake",
        description="samplers and verifiers for labelled plane trees, "
        "quadrangulations, and the discretized Brownian snake",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="draw trees from one of the measure families")
    p.add_argument("--measure", choices=MEASURES, required=True)
    p.add_argument("--n", type=int, default=None, help="edge count for sized measures")
    p.add_argument("--x", type=int, default=None,
                   help="root label of P-x, P-n-x and Pbar-n-x (default 0)")
    p.add_argument("--mu", default="geometric", choices=["geometric"])
    p.add_argument("--gamma", default="uniform3", choices=["uniform3", "pm1", "normal"])
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="run an exact enumeration check")
    p.add_argument(
        "--identity",
        required=True,
        choices=["reroot", "reroot-closed", "size-law", "census", "quad"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", default="geometric", choices=["geometric"])
    p.add_argument("--gamma", default="uniform3", choices=["uniform3", "pm1"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "quad",
        help="sample uniform quadrangulations: the CVS bijection of exact "
        "Pbar-n-x draws at x = 1, the uniform well-labelled trees",
    )
    p.add_argument("--n", type=int, required=True, help="number of faces")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="frequency table CSV over canonical codes")
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("snake", help="sample the discretized snake's range")
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="single-column CSV of range samples")
    p.set_defaults(func=_cmd_snake)

    p = sub.add_parser("compare", help="KS comparison of tree labels vs snake head")
    p.add_argument("--discrete-n", type=int, required=True, dest="discrete_n")
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--mu", default="geometric", choices=["geometric"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # SeedSequence takes no negative entropy
            raise UsageError(f"need --seed at least 0, not {args.seed}")
        if args.out is not None:  # before any work, which a failed write would lose
            _check_out(args.out)
        return args.func(args)
    except (RejectionBudgetExhausted, SizeOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, NegativeRootLabel, NotWellLabelled, UnreachableSize,
            UnreachableSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
