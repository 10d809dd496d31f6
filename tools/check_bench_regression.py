#!/usr/bin/env python3
"""Fail if a committed benchmark baseline regressed against a fresh run.

Usage::

    python tools/check_bench_regression.py COMMITTED.json FRESH.json

The gate dispatches on the ``benchmark`` field of the committed file
(both files must agree):

``explore-enumeration`` (BENCH_explore.json)
    Two checks.  The search counters of every entry (both walks at
    n=2..4, the deep n=6 walk) must equal the committed ones exactly:
    exploration is deterministic, so a different count is a different
    search -- a reduction that prunes less, or a lost branch -- and the
    file must be regenerated with the reason recorded.  And the DPOR
    walk's CPU time at n=4, in units of a calibration chunk that runs
    no ``repro`` code (``benchmarks/e2e/speed.py``), must not grow by
    more than the tolerance (default 15%, ``--tolerance 0.15``): the
    chunk measures the machine, so a slower runner passes and a slower
    explorer fails.

``epistemic-kernel`` (BENCH_kernel.json)
    Compares the columnar kernel's speedups over the naive reference at
    n=10 (``knows_speedup``, ``ck_speedup``).  Speedup ratios are
    machine-normalized by construction (naive and columnar rounds are
    interleaved on the same machine), so the 15% rule applies to the
    ratios directly.  Both sides are timed per call over batches of
    calls that last at least ~10 ms (each C_G call recomputes the
    fixpoint), so no sub-millisecond call is timed alone.  The
    ``valid()`` and temporal rows are recorded, not gated.

``serve-latency`` (BENCH_serve.json)
    Compares the query service's throughput (qps floor) and p95 latency
    (ceiling) at every committed concurrency level, plus the ingest
    p95.  Both files record an in-process calibration figure
    (``calibration.direct_qps``: the same query mix run directly
    against a SystemSession, no sockets), which measures raw kernel
    speed on the recording machine; the fresh/committed calibration
    ratio rescales the committed figures before the tolerance band is
    applied.  The scale is clamped at 1.0 -- socket round-trips do not
    speed up linearly with kernel speed, so normalization only loosens
    the bands on a slower machine, never tightens them on a faster
    one.  Socket latency is noisy on shared CI runners, so this gate
    is usually run with a looser ``--tolerance`` (0.5 in CI).

``--mode serve-journal`` (BENCH_serve.json)
    Gates the journaling overhead recorded in the ``journal`` section:
    journal-on query p50 must stay within the tolerance (default 15%)
    of journal-off.  The ratio is measured within one process on one
    machine, from a journal-off and a journal-on server driven
    alternately request by request, so no normalization applies and
    the *fresh* file alone is gated (the committed file's ratio is
    printed for reference).  The query path never touches the journal
    -- a breach means journal work leaked onto the read path.  Ingest
    durability overhead (one fsynced segment per batch) is printed for
    audit but not gated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Search counters gated exactly (each also as ``baseline_<name>``).
EXPLORE_COUNTERS = (
    "executions",
    "states",
    "runs",
    "choice_points",
    "branches",
    "deliveries_collapsed",
    "drops_elided",
    "max_frontier",
)
EXPLORE_TIMED_KEY = "n=4"
KERNEL_KEY = "n=10"

#: Columnar-over-naive speedup ratios gated by the 15% rule.
KERNEL_GATED = ("knows_speedup", "ck_speedup")


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"{path}: {exc}")


def _entry(payload: dict, path: Path, key: str) -> dict:
    try:
        return payload["results"][key]
    except KeyError:
        sys.exit(f"{path}: no results[{key!r}] entry")


def check_explore(
    committed: dict, fresh: dict, args: argparse.Namespace
) -> int:
    failed = False
    gated = EXPLORE_COUNTERS + tuple(f"baseline_{name}" for name in EXPLORE_COUNTERS)
    for key in sorted(committed.get("results", {})):
        committed_e = _entry(committed, args.committed, key)
        fresh_e = _entry(fresh, args.fresh, key)
        fields = [name for name in gated if name in committed_e]
        changed = [
            f"{name} {committed_e[name]} -> {fresh_e.get(name)}"
            for name in fields
            if fresh_e.get(name) != committed_e[name]
        ]
        print(f"explorer counters at {key}: {len(fields)} compared, {len(changed)} changed")
        if changed:
            print(
                f"REGRESSION: the search changed at {key}: {', '.join(changed)}",
                file=sys.stderr,
            )
            failed = True

    committed_e = _entry(committed, args.committed, EXPLORE_TIMED_KEY)
    fresh_e = _entry(fresh, args.fresh, EXPLORE_TIMED_KEY)
    for name, e in (("committed", committed_e), ("fresh", fresh_e)):
        if not e.get("dpor_chunks"):
            sys.exit(f"{name} entry lacks a nonzero 'dpor_chunks'")
    ceiling = committed_e["dpor_chunks"] * (1.0 + args.tolerance)
    actual = fresh_e["dpor_chunks"]
    print(
        f"explorer DPOR time at {EXPLORE_TIMED_KEY}: fresh {actual:.1f} "
        f"calibration chunks, committed {committed_e['dpor_chunks']:.1f} "
        f"(ceiling {ceiling:.1f})"
    )
    if actual > ceiling:
        print(
            f"REGRESSION: DPOR took {actual:.1f} > {ceiling:.1f} chunks "
            f"(committed plus {args.tolerance:.0%})",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("ok")
    return 0


def check_kernel(committed: dict, fresh: dict, args: argparse.Namespace) -> int:
    committed_e = _entry(committed, args.committed, KERNEL_KEY)
    fresh_e = _entry(fresh, args.fresh, KERNEL_KEY)
    failed = False

    for field in KERNEL_GATED:
        for name, e in (("committed", committed_e), ("fresh", fresh_e)):
            if not e.get(field):
                sys.exit(f"{name} entry lacks a nonzero {field!r}")
        floor = committed_e[field] * (1.0 - args.tolerance)
        actual = fresh_e[field]
        print(
            f"kernel {field} at {KERNEL_KEY}: fresh {actual:.2f}x, "
            f"committed {committed_e[field]:.2f}x (floor {floor:.2f}x)"
        )
        if actual < floor:
            print(
                f"REGRESSION: {field} {actual:.2f}x < {floor:.2f}x",
                file=sys.stderr,
            )
            failed = True

    if failed:
        return 1
    print("ok")
    return 0


def check_serve(committed: dict, fresh: dict, args: argparse.Namespace) -> int:
    for name, payload in (("committed", committed), ("fresh", fresh)):
        if not payload.get("calibration", {}).get("direct_qps"):
            sys.exit(f"{name} payload lacks a nonzero calibration.direct_qps")

    # How fast is this machine's kernel relative to the recording
    # machine's?  The socket-free calibration round measures that.
    machine_scale = (
        fresh["calibration"]["direct_qps"] / committed["calibration"]["direct_qps"]
    )
    # Socket round-trips do not speed up linearly with kernel speed, so
    # normalization only ever *loosens* the bands: a slower machine gets
    # scaled-down floors and scaled-up ceilings, a faster one is simply
    # held to the committed figures.
    floor_scale = min(machine_scale, 1.0)
    print(
        f"serve calibration: fresh {fresh['calibration']['direct_qps']:,.0f} q/s "
        f"in-process, committed {committed['calibration']['direct_qps']:,.0f} "
        f"(machine scale {machine_scale:.2f}x, applied {floor_scale:.2f}x)"
    )
    failed = False

    for key in sorted(committed.get("results", {})):
        committed_e = _entry(committed, args.committed, key)
        fresh_e = _entry(fresh, args.fresh, key)
        for name, e in (("committed", committed_e), ("fresh", fresh_e)):
            for field in ("qps", "p95_ms"):
                if not e.get(field):
                    sys.exit(f"{name} entry {key} lacks a nonzero {field!r}")
        qps_floor = committed_e["qps"] * floor_scale * (1.0 - args.tolerance)
        p95_ceiling = (
            committed_e["p95_ms"] / floor_scale * (1.0 + args.tolerance)
        )
        print(
            f"serve {key}: fresh {fresh_e['qps']:,.0f} q/s "
            f"p95 {fresh_e['p95_ms']:.2f} ms, committed "
            f"{committed_e['qps']:,.0f} q/s p95 {committed_e['p95_ms']:.2f} ms "
            f"(floor {qps_floor:,.0f} q/s, ceiling {p95_ceiling:.2f} ms)"
        )
        if fresh_e["qps"] < qps_floor:
            print(
                f"REGRESSION: {key} throughput {fresh_e['qps']:,.0f} "
                f"< {qps_floor:,.0f} q/s",
                file=sys.stderr,
            )
            failed = True
        if fresh_e["p95_ms"] > p95_ceiling:
            print(
                f"REGRESSION: {key} p95 {fresh_e['p95_ms']:.2f} "
                f"> {p95_ceiling:.2f} ms",
                file=sys.stderr,
            )
            failed = True

    # Ingest is gated on p50: the batch counts are small (4-8), so p95
    # is a max over a handful of samples and one GC pause trips it.
    for name, payload in (("committed", committed), ("fresh", fresh)):
        if not payload.get("ingest", {}).get("p50_ms"):
            sys.exit(f"{name} payload lacks a nonzero ingest.p50_ms")
    ingest_ceiling = (
        committed["ingest"]["p50_ms"] / floor_scale * (1.0 + args.tolerance)
    )
    fresh_ingest = fresh["ingest"]["p50_ms"]
    print(
        f"serve ingest p50: fresh {fresh_ingest:.2f} ms, committed "
        f"{committed['ingest']['p50_ms']:.2f} ms (ceiling {ingest_ceiling:.2f} ms)"
    )
    if fresh_ingest > ingest_ceiling:
        print(
            f"REGRESSION: ingest p50 {fresh_ingest:.2f} > {ingest_ceiling:.2f} ms",
            file=sys.stderr,
        )
        failed = True

    if failed:
        return 1
    print("ok")
    return 0


def check_serve_journal(
    committed: dict, fresh: dict, args: argparse.Namespace
) -> int:
    for name, payload in (("committed", committed), ("fresh", fresh)):
        journal = payload.get("journal")
        if not journal:
            sys.exit(f"{name} payload lacks a journal section")
        for mode in ("off", "on"):
            if not journal.get(mode, {}).get("query_p50_ms"):
                sys.exit(f"{name} journal section lacks {mode}.query_p50_ms")

    committed_j = committed["journal"]
    fresh_j = fresh["journal"]
    committed_ratio = (
        committed_j["on"]["query_p50_ms"] / committed_j["off"]["query_p50_ms"]
    )
    fresh_ratio = fresh_j["on"]["query_p50_ms"] / fresh_j["off"]["query_p50_ms"]
    ceiling = 1.0 + args.tolerance
    print(
        f"serve journal query p50: on {fresh_j['on']['query_p50_ms']:.2f} ms / "
        f"off {fresh_j['off']['query_p50_ms']:.2f} ms = {fresh_ratio:.3f}x "
        f"(ceiling {ceiling:.2f}x; committed ratio {committed_ratio:.3f}x)"
    )
    ingest_on = fresh_j["on"].get("ingest_p50_ms", 0.0)
    ingest_off = fresh_j["off"].get("ingest_p50_ms", 0.0)
    if ingest_on and ingest_off:
        print(
            f"serve journal ingest p50 (informational, fsync="
            f"{fresh_j.get('fsync')}): on {ingest_on:.2f} ms / "
            f"off {ingest_off:.2f} ms = {ingest_on / ingest_off:.3f}x"
        )
    if fresh_ratio > ceiling:
        print(
            f"REGRESSION: journal-on query p50 is {fresh_ratio:.3f}x "
            f"journal-off (> {ceiling:.2f}x): journal work on the read path",
            file=sys.stderr,
        )
        return 1
    print("ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("committed", type=Path)
    parser.add_argument("fresh", type=Path)
    parser.add_argument("--tolerance", type=float, default=0.15)
    parser.add_argument(
        "--mode",
        choices=("auto", "serve-journal"),
        default="auto",
        help="auto: dispatch on the benchmark field; serve-journal: gate "
        "the journaling-overhead section of a serve-latency payload",
    )
    args = parser.parse_args(argv)

    committed = _load(args.committed)
    fresh = _load(args.fresh)
    kind = committed.get("benchmark")
    if fresh.get("benchmark") != kind:
        sys.exit(
            f"benchmark kind mismatch: committed {kind!r} vs "
            f"fresh {fresh.get('benchmark')!r}"
        )
    if args.mode == "serve-journal":
        if kind != "serve-latency":
            sys.exit(f"--mode serve-journal needs a serve-latency payload, got {kind!r}")
        return check_serve_journal(committed, fresh, args)
    if kind == "epistemic-kernel":
        return check_kernel(committed, fresh, args)
    if kind == "explore-enumeration":
        return check_explore(committed, fresh, args)
    if kind == "serve-latency":
        return check_serve(committed, fresh, args)
    sys.exit(f"unknown benchmark kind {kind!r}")


if __name__ == "__main__":
    sys.exit(main())
