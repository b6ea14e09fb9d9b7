#!/usr/bin/env python3
"""Allocation-regression guard over bench_efficiency JSON output.

Run the alloc-counting benchmarks with google-benchmark's JSON reporter:

    ./build/bench/bench_efficiency \
        --benchmark_filter='Allocs' --benchmark_format=json > allocs.json
    python3 scripts/check_allocs.py allocs.json

The guarded benchmarks measure steady-state allocations per operation on
the RTP hot path. BM_TrailRouteRtpAllocs (both metric arms),
BM_EngineRtpPacketAllocs (the default ruleset of compiled .sdr rules, fast
path disabled so the full slow pipeline stays covered),
BM_EngineRtpFastpathAllocs (the established-flow bypass itself) and
BM_EngineRtpVerdictAllocs (inline enforcement: block-list lookup +
token-bucket charge per packet) must stay at zero: the session arena +
flat-map + interner layer exists precisely so that an in-session packet
allocates nothing, and the enforcement decision path is FlatMaps and
token arithmetic on top of it. BM_ShardedRtpAllocs (2-worker
ShardedEngine) and BM_FleetRtpAllocs (2-node Fleet) guard the multi-worker
ingest path the same way: ring slots keep their datagram buffers, so the
producer's copy into a slot and the worker's in-place processing allocate
nothing; the counter is global, so worker-thread allocations count. The
fleet's periodic gossip pump (about 1e-5 allocs/op) stays under the epsilon.
BM_SipScanAllocs guards the signaling side: the one-pass SIP scan and the
shard router's keys-only scan of an unfolded INVITE with SDP read views
into the datagram and allocate nothing. BM_FleetCorrelatorAllocs guards
the fleet control plane's correlator: a local REGISTER advancing an
existing window and a threshold pass over that one dirty window reuse the
flat window table and the dirty list, and format nothing. A small epsilon
absorbs one-time noise that leaks past warm-up (a rare flat-map rehash
amortised over millions of iterations lands around 1e-6 allocs/op).

BM_EngineRtpFastpathAllocs also reports a bypassed_share counter (bypass
hits / measured iterations). It must stay near 1.0 — a zero-alloc run
with share ~0 means the fast path silently disengaged and the benchmark
is measuring the slow path twice, so that is a failure too.

CEILINGS holds benchmarks that must allocate, but no more than they do
today: BM_EngineSipPacketAllocs (an INVITE opening a fresh session) is
held at its measured count plus a small margin, so the per-footprint boxes
and owned strings that SIP footprints used to carry cannot creep back.

Exit status is non-zero if any guarded benchmark exceeds the threshold
or is missing from the JSON (so a renamed/deleted benchmark cannot
silently disable the guard).
"""

import json
import sys

# allocs/op ceiling. Steady state is exactly 0; the epsilon only absorbs
# amortised one-off growth (e.g. a single hash-table rehash during a long
# run, ~4.5e-6 allocs/op in practice).
EPSILON = 0.01

# Benchmark-name prefixes that must stay allocation-free. Each expands to
# every run matching "<prefix>/" or exactly "<prefix>" in the JSON, so
# every Arg() arm (e.g. metrics off/on) is guarded.
GUARDED = [
    "BM_TrailRouteRtpAllocs",
    "BM_TrailAddRtpAllocs",
    "BM_EngineRtpPacketAllocs",
    "BM_EngineRtpFastpathAllocs",
    "BM_EngineRtpVerdictAllocs",
    "BM_ShardedRtpAllocs",
    "BM_FleetRtpAllocs",
    "BM_SipScanAllocs",
    "BM_FleetCorrelatorAllocs",
    "BM_DistillGarbageAllocs",
]

# Benchmark-name prefix -> allocs/op ceiling, for paths that allocate by
# design. Each ceiling is the count measured when it was set plus a margin
# under one allocation, so a single extra allocation per operation fails.
CEILINGS = {
    # A new session's INVITE: its SIP footprint block; the session record,
    # its arena chunk, chunk table and the list of media endpoints bound to
    # it (its trail list is inline, and its wake entry on the expiry wheel
    # is intrusive: arming it allocates nothing); the trail key's copy of
    # the Call-ID; the event's session id and its two-step detail string.
    "BM_EngineSipPacketAllocs": 9.5,  # measured 9.0
}

# Minimum fraction of measured iterations that must take the fast-path
# bypass in benchmarks reporting a bypassed_share counter. Guards against
# the vacuous pass where the bypass disengages but the slow path also
# happens to be allocation-free.
MIN_BYPASSED_SHARE = 0.9


def main(path: str) -> int:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)

    runs = [b for b in doc.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"]

    status = 0
    limits = {g: EPSILON for g in GUARDED}
    limits.update(CEILINGS)
    seen = {g: 0 for g in limits}
    for run in runs:
        name = run.get("name", "")
        base = name.split("/")[0]
        if base not in seen:
            continue
        seen[base] += 1
        allocs = run.get("allocs_per_op")
        if allocs is None:
            print(f"FAIL {name}: no allocs_per_op counter in JSON")
            status = 1
            continue
        if allocs > limits[base]:
            print(f"FAIL {name}: allocs_per_op = {allocs:.6g} "
                  f"(threshold {limits[base]})")
            status = 1
        else:
            print(f"OK   {name}: allocs_per_op = {allocs:.6g}")
        share = run.get("bypassed_share")
        if share is not None:
            if share < MIN_BYPASSED_SHARE:
                print(f"FAIL {name}: bypassed_share = {share:.4f} "
                      f"(minimum {MIN_BYPASSED_SHARE}) — fast path "
                      f"disengaged, zero allocs is vacuous")
                status = 1
            else:
                print(f"OK   {name}: bypassed_share = {share:.4f}")

    for base, count in seen.items():
        if count == 0:
            print(f"FAIL {base}: benchmark absent from {path} "
                  f"(guard would be silently disabled)")
            status = 1

    if status == 0:
        print("allocation guard: all hot paths at zero allocs/op, "
              "ceilings held")
    return status


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
