#!/usr/bin/env python3
"""CI gate for multicore scaling (bench_scalability.json).

Reads the "multicore" section (pinned workers, 50k sessions) and fails when:
  * the 4-worker sharded speedup over the single engine is below the floor
    (default 2.0x), or
  * any row whose shard count fits the runner's hardware threads is marked
    oversubscribed (the flag would mean the bench mis-detected the machine),
  * or any gated row dropped packets (a drop invalidates the throughput
    number: the engine did not process the offered load).

Also gates the "inline_mode" section (enforcement-mode overhead, single
engine at 5000 sessions): the inline and passive rows must stay within
--max-inline-overhead (default 40%) of the enforcement-off baseline. This
comparison is two single-threaded runs on the same machine, so it runs at
every hardware-thread count.

Also gates the "fleet" section (carrier mix through 1/2/4-node clusters):
no gossip record may be dropped from a bounded peer queue, and on every
multi-node row the control overhead — SEP gossip bytes per byte of
monitored traffic, the paper's §6 control-message economy — must stay
under --max-gossip-overhead (default 5%). Both are ratios of same-machine
runs, so like the inline gate they run at every hardware-thread count.

On a runner with fewer than 4 hardware threads every sharded row measures
queue overhead, not scaling, so the multicore check degrades to a warning
and (if the inline and fleet gates passed) exits 0 — the multicore CI job
(>= 4 vCPUs) is the authoritative execution.

Also gates the "fastpath" section (established-flow fast path, single
engine at 5k and 50k sessions on rtp_steady): each fastpath-on row must
show at least --min-fastpath-speedup (default 1.5x) over its fastpath-off
twin and a bypass hit rate of at least --min-fastpath-hit-rate (default
0.9). Single-engine same-machine ratios, so this gate runs at every
hardware-thread count.

Usage: check_speedup.py bench_scalability.json [--min-speedup 2.0]
    [--max-inline-overhead 0.4] [--max-gossip-overhead 0.05]
    [--min-fastpath-speedup 1.5] [--min-fastpath-hit-rate 0.9]
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", help="bench_scalability.json")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required 4-worker speedup vs single engine")
    parser.add_argument("--max-inline-overhead", type=float, default=0.4,
                        help="ceiling on passive/inline throughput overhead "
                             "vs enforcement-off (fraction)")
    parser.add_argument("--max-gossip-overhead", type=float, default=0.05,
                        help="ceiling on fleet gossip bytes per monitored "
                             "traffic byte (fraction)")
    parser.add_argument("--min-fastpath-speedup", type=float, default=1.5,
                        help="required fastpath-on speedup vs fastpath-off "
                             "on the steady-RTP workload")
    parser.add_argument("--min-fastpath-hit-rate", type=float, default=0.9,
                        help="required fast-path bypass rate on the "
                             "steady-RTP workload (fraction)")
    args = parser.parse_args()

    with open(args.results) as f:
        data = json.load(f)

    hw = int(data.get("hardware_threads", 0))

    # Enforcement-overhead gate: hardware-thread-independent (same-machine
    # single-engine ratio), so it runs before any multicore skip.
    inline_failures = []
    modes = {r.get("mode"): r for r in data.get("inline_mode", [])
             if r.get("workload", "rtp_steady") == "rtp_steady"}
    if not modes:
        inline_failures.append(
            "no 'inline_mode' section in results "
            "(bench_scalability predates the enforcement-overhead mode?)")
    else:
        for mode in ("off", "passive", "inline"):
            if mode not in modes:
                inline_failures.append(f"inline_mode section lacks a "
                                       f"'{mode}' row")
        for mode in ("passive", "inline"):
            if mode not in modes or "off" not in modes:
                continue
            overhead = float(modes[mode].get("overhead_vs_off", 1.0))
            print(f"enforcement {mode}: "
                  f"{modes[mode].get('pkts_per_sec', 0):.0f} pkts/s, "
                  f"{overhead * 100:.1f}% overhead vs off")
            if overhead > args.max_inline_overhead:
                inline_failures.append(
                    f"enforcement-{mode} overhead {overhead * 100:.1f}% "
                    f"exceeds the {args.max_inline_overhead * 100:.0f}% "
                    f"ceiling")
    # Fleet control-channel economy gate: ratios of same-machine runs, so it
    # also runs at every hardware-thread count. A dropped gossip record means
    # a bounded peer queue overflowed — the cluster silently lost detection
    # signal; an overhead blowout means the SEP channel stopped being cheap
    # relative to the traffic it monitors.
    fleet_rows = [r for r in data.get("fleet", [])
                  if r.get("workload") == "carrier_mix_fleet"]
    if not fleet_rows:
        inline_failures.append(
            "no 'fleet' section in results "
            "(bench_scalability predates the fleet mode?)")
    for row in fleet_rows:
        nodes = int(row.get("nodes", 0))
        users = int(row.get("provisioned_users", 0))
        overhead = float(row.get("control_overhead", 0.0))
        g_dropped = int(row.get("gossip_records_dropped", 0))
        print(f"fleet {nodes} node(s) @ {users} users: "
              f"{row.get('pkts_per_sec', 0):.0f} pkts/s, "
              f"{row.get('gossip_bytes', 0)} gossip bytes "
              f"({overhead * 100:.3f}% of traffic), "
              f"{g_dropped} gossip records dropped")
        if g_dropped != 0:
            inline_failures.append(
                f"fleet row nodes={nodes} users={users} dropped "
                f"{g_dropped} gossip records (bounded peer queue overflow)")
        if nodes > 1 and overhead > args.max_gossip_overhead:
            inline_failures.append(
                f"fleet row nodes={nodes} users={users} control overhead "
                f"{overhead * 100:.2f}% exceeds the "
                f"{args.max_gossip_overhead * 100:.1f}% ceiling")

    # Fast-path gate: single-engine same-machine on/off ratio, so it too is
    # hardware-thread independent. Every "on" row must clear the speedup and
    # hit-rate floors; an "on" row that alerts when its "off" twin did not
    # (or vice versa) would be caught by the differential tests, not here.
    fastpath_rows = [r for r in data.get("fastpath", [])
                     if r.get("workload") == "rtp_steady"
                     and r.get("fastpath") == "on"]
    if not fastpath_rows:
        inline_failures.append(
            "no 'fastpath' section in results "
            "(bench_scalability predates the established-flow fast path?)")
    for row in fastpath_rows:
        sessions = int(row.get("sessions", 0))
        speedup = float(row.get("speedup_vs_off", 0.0))
        hit_rate = float(row.get("hit_rate", 0.0))
        print(f"fastpath @ {sessions} sessions: "
              f"{row.get('pkts_per_sec', 0):.0f} pkts/s, "
              f"{speedup:.2f}x vs off, {hit_rate * 100:.1f}% hit rate")
        if speedup < args.min_fastpath_speedup:
            inline_failures.append(
                f"fastpath speedup {speedup:.2f}x at {sessions} sessions is "
                f"below the {args.min_fastpath_speedup:.1f}x floor")
        if hit_rate < args.min_fastpath_hit_rate:
            inline_failures.append(
                f"fastpath hit rate {hit_rate * 100:.1f}% at {sessions} "
                f"sessions is below the "
                f"{args.min_fastpath_hit_rate * 100:.0f}% floor")

    # Only the steady-RTP rows are comparable against the single-engine
    # baseline; carrier_mix rows (mixed signaling/media, lazy session churn)
    # are capacity data, not a scaling gate. Rows predating the workload tag
    # are rtp_steady by definition.
    rows = [r for r in data.get("multicore", [])
            if r.get("workload", "rtp_steady") == "rtp_steady"]
    if not rows:
        print("FAIL: no 'multicore' section in results "
              "(bench_scalability predates the pinned-worker mode?)")
        return 1

    if hw < 4:
        print(f"WARNING: runner has {hw} hardware threads; multicore scaling "
              "is unmeasurable here. Skipping (CI multicore job is "
              "authoritative).")
        for f_msg in inline_failures:
            print(f"FAIL: {f_msg}")
        return 1 if inline_failures else 0

    failures = list(inline_failures)

    four = None
    for row in rows:
        shards = int(row["shards"])
        if shards == 4:
            four = row
        if shards <= hw and row.get("oversubscribed", False):
            failures.append(
                f"row shards={shards} marked oversubscribed on a "
                f"{hw}-thread machine")

    if four is None:
        failures.append("no 4-shard row in the multicore section")
    else:
        speedup = float(four.get("speedup_vs_single", 0.0))
        dropped = int(four.get("dropped", 0))
        print(f"4 pinned workers @ 50k sessions: {speedup:.2f}x vs single "
              f"({four.get('pkts_per_sec', 0):.0f} pkts/s, "
              f"{dropped} dropped, {hw} hardware threads)")
        if dropped != 0:
            failures.append(f"4-worker row dropped {dropped} packets")
        if speedup < args.min_speedup:
            failures.append(
                f"4-worker speedup {speedup:.2f}x is below the "
                f"{args.min_speedup:.1f}x floor")

    if failures:
        for f_msg in failures:
            print(f"FAIL: {f_msg}")
        return 1
    print("OK: multicore scaling gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
