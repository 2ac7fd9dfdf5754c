#!/usr/bin/env python3
"""Floor gate for the `perf_ratios` bench report (BENCH_ratios.json).

Every ratio in the report is B's cost over A's cost for two code paths
timed inside one binary, so it holds across hosts where absolute
throughput does not. The check fails on a missing ratio, a ratio name
not in FLOORS, fewer than MIN_TRIALS trials, or a median below its floor:

    python3 tools/check_bench.py target/BENCH_ratios.json
    python3 tools/check_bench.py BENCH_ratios.json   # the committed record

Each floor comes from at least ten CI-configuration runs on a 2-vCPU
host (see CHANGES.md), by three rules:

* A ratio whose B side is frozen reference code (`*.compiled/reference`,
  `*.batched/reference`, `*.planned/reference`,
  `channel.fading.stream/reference`) and whose median cleared 1.5 in
  every run gets 0.8 times its lowest run median, rounded down to 0.05.
  Its B side never changes, so only a slower A side can lower it, and a
  floor that close sees a kernel slow down by about 1.25x or more. A
  floor of 1.0 would let a kernel lose most of its measured speedup.
* Any other ratio whose median cleared 1.0 in every run is a
  demonstrated speedup and gets a floor of 1.0, which holds on other
  hosts where the exact speedup differs. A higher floor would block
  real speed-ups where the B side is live code: a faster one-lane
  decode lowers `batched/scalar`.
* A ratio whose median fell below 1.0 in some run is no demonstrated
  speedup: it gets 0.8 times its lowest run median, rounded down to
  0.05, as a regression guard.
"""

import json
import sys

MIN_TRIALS = 5

FLOORS = {
    "decode.viterbi.compiled/reference": 2.2,
    "decode.viterbi.batched/scalar": 1.0,
    "decode.viterbi.batched/reference": 4.05,
    "decode.sova.compiled/reference": 1.55,
    "decode.sova.batched/scalar": 1.0,
    "decode.sova.batched/reference": 2.4,
    "decode.sova.noisy.compiled/reference": 1.9,
    "decode.bcjr.compiled/reference": 1.3,
    "decode.bcjr.batched/scalar": 1.0,
    "decode.bcjr.batched/reference": 7.3,
    "rx.viterbi.batched/scalar": 1.0,
    "rx.sova.batched/scalar": 1.0,
    "rx.bcjr.batched/scalar": 1.0,
    "ofdm.modulate.planned/reference": 1.65,
    "ofdm.demodulate.planned/reference": 2.05,
    "map.bpsk.planned/reference": 1.0,
    "demap.bpsk.planned/reference": 1.0,
    "map.qpsk.planned/reference": 0.75,
    "demap.qpsk.planned/reference": 1.0,
    "map.qam16.planned/reference": 0.75,
    "demap.qam16.planned/reference": 1.0,
    "map.qam64.planned/reference": 2.05,
    "demap.qam64.planned/reference": 1.0,
    "channel.fading.stream/reference": 10.35,
    "service.time.warm/cold": 1.0,
    "stopping.packets.adaptive/fixed": 1.0,
    "sweep.one_packet/full_block": 0.6,
}


def check(doc):
    """Returns the list of gate failures for one report."""
    errors = []
    if doc.get("bench") != "perf_ratios":
        return [f"bench is {doc.get('bench')!r}, not 'perf_ratios'"]
    ratios = {r["name"]: r for r in doc["ratios"]}
    for name in sorted(set(FLOORS) - set(ratios)):
        errors.append(f"{name}: missing")
    for name in sorted(set(ratios) - set(FLOORS)):
        errors.append(f"{name}: no floor in tools/check_bench.py FLOORS")
    for name in sorted(set(ratios) & set(FLOORS)):
        r = ratios[name]
        if r["trials"] < MIN_TRIALS or len(r["values"]) != r["trials"]:
            errors.append(f"{name}: {len(r['values'])} values for {r['trials']} trials, need >= {MIN_TRIALS}")
        if r["median"] < FLOORS[name]:
            errors.append(f"{name}: median {r['median']} below floor {FLOORS[name]}")
    return errors


def main(argv):
    if len(argv) != 2:
        print("usage: check_bench.py <BENCH_ratios.json>", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        errors = check(json.load(f))
    for e in errors:
        print(f"{argv[1]}: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"{argv[1]}: {len(FLOORS)} ratios at or above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
