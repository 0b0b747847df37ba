#!/usr/bin/env python3
"""Gate BENCH_perf.json against performance regressions.

Usage:
    check_perf_regression.py CURRENT.json
    check_perf_regression.py BASELINE.json CURRENT.json

Absolute gates (always applied to CURRENT):
  * speedup >= 1.0 — the parallel+cached sweep must not be slower than
    the plain serial/uncached baseline arm measured in the same process.
  * stats_identical == true — all four sweep arms produced byte-identical
    message statistics.

Relative gate (applied only when BASELINE is given AND both documents
carry the figure — runs without --scale simply skip it):
  * events_per_sec must not drop more than 10% below the baseline.

Server gates (applied when CURRENT carries a 'server' section, which
bench/server_load writes and scripts/merge_perf_section.py folds in):
  * receipts_identical == true — every RESULT body the server streamed
    was byte-identical to direct serial engine execution.
  * rejection_probe.deterministic == true — admission control rejected
    exactly the statements past the per-client window.
  * relative: the best sweep-point QPS must not drop more than 50% below
    the baseline's (generous: connection scheduling on shared runners is
    far noisier than the single-process figures above).

Store-churn gates (applied when CURRENT carries a 'store_scale' section,
which perf_smoke --scale writes — runs without --scale skip them; both
arms are forked, so every figure is that arm's own footprint):
  * results_identical == true — the paged arm answered the probe queries
    with the flat arm's exact checksum.
  * conservation_ok == true in both arms — inserted == live + expired.
  * paged churn RSS <= 25% of the flat arm's (the whole point of paging
    out of core).
  * paged pager_hit_rate >= 0.5 — the pool is big enough to be a cache,
    not a revolving door.
  * paged events_per_sec >= 50% of flat — bounded memory must not cost
    an order of magnitude in churn throughput.

Wall-clock milliseconds are reported but never gated: absolute times vary
across runners, while the speedup ratios and the throughput delta are
machine-relative.
"""

import json
import sys

EVENTS_PER_SEC_DROP = 0.10  # max tolerated fractional drop
SERVER_QPS_DROP = 0.50  # max tolerated fractional drop, best sweep point
PAGED_RSS_CEILING = 0.25  # paged churn RSS as a fraction of flat's
PAGED_HIT_RATE_FLOOR = 0.5
PAGED_THROUGHPUT_FLOOR = 0.5  # paged events/sec vs flat's
SCAN_SPEEDUP_FLOOR = 2.0  # columnar kernel vs AoS scan, 1% selectivity


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    fail.hit = True


fail.hit = False


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    baseline = None
    if len(argv) == 3:
        with open(argv[1], encoding="utf-8") as f:
            baseline = json.load(f)
        current_path = argv[2]
    else:
        current_path = argv[1]
    with open(current_path, encoding="utf-8") as f:
        current = json.load(f)

    speedup = current.get("speedup")
    if speedup is None:
        fail(f"{current_path}: missing 'speedup'")
    elif speedup < 1.0:
        fail(
            f"speedup {speedup:.3f} < 1.0 — the parallel+cached arm is "
            "slower than plain serial/uncached"
        )
    else:
        print(f"ok: speedup {speedup:.3f} >= 1.0")
    for name in ("speedup_cache", "speedup_parallel"):
        value = current.get(name)
        if value is not None:
            marker = "ok" if value >= 1.0 else "note"
            print(f"{marker}: {name} {value:.3f}")

    if current.get("stats_identical") is not True:
        fail("stats_identical is not true — sweep arms diverged")
    else:
        print("ok: stats identical across sweep arms")

    cur_eps = current.get("events_per_sec")
    base_eps = baseline.get("events_per_sec") if baseline else None
    if cur_eps is not None and base_eps:
        floor = base_eps * (1.0 - EVENTS_PER_SEC_DROP)
        if cur_eps < floor:
            fail(
                f"events_per_sec {cur_eps:.0f} dropped more than "
                f"{EVENTS_PER_SEC_DROP:.0%} below baseline {base_eps:.0f} "
                f"(floor {floor:.0f})"
            )
        else:
            print(
                f"ok: events_per_sec {cur_eps:.0f} vs baseline "
                f"{base_eps:.0f} (floor {floor:.0f})"
            )
    else:
        if cur_eps is None:
            why = "figure absent from current run (no --scale)"
        elif baseline is None:
            why = "no baseline given"
        else:
            why = "figure absent from baseline"
        print(f"skip: events_per_sec gate ({why})")

    check_server_section(current, baseline)
    check_store_scale_section(current)
    check_scan_section(current)
    check_query_classes_section(current)

    if fail.hit:
        return 1
    print("perf regression check OK")
    return 0


def best_qps(server: dict) -> float:
    return max((p.get("qps", 0.0) for p in server.get("sweep", [])),
               default=0.0)


def check_server_section(current: dict, baseline: dict | None) -> None:
    server = current.get("server")
    if server is None:
        print("skip: server gates (no 'server' section in current run)")
        return

    if server.get("receipts_identical") is not True:
        fail("server.receipts_identical is not true — served results "
             "diverged from direct engine execution")
    else:
        print("ok: server receipts byte-identical to direct execution")

    probe = server.get("rejection_probe", {})
    if probe.get("deterministic") is not True:
        fail(f"server.rejection_probe not deterministic: {probe}")
    else:
        print(f"ok: admission probe rejected {probe.get('rejected')} of "
              f"{probe.get('sent')} as expected")

    for point in server.get("sweep", []):
        print(f"note: server {point.get('connections')} conns -> "
              f"{point.get('qps'):.0f} qps, p50 {point.get('p50_ms')} ms, "
              f"p99 {point.get('p99_ms')} ms")

    base_server = baseline.get("server") if baseline else None
    cur_qps = best_qps(server)
    if base_server and cur_qps > 0:
        base = best_qps(base_server)
        floor = base * (1.0 - SERVER_QPS_DROP)
        if base > 0 and cur_qps < floor:
            fail(f"server qps {cur_qps:.0f} dropped more than "
                 f"{SERVER_QPS_DROP:.0%} below baseline {base:.0f} "
                 f"(floor {floor:.0f})")
        elif base > 0:
            print(f"ok: server qps {cur_qps:.0f} vs baseline {base:.0f} "
                  f"(floor {floor:.0f})")
    else:
        why = ("no baseline server section" if baseline is not None
               else "no baseline given")
        print(f"skip: server qps gate ({why})")


def check_store_scale_section(current: dict) -> None:
    section = current.get("store_scale")
    if section is None:
        print("skip: store-churn gates (no 'store_scale' section — "
              "run perf_smoke --scale to produce one)")
        return
    flat, paged = section.get("flat", {}), section.get("paged", {})

    if section.get("results_identical") is not True:
        fail("store_scale.results_identical is not true — the paged "
             "store answered the probe queries differently from flat")
    else:
        print(f"ok: flat/paged probe results identical "
              f"(checksum {paged.get('query_checksum')})")

    for arm_name, arm in (("flat", flat), ("paged", paged)):
        if arm.get("conservation_ok") is not True:
            fail(f"store_scale.{arm_name}: inserted != live + expired "
                 f"({arm.get('inserted')} vs {arm.get('live')} + "
                 f"{arm.get('expired')})")
        else:
            print(f"ok: {arm_name} arm conserves events "
                  f"({arm.get('inserted')} = {arm.get('live')} live + "
                  f"{arm.get('expired')} expired)")

    flat_rss, paged_rss = flat.get("peak_rss_kb"), paged.get("peak_rss_kb")
    if flat_rss and paged_rss is not None:
        ratio = paged_rss / flat_rss
        if ratio > PAGED_RSS_CEILING:
            fail(f"paged churn RSS {paged_rss} KB is {ratio:.1%} of flat's "
                 f"{flat_rss} KB (ceiling {PAGED_RSS_CEILING:.0%}) — the "
                 "buffer pool is not bounding the working set")
        else:
            print(f"ok: paged churn RSS {paged_rss} KB = {ratio:.1%} of "
                  f"flat's {flat_rss} KB (ceiling {PAGED_RSS_CEILING:.0%})")
    else:
        print("skip: paged RSS gate (missing RSS figures)")

    hit_rate = paged.get("pager_hit_rate")
    if hit_rate is None:
        print("skip: pager hit-rate gate (figure absent)")
    elif hit_rate < PAGED_HIT_RATE_FLOOR:
        fail(f"pager hit rate {hit_rate:.4f} < {PAGED_HIT_RATE_FLOOR}")
    else:
        print(f"ok: pager hit rate {hit_rate:.4f} >= {PAGED_HIT_RATE_FLOOR}")

    flat_eps, paged_eps = flat.get("events_per_sec"), paged.get(
        "events_per_sec")
    if flat_eps and paged_eps is not None:
        floor = flat_eps * PAGED_THROUGHPUT_FLOOR
        if paged_eps < floor:
            fail(f"paged churn {paged_eps:.0f} events/sec is below "
                 f"{PAGED_THROUGHPUT_FLOOR:.0%} of flat's {flat_eps:.0f} "
                 f"(floor {floor:.0f})")
        else:
            print(f"ok: paged churn {paged_eps:.0f} events/sec vs flat "
                  f"{flat_eps:.0f} (floor {floor:.0f})")
    else:
        print("skip: paged throughput gate (missing events/sec figures)")


def check_scan_section(current: dict) -> None:
    """Columnar scan-kernel gates (the 'scan' section bench/micro_ops
    --scan-json writes and merge_perf_section.py folds in):

      * results_identical == true — all three arms (AoS scalar, SoA
        kernel, SoA kernel + zone maps) matched the identical event set.
      * speedup_1pct >= SCAN_SPEEDUP_FLOOR — the production kernel must
        beat the AoS scan at least 2x on the 1%-selectivity filter.
    """
    section = current.get("scan")
    if section is None:
        print("skip: scan gates (no 'scan' section — run "
              "bench/micro_ops --scan-json to produce one)")
        return

    if section.get("results_identical") is not True:
        fail("scan.results_identical is not true — the columnar kernel "
             "matched a different event set than the AoS scan")
    else:
        print("ok: scan arms matched identical event sets")

    speedup = section.get("speedup_1pct")
    if speedup is None:
        fail("scan section missing 'speedup_1pct'")
    elif speedup < SCAN_SPEEDUP_FLOOR:
        fail(f"scan speedup_1pct {speedup:.2f} < {SCAN_SPEEDUP_FLOOR} — "
             "the columnar kernel lost its edge over the AoS scan")
    else:
        print(f"ok: scan kernel {speedup:.2f}x over AoS at 1% selectivity "
              f"(floor {SCAN_SPEEDUP_FLOOR}x)")

    for arm in section.get("arms", []):
        print(f"note: scan sel {arm.get('selectivity'):.0%} -> "
              f"aos {arm.get('aos_ms')} ms, soa {arm.get('soa_ms')} ms, "
              f"kernel {arm.get('kernel_ms')} ms, "
              f"{arm.get('blocks_skipped')}/{arm.get('blocks_total')} "
              "blocks skipped")


def check_query_classes_section(current: dict) -> None:
    """Query-class gates (the 'query_classes' section bench/query_classes
    writes and merge_perf_section.py folds in):

      * results_identical == true — Pool, DIM and GHT answered every
        range, skyline and k-NN query byte-identically to the canonical
        kernels over the oracle.
      * skyline/knn_pool_visits_leq_flood == true — Pool's dominance
        pruning (skyline) and shell-bounded expansion (k-NN) must not
        visit more storage nodes than GHT's flood baseline.

    The per-class message and visit counts are not repeated here: ctest's
    query_classes_ledger pins them byte for byte against the committed
    BENCH_query_classes.json.
    """
    section = current.get("query_classes")
    if section is None:
        print("skip: query-class gates (no 'query_classes' section — run "
              "bench/query_classes to produce one)")
        return

    if section.get("results_identical") is not True:
        fail("query_classes.results_identical is not true — a system's "
             "skyline/k-NN/range answer diverged from the canonical kernel")
    else:
        print("ok: query-class results identical across Pool/DIM/GHT")

    for key, label in (("skyline_pool_visits_leq_flood", "skyline"),
                       ("knn_pool_visits_leq_flood", "k-NN")):
        if section.get(key) is not True:
            fail(f"query_classes.{key} is not true — Pool's {label} "
                 "pruning visited more nodes than the flood baseline")
        else:
            print(f"ok: Pool {label} visits <= flood baseline")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
