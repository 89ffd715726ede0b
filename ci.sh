#!/usr/bin/env bash
# CI driver: builds and tests the Release tree, the ASan/UBSan variant, a
# TSan variant running the threaded suites (the serving engine plus the
# thread-pool-backed training paths and the telemetry layer), and a no-SIMD
# variant proving the scalar fallbacks bit-identical. The Release
# leg also runs bench_train_parallel (validating BENCH_train.json),
# bench_extract + bench_infer in --smoke mode (validating
# BENCH_extract.json / BENCH_infer.json, the >= 8x single-thread
# LUT-extraction speedup floor, and the >= 1x flat-vs-nodewalk floor on
# every tree model), bench_serve_throughput (validating its
# Prometheus exposition, including HELP/TYPE pairing), and contract_scanner
# under PHISHINGHOOK_TRACE (validating the span trace, now including the
# async request lanes and flow arrows — at least one trace id must connect
# the request umbrella to its queue/extract stage slices), a chaos smoke
# (contract_scanner against a 10% fault-injecting explorer, checking that
# every request resolves to a definite status), bench_stream in --smoke
# mode (validating BENCH_stream.json: both arrival scenarios present,
# finite rows/s and shed/error rates, accounting identity intact, windowed
# SLO sample and per-stage queue-wait/service-time attribution rows, plus
# the network row the socket-path scenario emits, whose engine queue-wait
# p50 must stay <= 0.25x its client RTT p50), a scrape smoke
# (stream_follower serving /metrics and /healthz on loopback mid-run,
# exposition linted, health JSON schema-checked), and a JSON-RPC smoke
# (score_server on one ephemeral port, a single phook_score plus a mixed
# batch over real sockets, response shape asserted, then /metrics linted
# for the net_* and serve_* series and /healthz checked for the
# phook_health document, all from the RPC port), so the perf
# trajectory, the telemetry surface, and the fault-isolation contract all
# stay machine-checked across PRs. The ASan leg runs the full suite, including
# the fast-vs-legacy equivalence tests (test_features_fast). The TSan leg
# adds test_stream, racing the three streaming pipeline threads against the
# engine workers that run the coordinator's completion callbacks, and
# test_net, hammering the event loop and its cross-thread replies with
# concurrent clients.
#
#   ./ci.sh            # all four legs: release (with the benches and
#                      # smokes), asan, tsan, nosimd
#
# Build trees live under build-ci-* so they never collide with a developer's
# ./build. Any failure aborts the script (set -e) and leaves the offending
# tree around for inspection.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

# Every bench/smoke schema check below is a python3 script.
command -v python3 >/dev/null 2>&1 ||
  { echo "ci.sh: python3 is required" >&2; exit 1; }

run_variant() {
  local name="$1" sanitize="$2" ctest_args="${3:-}"
  local dir="build-ci-${name}"
  echo "=== ${name}: configure ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release \
        -DPHISHINGHOOK_SANITIZE="${sanitize}" >/dev/null
  echo "=== ${name}: build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  # shellcheck disable=SC2086
  (cd "${dir}" && ctest --output-on-failure --no-tests=error -j "${JOBS}" ${ctest_args})
}

check_bench_json() {
  local json="$1"
  echo "=== bench_train_parallel: ${json} ==="
  if [[ ! -f "${json}" ]]; then
    echo "ci.sh: ${json} missing" >&2
    exit 1
  fi
  python3 - "${json}" <<'PY'
import json, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
rows = doc["results"]
assert rows, "empty results"
for row in rows:
    for key in ("model", "threads", "ms", "speedup"):
        assert key in row, f"missing {key}"
print(f"BENCH_train.json ok: {len(rows)} rows")
PY
}

check_extract_json() {
  local json="$1"
  echo "=== bench_extract: ${json} ==="
  if [[ ! -f "${json}" ]]; then
    echo "ci.sh: ${json} missing" >&2
    exit 1
  fi
  python3 - "${json}" <<'PY'
import json, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
rows = doc["results"]
assert rows, "empty results"
by_path = {}
for row in rows:
    for key in ("path", "threads", "ms", "mb_per_s", "speedup_vs_legacy"):
        assert key in row, f"missing {key}"
    assert row["mb_per_s"] > 0, f"zero throughput for {row['path']}"
    by_path[row["path"]] = row
for required in ("legacy", "fast"):
    assert required in by_path, f"missing path {required}"
fast = by_path["fast"]
assert fast["threads"] == 1, "fast row must be single-thread"
# Floor raised 5x -> 8x with the banked-histogram accumulator (the CI box
# measures ~35x; 8x leaves headroom for noisy hosts without letting the
# fast path quietly decay to the old scalar scan).
assert fast["speedup_vs_legacy"] >= 8.0, (
    f"LUT extraction speedup {fast['speedup_vs_legacy']:.2f}x "
    "below the 8x floor")
print(f"BENCH_extract.json ok: {len(rows)} rows, "
      f"fast path {fast['speedup_vs_legacy']:.1f}x legacy "
      f"at {fast['mb_per_s']:.0f} MB/s")
PY
}

check_infer_json() {
  local json="$1"
  echo "=== bench_infer: ${json} ==="
  if [[ ! -f "${json}" ]]; then
    echo "ci.sh: ${json} missing" >&2
    exit 1
  fi
  python3 - "${json}" <<'PY'
import json, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
rows = doc["results"]
assert rows, "empty results"
seen = set()
for row in rows:
    for key in ("model", "path", "threads", "ms", "rows_per_s",
                "speedup_vs_nodewalk"):
        assert key in row, f"missing {key}"
    assert row["rows_per_s"] > 0, (
        f"zero throughput for {row['model']}/{row['path']}")
    seen.add((row["model"], row["path"]))
for model in ("random_forest", "xgboost", "lightgbm", "catboost"):
    for path in ("nodewalk", "flat"):
        assert (model, path) in seen, f"missing row {model}/{path}"
# Enforced floor: the compiled flat traversal must beat the per-row
# nodewalk on EVERY model at one thread (DESIGN.md §10). The floors are
# "never slower" (1.0), not the measured speedups (~3.3x RF, ~1.9x XGB,
# ~1.8x LGBM, ~1.25x CatBoost on the CI box) — pinning the measured
# numbers would flake on host noise, while 1.0 catches any regression to
# the pre-rewrite state, where xgboost/lightgbm sat at ~0.7-0.8x.
min_speedup = {"random_forest": 1.0, "xgboost": 1.0,
               "lightgbm": 1.0, "catboost": 1.0}
checked = set()
for row in rows:
    if row["path"] != "flat" or row.get("threads") != 1:
        continue
    floor = min_speedup.get(row["model"])
    if floor is None:
        continue
    assert row["speedup_vs_nodewalk"] >= floor, (
        f"flat inference for {row['model']} at "
        f"{row['speedup_vs_nodewalk']:.2f}x nodewalk, below the "
        f"{floor:.1f}x floor")
    checked.add(row["model"])
assert checked == set(min_speedup), (
    f"missing single-thread flat rows for {set(min_speedup) - checked}")
print(f"BENCH_infer.json ok: {len(rows)} rows over "
      f"{len({m for m, _ in seen})} models, flat >= nodewalk on all of "
      + ", ".join(sorted(checked)))
PY
}

check_stream_json() {
  local json="$1"
  echo "=== bench_stream: ${json} ==="
  if [[ ! -f "${json}" ]]; then
    echo "ci.sh: ${json} missing" >&2
    exit 1
  fi
  python3 - "${json}" <<'PY'
import json, math, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
rows = doc["results"]
assert rows, "empty results"
scenarios = set()
for row in rows:
    for key in ("scenario", "sustained_rows_per_s", "shed_rate",
                "error_rate", "ingest_lag_blocks", "max_ingest_lag_blocks",
                "submitted", "completed", "failed", "shed",
                "accounting_ok"):
        assert key in row, f"missing {key}"
    for key in ("sustained_rows_per_s", "shed_rate", "error_rate",
                "window_rate_per_sec", "window_p99_us",
                "window_error_burn_rate", "shed_pressure"):
        assert key in row, f"missing {key}"
        assert math.isfinite(row[key]), f"non-finite {key}"
    assert row["accounting_ok"] is True, (
        f"accounting broken for {row['scenario']}")
    assert row["submitted"] == row["completed"] + row["failed"] + row["shed"], (
        f"submitted != completed+failed+shed for {row['scenario']}")
    assert row["sustained_rows_per_s"] > 0, (
        f"zero throughput for {row['scenario']}")
    assert 0.0 <= row["shed_pressure"] <= 1.0, "shed_pressure out of [0,1]"
    # Per-stage latency attribution: every scenario reports where time went
    # (queue-wait vs service-time) for the four instrumented stages.
    stages = {s["stage"]: s for s in row["stages"]}
    for stage, kind in (("addr_queue", "wait"), ("queue", "wait"),
                        ("extract", "service"), ("predict", "service")):
        assert stage in stages, f"missing stage row {stage}"
        s = stages[stage]
        assert s["kind"] == kind, f"stage {stage} kind {s['kind']} != {kind}"
        for key in ("count", "mean_us", "p50_us", "p95_us", "p99_us",
                    "max_us"):
            assert key in s, f"stage {stage} missing {key}"
            assert math.isfinite(s[key]), f"stage {stage} non-finite {key}"
    # Real traffic flowed through the engine stages in every scenario.
    assert stages["queue"]["count"] > 0, "no queue-wait samples"
    assert stages["extract"]["count"] > 0, "no extract samples"
    scenarios.add(row["scenario"])
for required in ("steady", "mempool_burst"):
    assert required in scenarios, f"missing scenario {required}"
# Network path: LoadGenerator-driven traffic over real loopback sockets
# through the JSON-RPC front door, with latency attributed across the
# client (connect/rtt), the net layer (parse/handle) and the
# engine (queue/extract/predict).
net = doc["network"]
for key in ("scenario", "requests", "ok", "shed", "transport_errors",
            "rps", "shed_rate"):
    assert key in net, f"network row missing {key}"
assert net["requests"] > 0, "no socket-path requests"
assert net["ok"] > 0, "no socket-path scored responses"
assert net["transport_errors"] == 0, (
    f"{net['transport_errors']} transport errors on loopback")
assert math.isfinite(net["rps"]) and net["rps"] > 0, "bad network rps"
net_stages = {s["stage"]: s for s in net["stages"]}
for stage, kind in (("connect", "service"), ("rtt", "service"),
                    ("parse", "service"), ("handle", "service"),
                    ("queue", "wait"),
                    ("extract", "service"), ("predict", "service")):
    assert stage in net_stages, f"missing network stage row {stage}"
    s = net_stages[stage]
    assert s["kind"] == kind, f"network stage {stage} kind {s['kind']}"
    for key in ("count", "mean_us", "p50_us", "p95_us", "p99_us", "max_us"):
        assert math.isfinite(s[key]), f"network stage {stage} bad {key}"
assert net_stages["parse"]["count"] > 0, "no frames parsed on the socket path"
assert net_stages["queue"]["count"] > 0, "socket traffic never hit the engine"
# Batching by arrival keeps the engine queue a small share of the client
# RTT; a timed batch hold shows up here as a ratio near 0.6.
queue_p50 = net_stages["queue"]["p50_us"]
rtt_p50 = net_stages["rtt"]["p50_us"]
assert queue_p50 <= 0.25 * rtt_p50, (
    f"network engine queue p50 {queue_p50:.1f} us > 0.25 x rtt p50 "
    f"{rtt_p50:.1f} us")
print(f"network engine queue p50 {queue_p50:.1f} us = "
      f"{queue_p50 / rtt_p50:.2f} x rtt p50 {rtt_p50:.1f} us")
burst = next(r for r in rows if r["scenario"] == "mempool_burst")
print(f"mempool_burst in-process: {burst['sustained_rows_per_s']:.0f} rows/s")
print(f"BENCH_stream.json ok: {len(rows)} scenarios, "
      + ", ".join(f"{r['scenario']}={r['sustained_rows_per_s']:.0f} rows/s"
                  for r in rows)
      + f"; network {net['rps']:.0f} req/s over {net['requests']} requests")
PY
}

check_cascade_json() {
  local json="$1"
  echo "=== bench_cascade: ${json} ==="
  if [[ ! -f "${json}" ]]; then
    echo "ci.sh: ${json} missing" >&2
    exit 1
  fi
  python3 - "${json}" <<'PY'
import json, math, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
for key in ("test_rows", "models", "stage0_rows_per_s", "heavy_rows_per_s",
            "stage0_accuracy", "heavy_accuracy", "best_single_model",
            "best_single_accuracy", "results"):
    assert key in doc, f"missing {key}"
assert doc["test_rows"] > 0, "empty held-out set"
assert doc["models"]["stage0"] and doc["models"]["heavy"], "missing model names"
rows = doc["results"]
assert rows, "empty results"
for row in rows:
    for key in ("band_lo", "band_hi", "enabled", "rows_per_s",
                "escalation_rate", "degraded_rows", "stage_rows",
                "accuracy", "accuracy_delta_pp", "speedup_vs_heavy"):
        assert key in row, f"missing {key}"
    for key in ("band_lo", "band_hi", "rows_per_s", "escalation_rate",
                "accuracy", "accuracy_delta_pp", "speedup_vs_heavy"):
        assert math.isfinite(row[key]), f"non-finite {key}"
    assert row["rows_per_s"] > 0, "zero throughput"
    assert 0.0 <= row["escalation_rate"] <= 1.0, "escalation_rate out of [0,1]"
    assert row["degraded_rows"] == 0, "faults in a fault-free bench"
    assert sum(row["stage_rows"]) >= doc["test_rows"], "rows went missing"
# The disabled band never escalates; the full [0,1] band escalates every
# row — together they prove the band logic actually gates the heavy stage.
disabled = [r for r in rows if not r["enabled"]]
assert disabled, "no disabled-band control point"
assert all(r["escalation_rate"] == 0.0 for r in disabled), (
    "disabled band escalated rows")
full = [r for r in rows if r["band_lo"] == 0.0 and r["band_hi"] == 1.0]
assert full, "no full-band control point"
assert all(r["escalation_rate"] == 1.0 for r in full), (
    "full [0,1] band failed to escalate every row")
# The optimization gate: some enabled band must beat the heavy model by
# >= 2x while giving up <= 0.5 pp of accuracy vs the best single model.
winners = [r for r in rows
           if r["enabled"] and r["speedup_vs_heavy"] >= 2.0
           and r["accuracy_delta_pp"] >= -0.5]
assert winners, ("no band met the gate: >= 2x over the heavy model at "
                 "<= 0.5 pp accuracy loss")
best = max(winners, key=lambda r: r["speedup_vs_heavy"])
print(f"BENCH_cascade.json ok: {len(rows)} bands, best gate-passing band "
      f"[{best['band_lo']:.2f}, {best['band_hi']:.2f}] at "
      f"{best['speedup_vs_heavy']:.1f}x vs heavy, "
      f"{best['accuracy_delta_pp']:+.2f} pp accuracy")
PY
}

# Lints a Prometheus text exposition: every line is a HELP/TYPE comment or
# a well-formed sample, each TYPE follows its name's HELP, and every metric
# name given after the file appears in it.
lint_prometheus() {
  python3 - "$@" <<'PY'
import re, sys
path, required = sys.argv[1], sys.argv[2:]
line_re = re.compile(
    r'^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|nan|inf)$')
lines = [l.rstrip() for l in open(path) if l.strip()]
assert lines, f"{path}: empty exposition"
samples = 0
helped = set()
for line in lines:
    if line.startswith("# HELP "):
        helped.add(line.split()[2])
        continue
    if line.startswith("# TYPE "):
        # Exposition-format conformance: HELP precedes TYPE per name.
        name = line.split()[2]
        assert name in helped, f"{path}: # TYPE {name} without a preceding # HELP"
        continue
    assert line_re.match(line), f"{path}: malformed exposition line: {line!r}"
    samples += 1
text = "\n".join(lines)
for name in required:
    assert name in text, f"{path}: missing metric {name}"
print(f"{path} ok: {samples} samples")
PY
}

check_prometheus() {
  local prom="$1"
  echo "=== bench_serve_throughput: ${prom} ==="
  if [[ ! -f "${prom}" ]]; then
    echo "ci.sh: ${prom} missing" >&2
    exit 1
  fi
  lint_prometheus "${prom}" serve_requests_completed serve_cache_hit_rate \
    serve_request_latency_us threadpool_tasks_total
}

check_trace() {
  local trace="$1"
  echo "=== contract_scanner: ${trace} ==="
  if [[ ! -f "${trace}" ]]; then
    echo "ci.sh: ${trace} missing" >&2
    exit 1
  fi
  python3 - "${trace}" <<'PY'
import json, sys
from collections import defaultdict
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty trace"
lanes = defaultdict(set)  # async trace id -> stage names on that lane
for event in events:
    ph = event["ph"]
    for key in ("name", "ph", "pid", "tid", "ts"):
        assert key in event, f"missing {key}"
    if ph == "X":
        assert "dur" in event, "complete event without dur"
    elif ph in ("b", "e"):
        assert event.get("cat") == "phook.req", f"async event cat {event}"
        assert event["id"].startswith("0x"), "async event without hex id"
        lanes[event["id"]].add(event["name"])
    elif ph in ("s", "t", "f"):
        assert event.get("cat") == "phook.flow", f"flow event cat {event}"
        assert event["id"].startswith("0x"), "flow event without hex id"
        if ph == "f":
            assert event.get("bp") == "e", "flow finish must bind enclosing"
    else:
        raise AssertionError(f"unexpected phase {ph!r}")
names = {e["name"].split(":")[0] for e in events if e["ph"] == "X"}
for required in ("serve.batch", "features.transform_all", "model.predict"):
    assert required in names, f"missing span {required} (have {sorted(names)})"
# Causal lanes: at least one request's trace id must connect the umbrella
# slice with the per-stage slices (queue wait + extract at minimum).
connected = [i for i, stages in lanes.items()
             if {"request", "req.queue", "req.extract"} <= stages]
assert connected, f"no connected request lane (lanes: {len(lanes)})"
print(f"{sys.argv[1]} ok: {len(events)} events, {len(names)} distinct spans, "
      f"{len(lanes)} request lanes ({len(connected)} fully connected)")
PY
}

check_chaos_smoke() {
  local out="$1"
  echo "=== contract_scanner: chaos smoke (10% faults) ==="
  if ! grep -q '^status counts: ok=' "${out}"; then
    echo "ci.sh: chaos smoke missing per-status counts" >&2
    exit 1
  fi
  if ! grep -q '^chaos accounting: .* OK$' "${out}"; then
    echo "ci.sh: chaos accounting violated (completed+failed+shed != submitted)" >&2
    grep '^chaos accounting:' "${out}" >&2 || true
    exit 1
  fi
  grep '^status counts:' "${out}"
  grep '^chaos accounting:' "${out}"
}

fetch_url() {
  local url="$1" out="$2"
  if command -v curl >/dev/null 2>&1; then
    curl -sf --max-time 5 "${url}" -o "${out}"
  else
    python3 - "${url}" "${out}" <<'PY'
import sys, urllib.request
body = urllib.request.urlopen(sys.argv[1], timeout=5).read()
open(sys.argv[2], "wb").write(body)
PY
  fi
}

post_url() {
  local url="$1" body="$2" out="$3"
  if command -v curl >/dev/null 2>&1; then
    curl -sf --max-time 5 -X POST -H 'Content-Type: application/json' \
      -d "${body}" "${url}" -o "${out}"
  else
    python3 - "${url}" "${out}" "${body}" <<'PY'
import sys, urllib.request
req = urllib.request.Request(sys.argv[1], data=sys.argv[3].encode(),
                             headers={"Content-Type": "application/json"})
open(sys.argv[2], "wb").write(urllib.request.urlopen(req, timeout=5).read())
PY
  fi
}

# Scrape smoke: stream_follower serving /metrics and /healthz on an
# ephemeral loopback port while the pipeline runs. Pulls both paths mid-run,
# lints the /metrics exposition (grammar + HELP/TYPE pairing + the windowed
# SLO series the pre-scrape hooks refresh), and checks the health JSON and
# the follower's own exit status.
run_scrape_smoke() {
  local dir="$1"
  echo "=== stream_follower: scrape smoke ==="
  rm -f "${dir}/scrape_smoke.out"
  (cd "${dir}" && ./examples/stream_follower --seconds 6 --rate 200 \
    --metrics-port 0 > scrape_smoke.out 2>&1) &
  local follower_pid=$!

  # The follower prints the bound port before the pipeline starts.
  local url="" tries=0
  while [[ -z "${url}" && ${tries} -lt 100 ]]; do
    url="$(grep -o 'http://127\.0\.0\.1:[0-9]*' "${dir}/scrape_smoke.out" \
           2>/dev/null | head -n1 || true)"
    [[ -z "${url}" ]] && sleep 0.1 && tries=$((tries + 1))
  done
  if [[ -z "${url}" ]]; then
    echo "ci.sh: scrape smoke never printed its metrics URL" >&2
    cat "${dir}/scrape_smoke.out" >&2 || true
    kill "${follower_pid}" 2>/dev/null || true
    exit 1
  fi

  if ! fetch_url "${url}/metrics" "${dir}/scrape_metrics.prom" ||
     ! fetch_url "${url}/healthz" "${dir}/scrape_healthz.json"; then
    echo "ci.sh: scrape smoke could not fetch from ${url}" >&2
    cat "${dir}/scrape_smoke.out" >&2 || true
    kill "${follower_pid}" 2>/dev/null || true
    exit 1
  fi
  if ! wait "${follower_pid}"; then
    echo "ci.sh: stream_follower exited nonzero under the scrape smoke" >&2
    cat "${dir}/scrape_smoke.out" >&2 || true
    exit 1
  fi

  lint_prometheus "${dir}/scrape_metrics.prom" stream_requests_submitted \
    stream_window_rate_per_sec stream_window_p99_us stream_error_burn_rate \
    stream_shed_pressure stream_stage_wait_us trace_events_buffered \
    serve_requests_completed
  python3 - "${dir}/scrape_healthz.json" <<'PY'
import json, sys
health = json.load(open(sys.argv[1]))
assert health.get("status") in ("running", "draining", "drained"), \
    f"unexpected health status {health.get('status')!r}"
for key in ("submitted", "completed", "failed", "shed", "queues"):
    assert key in health, f"/healthz missing {key}"
for queue in ("addresses",):
    for key in ("size", "capacity", "closed"):
        assert key in health["queues"][queue], \
            f"/healthz queue {queue} missing {key}"
print(f"scrape smoke ok: health status {health['status']!r}")
PY
}

# JSON-RPC smoke: score_server on one ephemeral port. Scores a freshly
# mined address over the socket (single call + mixed batch) and asserts the
# JSON-RPC 2.0 response shape; then, from the same port, lints /metrics for
# the net_* and serve_* series and checks that /healthz is the phook_health
# document.
run_rpc_smoke() {
  local dir="$1"
  echo "=== score_server: json-rpc smoke ==="
  rm -f "${dir}/rpc_smoke.out"
  (cd "${dir}" && ./examples/score_server --seconds 8 \
    > rpc_smoke.out 2>&1) &
  local server_pid=$!

  # The server prints its RPC URL and a scoreable address once the chain
  # is pre-mined and the listener is bound.
  local addr="" tries=0
  while [[ -z "${addr}" && ${tries} -lt 150 ]]; do
    addr="$(grep -o '== sample_address: 0x[0-9a-fA-F]*' \
            "${dir}/rpc_smoke.out" 2>/dev/null | awk '{print $3}' || true)"
    [[ -z "${addr}" ]] && sleep 0.1 && tries=$((tries + 1))
  done
  local rpc_url
  rpc_url="$(grep -o '== rpc: http://127\.0\.0\.1:[0-9]*/' \
             "${dir}/rpc_smoke.out" 2>/dev/null | awk '{print $3}' || true)"
  if [[ -z "${addr}" || -z "${rpc_url}" ]]; then
    echo "ci.sh: rpc smoke never printed its endpoints" >&2
    cat "${dir}/rpc_smoke.out" >&2 || true
    kill "${server_pid}" 2>/dev/null || true
    exit 1
  fi

  local single_body batch_body
  single_body='{"jsonrpc":"2.0","id":1,"method":"phook_score","params":["'"${addr}"'"]}'
  batch_body='[{"jsonrpc":"2.0","id":"s","method":"phook_score","params":["'"${addr}"'"]},'
  batch_body+='{"jsonrpc":"2.0","id":"h","method":"phook_health"}]'
  if ! post_url "${rpc_url}" "${single_body}" "${dir}/rpc_single.json" ||
     ! post_url "${rpc_url}" "${batch_body}" "${dir}/rpc_batch.json" ||
     ! fetch_url "${rpc_url}metrics" "${dir}/rpc_metrics.prom" ||
     ! fetch_url "${rpc_url}healthz" "${dir}/rpc_healthz.json"; then
    echo "ci.sh: rpc smoke request failed against ${rpc_url}" >&2
    cat "${dir}/rpc_smoke.out" >&2 || true
    kill "${server_pid}" 2>/dev/null || true
    exit 1
  fi
  if ! wait "${server_pid}"; then
    echo "ci.sh: score_server exited nonzero under the rpc smoke" >&2
    cat "${dir}/rpc_smoke.out" >&2 || true
    exit 1
  fi

  lint_prometheus "${dir}/rpc_metrics.prom" net_requests_total \
    net_responses_total net_connections_active net_batch_calls_total \
    net_stage_service_us net_request_total_us serve_requests_completed \
    serve_cache_hit_rate
  python3 - "${dir}/rpc_single.json" "${dir}/rpc_batch.json" \
    "${dir}/rpc_healthz.json" "${addr}" <<'PY'
import json, sys
addr = sys.argv[4]

def check_score(resp, want_id):
    assert resp.get("jsonrpc") == "2.0", f"bad jsonrpc field: {resp!r}"
    assert resp.get("id") == want_id, f"id mismatch: {resp!r}"
    assert "error" not in resp, f"rpc error: {resp!r}"
    res = resp["result"]
    assert res["address"].lower() == addr.lower(), f"wrong address: {res!r}"
    assert res["status"] == "ok", f"score status {res['status']!r}"
    assert 0.0 <= res["probability"] <= 1.0, f"bad probability: {res!r}"
    for key in ("flagged", "cache_hit", "latency_us", "trace_id",
                "stage", "model"):
        assert key in res, f"result missing {key}: {res!r}"
    assert res["stage"] in (0, 1), f"bad cascade stage: {res!r}"

single = json.load(open(sys.argv[1]))
check_score(single, 1)

batch = json.load(open(sys.argv[2]))
assert isinstance(batch, list) and len(batch) == 2, f"bad batch: {batch!r}"
by_id = {r.get("id"): r for r in batch}
check_score(by_id["s"], "s")
# The batch re-asks for the address the single call just scored: a cache
# hit answered on the loop thread at submission, so it never queued.
repeat = by_id["s"]["result"]
assert repeat["cache_hit"] is True, f"repeat missed the cache: {repeat!r}"
assert repeat["queue_wait_us"] == 0, f"repeat was queued: {repeat!r}"
health = by_id["h"]["result"]
assert health["status"] == "ok", f"health status {health!r}"
assert health["engine"]["requests_completed"] >= 1, f"no completions: {health!r}"
assert "requests_degraded" in health["engine"], f"no degraded counter: {health!r}"
# score_server serves a two-stage cascade; health must attribute it.
cascade = health["cascade"]
assert cascade["enabled"] is True, f"cascade disabled: {cascade!r}"
assert len(cascade["stages"]) == 2, f"wrong stage count: {cascade!r}"
for stage in cascade["stages"]:
    for key in ("stage", "model", "rows", "escalations", "faults"):
        assert key in stage, f"cascade stage missing {key}: {stage!r}"
assert cascade["stages"][0]["rows"] >= 1, f"stage 0 never scored: {cascade!r}"

# /healthz on the RPC port is the same phook_health document.
healthz = json.load(open(sys.argv[3]))
assert healthz.get("status") == "ok", f"/healthz status {healthz!r}"
for key in ("engine", "cache", "net", "cascade"):
    assert key in healthz, f"/healthz missing {key}: {healthz!r}"
print(f"rpc smoke ok: scored {addr} "
      f"(p={single['result']['probability']:.3f}, "
      f"trace {single['result']['trace_id']})")
PY
}

run_variant release ""
(cd build-ci-release && ./bench/bench_train_parallel)
check_bench_json build-ci-release/BENCH_train.json
(cd build-ci-release && ./bench/bench_extract --smoke)
check_extract_json build-ci-release/BENCH_extract.json
(cd build-ci-release && ./bench/bench_infer --smoke)
check_infer_json build-ci-release/BENCH_infer.json
# Stream smoke: the whole miner -> follower -> load generator -> engine
# pipeline under both arrival scenarios, with the accounting identity and
# the BENCH_stream.json schema machine-checked.
(cd build-ci-release && ./bench/bench_stream --smoke)
check_stream_json build-ci-release/BENCH_stream.json
# Cascade smoke: band sweep over the two-stage scorer; the gate demands a
# band that keeps >= 2x of the heavy model's throughput headroom at
# <= 0.5 pp accuracy loss, plus the disabled / full-band control points.
(cd build-ci-release && ./bench/bench_cascade --smoke)
check_cascade_json build-ci-release/BENCH_cascade.json
(cd build-ci-release && ./bench/bench_serve_throughput 1 |
  tee serve_throughput.out)
awk 'NF == 9 && $1 ~ /^[0-9]+$/ {
  printf "bench_serve_throughput: %s workers, %s rows/s\n", $1, $3 }' \
  build-ci-release/serve_throughput.out
check_prometheus build-ci-release/BENCH_serve_metrics.prom
(cd build-ci-release &&
  PHISHINGHOOK_TRACE=scanner_trace.json ./examples/contract_scanner)
check_trace build-ci-release/scanner_trace.json
# Chaos smoke: the scanner against a 10% fault-injecting explorer must exit
# 0 (no aborted workers, no lost results) and report per-status counts that
# account for every submission.
(cd build-ci-release && ./examples/contract_scanner --chaos 0.10 \
  | tee chaos_smoke.out >/dev/null)
check_chaos_smoke build-ci-release/chaos_smoke.out
run_scrape_smoke build-ci-release
run_rpc_smoke build-ci-release

run_variant asan address

# TSan cannot be combined with ASan, and slows everything ~10x, so it runs
# only the suites with actual cross-thread state: the serving engine, its
# chaos/fault-injection suite, the cascade suite (worker-count determinism
# and degraded-path accounting), the thread-pool unit tests, the pool-backed
# training determinism suite, the telemetry layer, and the socket/JSON-RPC
# front end (event loop + cross-thread replies under concurrent clients).
run_variant tsan thread "-R test_serve|test_serve_faults|test_cascade|test_thread_pool|test_parallel_determinism|test_obs|test_stream|test_net"

# No-SIMD leg: build with PHISHINGHOOK_SIMD compiled out (and gcc's
# autovectorizers off) and run the fast-vs-legacy equivalence suite. The
# scalar fallbacks must be bit-identical to the vectorized build — this is
# the proof that the SIMD pragmas are an optimization, never a semantic.
echo "=== nosimd: configure ==="
cmake -B build-ci-nosimd -S . -DCMAKE_BUILD_TYPE=Release \
      -DPHISHINGHOOK_NO_SIMD=ON >/dev/null
echo "=== nosimd: build ==="
cmake --build build-ci-nosimd -j "${JOBS}" --target test_features_fast
echo "=== nosimd: test_features_fast ==="
(cd build-ci-nosimd && ./tests/test_features_fast)

echo "=== ci.sh: all variants green ==="
