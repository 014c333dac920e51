#!/bin/sh
# End-to-end check of the paper's CLI workflow: teeperf_record launches an
# instrumented application in a child process, communicates over named
# POSIX shared memory, persists <prefix>.log, the child writes <prefix>.sym
# at exit, and teeperf_analyze / teeperf_flamegraph consume the pair.
#
# Usage: cross_process_test.sh <bindir>
set -e
BIN="$1"
OUT=$(mktemp -d /tmp/teeperf_xproc.XXXXXX)
trap 'rm -rf "$OUT"' EXIT

# Every session in this run publishes into a private registry dir, so the
# pid/session arguments below resolve through discovery (and concurrent
# CI jobs never see each other's sessions).
TEEPERF_SESSION_DIR="$OUT/sessions"
export TEEPERF_SESSION_DIR

"$BIN/tools/teeperf_record" -o "$OUT/run" -n 262144 -c tsc -- \
    "$BIN/examples/instrumented_app" "$OUT/ignored" > "$OUT/app.out" 2>&1

test -s "$OUT/run.log" || { echo "FAIL: run.log missing/empty"; exit 1; }
test -s "$OUT/run.sym" || { echo "FAIL: run.sym missing/empty"; exit 1; }
grep -q "recorded by wrapper" "$OUT/app.out" || {
  echo "FAIL: app did not detect wrapper session"; cat "$OUT/app.out"; exit 1; }

"$BIN/tools/teeperf_analyze" "$OUT/run" --top 10 --threads \
    --folded "$OUT/run.folded" > "$OUT/analyze.out"
grep -q "fibonacci" "$OUT/analyze.out" || {
  echo "FAIL: fibonacci not symbolized across processes"; cat "$OUT/analyze.out"; exit 1; }
test -s "$OUT/run.folded" || { echo "FAIL: folded output missing"; exit 1; }

"$BIN/tools/teeperf_flamegraph" "$OUT/run.folded" "$OUT/run.svg" --title xproc
grep -q "<svg" "$OUT/run.svg" || { echo "FAIL: svg output invalid"; exit 1; }

# Dynamic-activation path: start inactive, log must stay empty.
"$BIN/tools/teeperf_record" --inactive -o "$OUT/off" -- \
    "$BIN/examples/instrumented_app" "$OUT/ignored2" > /dev/null 2>&1
"$BIN/tools/teeperf_analyze" "$OUT/off" > "$OUT/off.out"
grep -q "entries=0" "$OUT/off.out" || {
  echo "FAIL: inactive session recorded entries"; cat "$OUT/off.out"; exit 1; }

# Self-telemetry sidecars: the first run must have produced a health
# snapshot and an event journal, and the analyzer folds them in.
test -s "$OUT/run.health" || { echo "FAIL: run.health missing"; exit 1; }
test -s "$OUT/run.events.jsonl" || { echo "FAIL: run.events.jsonl missing"; exit 1; }
grep -q "recorder health" "$OUT/analyze.out" || {
  echo "FAIL: analyze output lacks recorder-health section"
  cat "$OUT/analyze.out"; exit 1; }
grep -q '"event":"attach"' "$OUT/run.events.jsonl" || {
  echo "FAIL: no attach event journaled"; cat "$OUT/run.events.jsonl"; exit 1; }

# Live scraping: hold the session open after the child exits and attach
# teeperf_stats to the wrapper's obs region by pid.
"$BIN/tools/teeperf_record" -o "$OUT/live" -c software --hold-ms 4000 -- \
    "$BIN/examples/instrumented_app" "$OUT/ignored3" > /dev/null 2>&1 &
REC_PID=$!
# Retry the attach: under load the wrapper may take a moment to create the
# obs region (and the hold window is 3s).
ATTACHED=0
for attempt in 1 2 3 4 5 6 7 8 9 10; do
  sleep 0.2
  if "$BIN/tools/teeperf_stats" "$REC_PID" > "$OUT/stats.out" 2>&1; then
    if grep -q "app.thread" "$OUT/stats.out"; then ATTACHED=1; break; fi
  fi
done
[ "$ATTACHED" = 1 ] || {
  echo "FAIL: teeperf_stats could not attach to live session"
  cat "$OUT/stats.out"; exit 1; }
# External fault arming (TESTING.md): writing the fault.arm gauge from this
# untrusted scraper must make the session's watchdog freeze its own counter
# and journal the stall — no signal, no restart.
"$BIN/tools/teeperf_stats" "$REC_PID" --arm counter.stall=1 --no-events \
    > /dev/null 2>&1 || { echo "FAIL: --arm against live session failed"; exit 1; }
wait "$REC_PID"
grep -q '"event":"counter_stall"' "$OUT/live.events.jsonl" || {
  echo "FAIL: externally armed counter.stall never surfaced"
  cat "$OUT/live.events.jsonl"; exit 1; }
grep -q "log.tail" "$OUT/stats.out" || {
  echo "FAIL: live scrape missing ring metrics"; cat "$OUT/stats.out"; exit 1; }
TAIL=$(awk '/log.tail/ {print $3}' "$OUT/stats.out")
RATE=$(awk '/log.entry_rate_peak_per_s/ {print $3}' "$OUT/stats.out")
[ "${TAIL:-0}" -gt 0 ] || {
  echo "FAIL: live ring occupancy is zero"; cat "$OUT/stats.out"; exit 1; }
[ "${RATE:-0}" -gt 0 ] || {
  echo "FAIL: live entry rate is zero"; cat "$OUT/stats.out"; exit 1; }

# Watchdog fault injection: freezing the software counter mid-hold must
# surface as a counter_stall event in the journal export and as a warning in
# the analyzer's health section.
"$BIN/tools/teeperf_record" -o "$OUT/stall" -c software \
    --freeze-counter-after-ms 100 --hold-ms 800 -- \
    "$BIN/examples/instrumented_app" "$OUT/ignored4" > /dev/null 2>&1
grep -q '"event":"counter_stall"' "$OUT/stall.events.jsonl" || {
  echo "FAIL: frozen counter produced no stall event"
  cat "$OUT/stall.events.jsonl"; exit 1; }
"$BIN/tools/teeperf_analyze" "$OUT/stall" > "$OUT/stall.out"
grep -q "WARNING: counter_stall" "$OUT/stall.out" || {
  echo "FAIL: analyze health section lacks stall warning"
  cat "$OUT/stall.out"; exit 1; }

# Negative paths: a truncated dump must fail analysis loudly (non-zero
# exit, diagnostic), and a bad --faults spec must be a usage error.
head -c 64 "$OUT/run.log" > "$OUT/trunc.log"
if "$BIN/tools/teeperf_analyze" "$OUT/trunc" > "$OUT/trunc.out" 2>&1; then
  echo "FAIL: analyze accepted a sub-header dump"; exit 1
fi
grep -q "cannot load" "$OUT/trunc.out" || {
  echo "FAIL: truncated-dump failure lacks diagnostic"; cat "$OUT/trunc.out"; exit 1; }
if "$BIN/tools/teeperf_record" --faults "nonsense:nth=" -- true \
    > "$OUT/badfault.out" 2>&1; then
  echo "FAIL: record accepted malformed --faults"; exit 1
fi
grep -q "bad --faults" "$OUT/badfault.out" || {
  echo "FAIL: bad --faults lacks diagnostic"; cat "$OUT/badfault.out"; exit 1; }

# Fault injection end to end: arm the child's append path so it dies
# mid-run; the wrapper still persists a dump whose valid prefix analyzes,
# and the reconstruction summary reports the torn tail as a tombstone.
if "$BIN/tools/teeperf_record" -o "$OUT/die" -c steady_clock \
    --faults "log.append.die:nth=40" --fault-seed 3 -- \
    "$BIN/examples/instrumented_app" "$OUT/ignored5" > /dev/null 2>&1; then
  echo "FAIL: record exited 0 despite SIGKILLed child"; exit 1
fi
test -s "$OUT/die.log" || { echo "FAIL: die.log missing after fault run"; exit 1; }
"$BIN/tools/teeperf_analyze" "$OUT/die" --validate > "$OUT/die.out" || {
  echo "FAIL: analyze rejected fault-run dump"; cat "$OUT/die.out"; exit 1; }

# Spill-drain end to end (DESIGN.md §10): a session several times the shm
# capacity streams through the live drainer — with the drainer killed
# mid-run by fault injection. The wrapper must restart it, resume must be
# exact (chunks persist before the cursor advances), and the analyzer must
# stitch chunks + residue into one lossless profile.
mkdir -p "$OUT/sp"
"$BIN/tools/teeperf_record" -o "$OUT/sp/run" -n 4096 -c tsc \
    --spill "$OUT/sp" --spill-chunk-entries 512 \
    --faults "drain.die:nth=2" --fault-seed 1 -- \
    "$BIN/examples/instrumented_app" "$OUT/ignored6" > "$OUT/spill.out" 2>&1 || {
  echo "FAIL: spill-drain record run failed"; cat "$OUT/spill.out"; exit 1; }
grep -q "drainer died; resuming" "$OUT/spill.out" || {
  echo "FAIL: injected drainer death never restarted"; cat "$OUT/spill.out"; exit 1; }
grep -q "spilled" "$OUT/spill.out" || {
  echo "FAIL: spill session reported no spill summary"; cat "$OUT/spill.out"; exit 1; }
test -s "$OUT/sp/run.seg.0000" || { echo "FAIL: no chunk files persisted"; exit 1; }
"$BIN/tools/teeperf_analyze" "$OUT/sp/run" --top 5 > "$OUT/spill_analyze.out" || {
  echo "FAIL: analyze rejected spill session"; cat "$OUT/spill_analyze.out"; exit 1; }
grep -q "fibonacci" "$OUT/spill_analyze.out" || {
  echo "FAIL: spill session lost symbolization"; cat "$OUT/spill_analyze.out"; exit 1; }
# The path and flame-graph commands stream the same spill session.
"$BIN/tools/teeperf_analyze" "$OUT/sp/run" --tree --svg "$OUT/sp/run.svg" \
    --hottest > "$OUT/spill_views.out" || {
  echo "FAIL: --tree --svg --hottest rejected spill session"
  cat "$OUT/spill_views.out"; exit 1; }
grep -q "<all threads>" "$OUT/spill_views.out" &&
  grep -q "hottest stack" "$OUT/spill_views.out" &&
  grep -q "<svg" "$OUT/sp/run.svg" || {
  echo "FAIL: spill session call tree, hottest stack or SVG missing"
  cat "$OUT/spill_views.out"; exit 1; }
# Lossless: every attempted entry analyzed (no drops, no torn slots), and
# the session really overran the in-memory window more than 4x.
ATTEMPTED=$(sed -n 's/.*(\([0-9][0-9]*\) attempted).*/\1/p' "$OUT/spill.out" | head -1)
ENTRIES=$(sed -n 's/.*entries=\([0-9][0-9]*\).*/\1/p' "$OUT/spill_analyze.out" | head -1)
TOMB=$(sed -n 's/.*tombstones=\([0-9][0-9]*\).*/\1/p' "$OUT/spill_analyze.out" | head -1)
[ "${ENTRIES:-0}" -gt 16384 ] || {
  echo "FAIL: spill session entries=$ENTRIES did not exceed 4x the shm window"
  cat "$OUT/spill_analyze.out"; exit 1; }
[ "${ENTRIES:-0}" -eq "${ATTEMPTED:-1}" ] || {
  echo "FAIL: spill session dropped entries ($ENTRIES analyzed of $ATTEMPTED attempted)"
  cat "$OUT/spill.out" "$OUT/spill_analyze.out"; exit 1; }
[ "${TOMB:-1}" -eq 0 ] || {
  echo "FAIL: spill session analyzed with tombstones=$TOMB"
  cat "$OUT/spill_analyze.out"; exit 1; }
# And the two reclaim policies stay mutually exclusive at the CLI.
if "$BIN/tools/teeperf_record" --spill "$OUT/sp" --ring -- true \
    > "$OUT/spillring.out" 2>&1; then
  echo "FAIL: record accepted --spill with --ring"; exit 1
fi

# Fleet-monitoring daemon e2e (DESIGN.md §11): one teeperf_monitord
# discovers three concurrent recorded apps through the session registry,
# serves all three on /metrics with {session,pid} labels, drops a session
# after its app exits, serves flame graphs — and dying mid-scrape must
# never wedge the recorded apps.
"$BIN/tools/teeperf_monitord" --listen 127.0.0.1:0 --port-file "$OUT/mon.port" \
    --poll-ms 100 --gc-interval-ms 500 --flame-interval-ms 200 \
    > "$OUT/mon.err" 2>&1 &
MON_PID=$!
for attempt in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  [ -s "$OUT/mon.port" ] && break
  sleep 0.1
done
[ -s "$OUT/mon.port" ] || {
  echo "FAIL: monitord never wrote its port file"; cat "$OUT/mon.err"; exit 1; }
MON_PORT=$(cat "$OUT/mon.port")
MON_URL="http://127.0.0.1:$MON_PORT"

"$BIN/tools/teeperf_monitord" --get "$MON_URL/healthz" > "$OUT/healthz.out" || {
  echo "FAIL: monitord /healthz not ok"; cat "$OUT/mon.err"; exit 1; }

"$BIN/tools/teeperf_record" -o "$OUT/fleet1" --hold-ms 8000 -- \
    "$BIN/examples/instrumented_app" "$OUT/ig_f1" > /dev/null 2>&1 &
F1=$!
"$BIN/tools/teeperf_record" -o "$OUT/fleet2" --hold-ms 8000 -- \
    "$BIN/examples/instrumented_app" "$OUT/ig_f2" > /dev/null 2>&1 &
F2=$!
"$BIN/tools/teeperf_record" -o "$OUT/fleet3" --hold-ms 1500 -- \
    "$BIN/examples/instrumented_app" "$OUT/ig_f3" > /dev/null 2>&1 &
F3=$!

# All three sessions must appear on /metrics, labeled by wrapper pid.
FLEET=0
for attempt in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 \
               21 22 23 24 25 26 27 28 29 30; do
  sleep 0.2
  "$BIN/tools/teeperf_monitord" --get "$MON_URL/metrics" \
      > "$OUT/fleet.scrape" 2>/dev/null || continue
  if grep -q "pid=\"$F1\"" "$OUT/fleet.scrape" &&
     grep -q "pid=\"$F2\"" "$OUT/fleet.scrape" &&
     grep -q "pid=\"$F3\"" "$OUT/fleet.scrape"; then FLEET=1; break; fi
done
[ "$FLEET" = 1 ] || {
  echo "FAIL: /metrics never showed all three fleet sessions"
  cat "$OUT/fleet.scrape"; exit 1; }
NSESS=$(grep -o 'session="teeperf\.[^"]*"' "$OUT/fleet.scrape" | sort -u | wc -l)
[ "$NSESS" -ge 3 ] || {
  echo "FAIL: expected >=3 distinct session labels, got $NSESS"
  cat "$OUT/fleet.scrape"; exit 1; }
grep -q "# TYPE teeperf_log_tail gauge" "$OUT/fleet.scrape" || {
  echo "FAIL: scrape lacks TYPE line for log.tail"; cat "$OUT/fleet.scrape"; exit 1; }
grep -q "teeperf_monitord_scrapes" "$OUT/fleet.scrape" || {
  echo "FAIL: scrape lacks daemon self-metrics"; cat "$OUT/fleet.scrape"; exit 1; }

# The registry CLI view agrees: three live sessions.
"$BIN/tools/teeperf_stats" --list > "$OUT/list.out"
NLIVE=$(grep -c " live " "$OUT/list.out" || true)
[ "$NLIVE" -ge 3 ] || {
  echo "FAIL: teeperf_stats --list shows $NLIVE live sessions, want >=3"
  cat "$OUT/list.out"; exit 1; }

# Rolling flame graph for one attached session.
FLEET_SES=$(grep -o 'session="teeperf\.[^"]*"' "$OUT/fleet.scrape" \
    | head -1 | sed 's/session="//; s/"//')
"$BIN/tools/teeperf_monitord" --get "$MON_URL/flamegraph/$FLEET_SES" \
    > "$OUT/fleet.folded" || {
  echo "FAIL: /flamegraph/$FLEET_SES not served"; cat "$OUT/mon.err"; exit 1; }

# The session descriptor carries the wrapper's dump prefix: once fleet app 1
# has exited (writing its .sym) while its wrapper still holds the session,
# monitord finds that .sym through the descriptor and names the functions.
F1_SES=$(grep "pid=\"$F1\"" "$OUT/fleet.scrape" \
    | grep -o 'session="teeperf\.[^"]*"' | head -1 | sed 's/session="//; s/"//')
NAMED=0
for attempt in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  sleep 0.2
  "$BIN/tools/teeperf_monitord" --get "$MON_URL/flamegraph/$F1_SES" \
      > "$OUT/fleet1.folded" 2>/dev/null || continue
  if grep -q "fibonacci" "$OUT/fleet1.folded"; then NAMED=1; break; fi
done
[ "$NAMED" = 1 ] || {
  echo "FAIL: /flamegraph/$F1_SES never named fibonacci (.sym not found via the descriptor)"
  cat "$OUT/fleet1.folded"; exit 1; }

# The short-hold app exits; its series must disappear within a poll cycle.
wait "$F3"
GONE=0
for attempt in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  sleep 0.2
  "$BIN/tools/teeperf_monitord" --get "$MON_URL/metrics" \
      > "$OUT/fleet2.scrape" 2>/dev/null || continue
  if ! grep -q "pid=\"$F3\"" "$OUT/fleet2.scrape"; then GONE=1; break; fi
done
[ "$GONE" = 1 ] || {
  echo "FAIL: exited session pid=$F3 still exported"; cat "$OUT/fleet2.scrape"; exit 1; }

# Kill the daemon mid-scrape: the recorded apps must finish untouched.
"$BIN/tools/teeperf_monitord" --get "$MON_URL/metrics" > /dev/null 2>&1 &
SCRAPER=$!
kill -9 "$MON_PID" 2>/dev/null
wait "$SCRAPER" 2>/dev/null || true
wait "$MON_PID" 2>/dev/null || true
wait "$F1" || { echo "FAIL: fleet app 1 wedged by daemon death"; exit 1; }
wait "$F2" || { echo "FAIL: fleet app 2 wedged by daemon death"; exit 1; }
test -s "$OUT/fleet1.log" || { echo "FAIL: fleet1.log missing"; exit 1; }
test -s "$OUT/fleet2.log" || { echo "FAIL: fleet2.log missing"; exit 1; }
"$BIN/tools/teeperf_analyze" "$OUT/fleet1" --top 3 > /dev/null || {
  echo "FAIL: fleet1 dump does not analyze"; exit 1; }

# Clean exits withdrew their descriptors: nothing left to discover.
"$BIN/tools/teeperf_stats" --list > "$OUT/list2.out"
if grep -q " live " "$OUT/list2.out"; then
  echo "FAIL: live sessions remain after all apps exited"
  cat "$OUT/list2.out"; exit 1
fi

echo "PASS"
