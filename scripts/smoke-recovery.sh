#!/usr/bin/env bash
# Recovery smoke: the durable store's acceptance contract, end to end
# over the real binaries.
#
#   1. a server started with -data-dir WALs every mutation: publish a
#      servable, deploy it, install an autoscale policy — and
#      /api/v2/stats exposes the wal counters;
#   2. kill -9 the whole control plane (server AND task manager) — no
#      shutdown checkpoint, the WAL tail is all there is;
#   3. restart with the same -data-dir: the log replays, and the
#      servable, its placement and its policy are all still there
#      BEFORE anything re-deploys;
#   4. the recovered package is complete: deploying it onto the fresh
#      TM (no re-publish) works and the servable serves again;
#   5. SIGTERM stops the restarted server cleanly: it exits 0 and logs
#      no listener failure on the way out.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/smoke-lib.sh

HTTP=127.0.0.1:18085
QUEUE=127.0.0.1:17005
BASE=http://$HTTP
DATA=$SMOKE_WORK/data

build_bins dlhub-server dlhub-taskmanager dlhub

"$SMOKE_BIN/dlhub-server" -http "$HTTP" -queue "$QUEUE" -data-dir "$DATA" &
SERVER_PID=$!
wait_for_healthy "$BASE"
"$SMOKE_BIN/dlhub-taskmanager" -queue "$QUEUE" -id recovery-tm-1 -nodes 2 -heartbeat 300ms &
TM_PID=$!
wait_for_ready "$BASE"
wait_for_tm "$BASE" recovery-tm-1

export DLHUB_SERVER=$BASE
cd "$SMOKE_WORK"
"$SMOKE_BIN/dlhub" init -name recovery -title "Recovery smoke" -author "CI" \
  -type python_function -entry test:length
"$SMOKE_BIN/dlhub" publish
curl -fsS -X POST -d '{"replicas":2,"tm":"recovery-tm-1"}' \
  "$BASE/api/v2/servables/anonymous/recovery/deploy" >/dev/null
curl -fsS -X PUT -d '{"enabled":true,"min_replicas":1,"max_replicas":4}' \
  "$BASE/api/v2/servables/anonymous/recovery/autoscale" >/dev/null

# Every mutation above must already be on disk (fsynced per record).
wal=$(curl -fsS "$BASE/api/v2/stats" | grep -o '"wal":{[^}]*}')
echo "recovery: pre-kill $wal"
records=$(echo "$wal" | grep -o '"records":[0-9]*' | cut -d: -f2)
if [ -z "$records" ] || [ "$records" -lt 3 ]; then
  echo "recovery: expected >= 3 wal records (publish, deploy, policy), got '$records'"
  exit 1
fi

echo "recovery: kill -9 server (pid $SERVER_PID) and TM (pid $TM_PID)"
kill -9 "$SERVER_PID" "$TM_PID"

# Same -data-dir: checkpoint + WAL tail replay rebuilds the repository.
# Its log is kept for step 5 and shown when the script exits.
SERVER_LOG=$SMOKE_WORK/server.log
trap 'cat "$SERVER_LOG" >&2 2>/dev/null; smoke_cleanup' EXIT
"$SMOKE_BIN/dlhub-server" -http "$HTTP" -queue "$QUEUE" -data-dir "$DATA" 2>"$SERVER_LOG" &
SERVER_PID=$!
wait_for_healthy "$BASE"

# Recovered state is visible BEFORE any TM or deploy comes back.
servable=$(curl -fsS "$BASE/api/v2/servables/anonymous/recovery")
echo "$servable" | grep -q '"recovery-tm-1"' \
  || { echo "recovery: placement lost across restart: $servable"; exit 1; }
echo "recovery: servable + placement survived"

policy=$(curl -fsS "$BASE/api/v2/servables/anonymous/recovery/autoscale")
echo "$policy" | grep -q '"max_replicas":4' \
  || { echo "recovery: autoscale policy lost across restart: $policy"; exit 1; }
echo "recovery: autoscale policy survived"

# Recovery folded the replayed tail into a fresh checkpoint.
wal=$(curl -fsS "$BASE/api/v2/stats" | grep -o '"wal":{[^}]*}')
echo "recovery: post-restart $wal"
compactions=$(echo "$wal" | grep -o '"compactions":[0-9]*' | cut -d: -f2)
if [ -z "$compactions" ] || [ "$compactions" -lt 1 ]; then
  echo "recovery: expected a recovery compaction in wal stats"
  exit 1
fi

# A fresh TM site: the recovered PACKAGE (components included) must be
# deployable without a re-publish, and then serve.
"$SMOKE_BIN/dlhub-taskmanager" -queue "$QUEUE" -id recovery-tm-1 -nodes 2 -heartbeat 300ms &
wait_for_ready "$BASE"
wait_for_tm "$BASE" recovery-tm-1
curl -fsS -X POST -d '{"replicas":1,"tm":"recovery-tm-1"}' \
  "$BASE/api/v2/servables/anonymous/recovery/deploy" >/dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"input":"after-recovery","no_memo":true}' \
  "$BASE/api/v2/servables/anonymous/recovery/run")
[ "$code" = "200" ] || { echo "recovery: post-recovery request failed ($code)"; exit 1; }
echo "recovery: recovered servable serves"

# A graceful shutdown closes the listeners on purpose; neither may
# report that as the server stopping on an error.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "recovery: server exited $? after SIGTERM"; exit 1; }
if grep -E 'queue server stopped|http server stopped' "$SERVER_LOG"; then
  echo "recovery: graceful shutdown logged a listener failure"
  exit 1
fi
echo "recovery: SIGTERM shutdown is clean"

echo "smoke-recovery: OK"
