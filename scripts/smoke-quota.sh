#!/usr/bin/env bash
# Quota smoke: against a plain server, prove that
#
#   1. the unversioned /api/* routes removed in PR 15 are gone
#      (GET /api/servables is a 404);
#   2. the complete publish → deploy → run → stats flow works over
#      /api/v2;
#   3. the multi-tenant QoS surface works end to end:
#      `dlhub tenant set-quota` / `tenant ls` round-trip a quota
#      through PUT /api/v2/tenants/{id}/quota, a tenant flooding past
#      max_in_flight is rejected with the quota_exceeded error code,
#      and /api/v2/stats reports the per-tenant counters.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/smoke-lib.sh

HTTP=127.0.0.1:18084
QUEUE=127.0.0.1:17004
BASE=http://$HTTP

build_bins dlhub-server dlhub-taskmanager dlhub

"$SMOKE_BIN/dlhub-server" -http "$HTTP" -queue "$QUEUE" &
wait_for_healthy "$BASE"
"$SMOKE_BIN/dlhub-taskmanager" -queue "$QUEUE" -id quota-tm-1 -nodes 2 -heartbeat 300ms &
wait_for_ready "$BASE"
wait_for_tm "$BASE" quota-tm-1

code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/api/servables")
[ "$code" = "404" ] || { echo "quota: GET /api/servables -> $code, want 404"; exit 1; }

echo "== the full flow works over /api/v2 =="
export DLHUB_SERVER=$BASE
cd "$SMOKE_WORK"
"$SMOKE_BIN/dlhub" init -name quota -title "quota smoke" -author "CI" \
  -type python_function -entry test:sleep
"$SMOKE_BIN/dlhub" publish
curl -fsS -X POST -d '{"replicas":1,"tm":"quota-tm-1"}' \
  "$BASE/api/v2/servables/anonymous/quota/deploy" >/dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"input":"ping","no_memo":true}' \
  "$BASE/api/v2/servables/anonymous/quota/run")
[ "$code" = "200" ] || { echo "quota: v2 run failed ($code)"; exit 1; }

echo "== tenant quota CLI + route =="
"$SMOKE_BIN/dlhub" tenant set-quota -max-in-flight 1 -rate 1 -priority low acme
"$SMOKE_BIN/dlhub" tenant ls | grep -Eq '^acme\s+low' || { echo "quota: tenant ls missing acme"; exit 1; }
# Flood past the quota from the acme tenant (auth is off, so the
# X-DLHub-Tenant header carries the tenant tag): with max_in_flight=1
# and rate 1/s, a burst of 8 must trip quota_exceeded at least once.
saw_quota=0
for i in $(seq 1 8); do
  body=$(curl -s -X POST -H 'X-DLHub-Tenant: acme' \
    -d "{\"input\":\"q$i\",\"no_memo\":true}" \
    "$BASE/api/v2/servables/anonymous/quota/run")
  if echo "$body" | grep -q 'quota_exceeded'; then saw_quota=1; fi
done
[ "$saw_quota" = "1" ] || { echo "quota: flood never hit quota_exceeded"; exit 1; }
stats=$(curl -fsS "$BASE/api/v2/stats")
echo "$stats" | grep -q '"tenants"' || { echo "quota: stats missing tenants block"; exit 1; }
echo "$stats" | grep -q '"acme"' || { echo "quota: stats missing acme tenant"; exit 1; }
echo "quota: quota enforced and reported for tenant acme"

echo "smoke-quota: OK"
