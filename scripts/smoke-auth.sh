#!/usr/bin/env bash
# Auth smoke: durable identity + strict token auth, end to end over the
# real binaries.
#
#   1. a server started with -auth -data-dir answers 401 to any request
#      without a bearer token — including one that tries the
#      X-DLHub-Tenant development header (the shim is a rejected side
#      door when auth is on, on v2 AND v1 routes);
#   2. an account registers, `dlhub login` obtains a token, and the
#      token drives the API: whoami resolves the identity to its
#      tenant, and `dlhub tenant set-quota` installs a durable quota;
#   3. kill -9 the server — no shutdown checkpoint. The restarted
#      server (same -data-dir) must: reject the OLD token (tokens are
#      deliberately not durable), let the replayed account simply log
#      in again, and still have the quota (DURABLE true);
#   4. strict mode holds after recovery: unauthenticated and
#      header-spoofed requests still answer 401.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/smoke-lib.sh

HTTP=127.0.0.1:18086
QUEUE=127.0.0.1:17006
BASE=http://$HTTP
DATA=$SMOKE_WORK/data
export DLHUB_SERVER=$BASE
export DLHUB_TOKEN_FILE=$SMOKE_WORK/token
export DLHUB_PASSWORD=hunter2

build_bins dlhub-server dlhub-taskmanager dlhub

"$SMOKE_BIN/dlhub-server" -http "$HTTP" -queue "$QUEUE" -data-dir "$DATA" -auth &
SERVER_PID=$!
wait_for_healthy "$BASE"
"$SMOKE_BIN/dlhub-taskmanager" -queue "$QUEUE" -id auth-tm-1 -nodes 2 -heartbeat 300ms &
wait_for_ready "$BASE"

# --- 1: no token, no service ------------------------------------------------
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/api/v2/tenants")
[ "$code" = "401" ] || { echo "auth: unauthenticated v2 request got $code, want 401"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'X-DLHub-Tenant: acme' "$BASE/api/v2/tenants")
[ "$code" = "401" ] || { echo "auth: header-spoofed v2 request got $code, want 401"; exit 1; }
echo "auth: anonymous and header-spoofed requests rejected"

# --- 2: register, login, durable quota ---------------------------------------
"$SMOKE_BIN/dlhub" register -user alice -name "Alice" -tenant acme
"$SMOKE_BIN/dlhub" login -user alice
"$SMOKE_BIN/dlhub" whoami | grep -q '"tenant": "acme"' \
  || { echo "auth: whoami does not resolve to tenant acme"; exit 1; }
"$SMOKE_BIN/dlhub" tenant set-quota -max-in-flight 2 -rate 5 -priority high acme
"$SMOKE_BIN/dlhub" tenant ls | grep -E '^acme\s+high' | grep -q 'true' \
  || { echo "auth: tenant ls does not show acme's quota as durable"; exit 1; }
echo "auth: alice registered, logged in, quota installed (durable)"
OLD_TOKEN=$(cat "$DLHUB_TOKEN_FILE")

# Registration is create-only: re-registering alice (new password) is a
# 409 and must not overwrite her credential.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/api/v2/auth/register" \
  -H 'Content-Type: application/json' \
  -d '{"username":"alice","password":"stolen"}')
[ "$code" = "409" ] || { echo "auth: duplicate registration got $code, want 409"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/api/v2/auth/login" \
  -H 'Content-Type: application/json' \
  -d '{"username":"alice","password":"stolen"}')
[ "$code" = "401" ] || { echo "auth: takeover password logs in ($code), want 401"; exit 1; }
echo "auth: duplicate registration rejected, credential intact"

# --- 3: kill -9, recover ------------------------------------------------------
echo "auth: kill -9 server (pid $SERVER_PID)"
kill -9 "$SERVER_PID"
"$SMOKE_BIN/dlhub-server" -http "$HTTP" -queue "$QUEUE" -data-dir "$DATA" -auth &
wait_for_healthy "$BASE"

# The old bearer died with the process (tokens are not durable)...
code=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer $OLD_TOKEN" "$BASE/api/v2/tenants")
[ "$code" = "401" ] || { echo "auth: pre-restart token still works ($code), want 401"; exit 1; }
echo "auth: pre-restart token invalidated by the restart"

# ...but the account was WAL-replayed: the same credentials log in again,
# and the binding still resolves to acme.
"$SMOKE_BIN/dlhub" login -user alice
"$SMOKE_BIN/dlhub" whoami | grep -q '"tenant": "acme"' \
  || { echo "auth: recovered account does not resolve to acme"; exit 1; }

# The quota survived the kill: same spec, still marked durable.
tenants=$(curl -fsS -H "Authorization: Bearer $(cat "$DLHUB_TOKEN_FILE")" "$BASE/api/v2/tenants")
echo "$tenants" | grep -q '"max_in_flight":2' \
  || { echo "auth: quota lost across restart: $tenants"; exit 1; }
echo "$tenants" | grep -q '"durable":true' \
  || { echo "auth: recovered quota not marked durable: $tenants"; exit 1; }
echo "auth: account and quota survived kill -9"

# --- 4: strict mode holds after recovery --------------------------------------
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/api/v2/tenants")
[ "$code" = "401" ] || { echo "auth: post-restart unauthenticated request got $code, want 401"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'X-DLHub-Tenant: acme' "$BASE/api/v2/tenants")
[ "$code" = "401" ] || { echo "auth: post-restart header spoof got $code, want 401"; exit 1; }

# Logout revokes: the token stops working server-side.
TOKEN=$(cat "$DLHUB_TOKEN_FILE")
"$SMOKE_BIN/dlhub" logout
code=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer $TOKEN" "$BASE/api/v2/tenants")
[ "$code" = "401" ] || { echo "auth: revoked token still works ($code), want 401"; exit 1; }
echo "auth: logout revoked the token server-side"

echo "smoke-auth: OK"
