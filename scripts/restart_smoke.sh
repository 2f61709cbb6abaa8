#!/usr/bin/env bash
# Process-level durability smoke: boot rds-serve with -state-dir,
# upload a dataset (plus one as tenant acme), register a baseline_ref
# monitor, and submit a seven-stage remediation pipeline over HTTP,
# kill -9 the process, boot a fresh one over the same directory, and
# assert the startup line counts every tenant's datasets, the dataset
# and the pinned monitor came back, acme still owns its dataset (named
# only by the X-RDS-Tenant header), and the pipeline record finishes
# done with every stage — whether the SIGKILL landed mid-run (the boot
# path resumes it at its last persisted stage) or after it completed
# (the boot path finalizes it). This is the shell-level twin of
# internal/e2e TestRestartEndToEnd and TestPipelineRestartEndToEnd —
# it exercises the real binary and a real SIGKILL instead of an
# in-process stop.
#
# Usage: scripts/restart_smoke.sh [port]
set -euo pipefail

PORT="${1:-18080}"
ADDR="127.0.0.1:${PORT}"
BASE="http://${ADDR}"
STATE_DIR="$(mktemp -d)"
BIN="$(mktemp -d)/rds-serve"
LOG="$(dirname "${BIN}")/second-life.log"
SERVER_PID=""

cleanup() {
  [ -n "${SERVER_PID}" ] && kill -9 "${SERVER_PID}" 2>/dev/null || true
  rm -rf "${STATE_DIR}" "$(dirname "${BIN}")"
}
trap cleanup EXIT

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -fsS "${BASE}/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "restart_smoke: server on ${ADDR} never became ready" >&2
  exit 1
}

# Extract a top-level string field from a JSON object without jq.
json_field() { # json_field <field-name>
  sed -n "s/.*\"$1\"[[:space:]]*:[[:space:]]*\"\([^\"]*\)\".*/\1/p" | head -1
}

go build -o "${BIN}" ./cmd/rds-serve

csv="income,group,approved
50000,A,1
32000,B,0
71000,A,1
28000,B,0
64000,A,1
30000,B,1
55000,A,0
45000,B,1"

# ---- First life ----------------------------------------------------
"${BIN}" -addr "${ADDR}" -state-dir "${STATE_DIR}" &
SERVER_PID=$!
wait_ready

ref=$(curl -fsS "${BASE}/v1/datasets" -H 'Content-Type: text/csv' \
  --data-binary "${csv}" | json_field ref)
[ -n "${ref}" ] || { echo "restart_smoke: dataset upload returned no ref" >&2; exit 1; }

acme_ref=$(curl -fsS "${BASE}/v1/datasets" -H 'Content-Type: text/csv' \
  -H 'X-RDS-Tenant: acme' --data-binary "${csv}" | json_field ref)
[ -n "${acme_ref}" ] || { echo "restart_smoke: acme dataset upload returned no ref" >&2; exit 1; }

mon=$(curl -fsS "${BASE}/v1/monitors" -H 'Content-Type: application/json' \
  -d "{\"name\":\"smoke\",\"baseline_ref\":\"${ref}\",\"window_ms\":1000,\"epochs\":2}" \
  | json_field id)
[ -n "${mon}" ] || { echo "restart_smoke: monitor registration returned no id" >&2; exit 1; }

# A larger biased population for the remediation curriculum: group A
# approves at 80%, group B at 20%, so the unmitigated audit fails and
# the mitigate/retrain stages do real work.
pipe_csv="income,group,approved"
for i in $(seq 1 150); do
  a=1; b=0
  if [ $((i % 5)) -eq 0 ]; then a=0; b=1; fi
  pipe_csv="${pipe_csv}
$((40000 + i * 13)),A,${a}
$((30000 + i * 11)),B,${b}"
done
pipe_ref=$(curl -fsS "${BASE}/v1/datasets" -H 'Content-Type: text/csv' \
  --data-binary "${pipe_csv}" | json_field ref)
[ -n "${pipe_ref}" ] || { echo "restart_smoke: pipeline dataset upload returned no ref" >&2; exit 1; }

pl=$(curl -fsS "${BASE}/v1/pipelines" -H 'Content-Type: application/json' \
  -d "{\"dataset_ref\":\"${pipe_ref}\",\"epochs\":10,\"seed\":3}" | json_field id)
[ -n "${pl}" ] || { echo "restart_smoke: pipeline submission returned no id" >&2; exit 1; }

echo "restart_smoke: first life registered dataset ${ref}, monitor ${mon}, pipeline ${pl}; sending SIGKILL"
kill -9 "${SERVER_PID}"
wait "${SERVER_PID}" 2>/dev/null || true
SERVER_PID=""

# ---- Second life ---------------------------------------------------
"${BIN}" -addr "${ADDR}" -state-dir "${STATE_DIR}" >"${LOG}" &
SERVER_PID=$!
wait_ready
cat "${LOG}"

# Three datasets survive: two of the default tenant and one of acme.
grep -q "restored 1 monitors and 3 datasets from ${STATE_DIR}" "${LOG}" || {
  echo "restart_smoke: startup line does not report 1 monitor and 3 datasets" >&2; exit 1; }

status=$(curl -fsS "${BASE}/v1/monitors/${mon}")
echo "${status}" | tr -d ' ' | grep -q '"baseline_pinned":true' || {
  echo "restart_smoke: restored monitor lost its pinned baseline: ${status}" >&2; exit 1; }
echo "${status}" | tr -d ' ' | grep -q '"degraded":true' && {
  echo "restart_smoke: restored monitor is degraded: ${status}" >&2; exit 1; }
curl -fsS "${BASE}/v1/datasets/${ref}" >/dev/null || {
  echo "restart_smoke: baseline dataset did not survive restart" >&2; exit 1; }

# Ownership survives too, and only the header names the tenant: acme
# reads its dataset, beta gets a 404 (not the header-less default
# tenant, which uploaded the same bytes and so owns the same ref), and
# a ?tenant= parameter is refused.
http_code() { # http_code <curl args...>
  curl -sS -o /dev/null -w '%{http_code}' "$@"
}
code=$(http_code "${BASE}/v1/datasets/${acme_ref}" -H 'X-RDS-Tenant: acme')
[ "${code}" = 200 ] || {
  echo "restart_smoke: acme reads its dataset after restart: ${code}, want 200" >&2; exit 1; }
code=$(http_code "${BASE}/v1/datasets/${acme_ref}" -H 'X-RDS-Tenant: beta')
[ "${code}" = 404 ] || {
  echo "restart_smoke: beta reads acme's dataset after restart: ${code}, want 404" >&2; exit 1; }
code=$(http_code "${BASE}/v1/datasets?tenant=acme")
[ "${code}" = 400 ] || {
  echo "restart_smoke: ?tenant= on the dataset list: ${code}, want 400" >&2; exit 1; }

# The pipeline record survived and finishes the full curriculum: the
# boot path resumed it at its last persisted stage if the SIGKILL
# landed mid-run, or finalized it if the run had already completed.
# Only the record's top-level status can read running/queued (stage
# records are written complete), so whitespace-stripped absence of
# those is the terminal signal.
rec=""
for _ in $(seq 1 300); do
  rec=$(curl -fsS "${BASE}/v1/pipelines/${pl}" | tr -d ' \n\t' || true)
  case "${rec}" in
    *'"status":"running"'*|*'"status":"queued"'*|"") sleep 0.1 ;;
    *) break ;;
  esac
done
case "${rec}" in
  *'"status":"failed"'*|"")
    echo "restart_smoke: pipeline ${pl} did not finish done after restart: ${rec}" >&2; exit 1 ;;
esac
stages=$(printf '%s' "${rec}" | grep -o '"stage":"' | wc -l)
[ "${stages}" -eq 7 ] || {
  echo "restart_smoke: pipeline ${pl} finished with ${stages} stages, want 7: ${rec}" >&2; exit 1; }

echo "restart_smoke: OK — monitor ${mon}, dataset ${ref}, and pipeline ${pl} survived kill -9"
