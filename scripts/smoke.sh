#!/bin/sh
# Builds and runs every example binary and the tsexplain CLI against the
# bundled datasets, checking exit codes and that each produced non-empty
# output; then exercises the bring-your-own-data path end to end: start
# the server with a temp -data-dir, upload a CSV dataset, explain it,
# append delta rows, restart the server, and assert the second start
# restores the dataset from its warm-restart snapshot (log marker); then
# check a slice, a diff, progressive streams and an async job on it. A
# second, range-binned dataset takes an append outside its fitted range
# and must keep its bins through the restart and in an offline CLI run on
# the catalog's own manifest.json and data.csv. CI
# runs this on every PR so example drift — like the pre-PR-1 missing
# go.mod — is caught automatically instead of by the next reader.
#
# Usage: scripts/smoke.sh
set -eu
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
# A failed check exits with the server still up; stop it on the way out.
server_pid=""
trap 'if [ -n "$server_pid" ]; then kill "$server_pid" 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT

run_check() {
	name="$1"
	shift
	out="$tmp/$(echo "$name" | tr '/' '_').out"
	echo "smoke: $name"
	"$@" >"$out" 2>&1 || {
		rc=$?
		echo "smoke: $name FAILED (exit $rc)" >&2
		cat "$out" >&2
		exit 1
	}
	if ! [ -s "$out" ]; then
		echo "smoke: $name produced no output" >&2
		exit 1
	fi
}

for d in examples/*/; do
	run_check "$d" go run "./$d"
done

run_check "cmd/tsexplain demo=covid" go run ./cmd/tsexplain -demo covid
run_check "cmd/tsexplain demo=vax-deaths" go run ./cmd/tsexplain -demo vax-deaths

# ---- Bring-your-own-data: upload, explain, append, warm restart. ------------

go build -o "$tmp/tsexplain-server" ./cmd/tsexplain-server
go build -o "$tmp/tsexplain" ./cmd/tsexplain

data_dir="$tmp/catalog"
addr="127.0.0.1:18098"
base="http://$addr"

cat >"$tmp/smoke.csv" <<'CSV'
day,state,product,sales
2024-01-01,NY,widget,10
2024-01-01,CA,widget,8
2024-01-02,NY,widget,12
2024-01-02,CA,widget,8
2024-01-03,NY,widget,30
2024-01-03,CA,widget,9
2024-01-04,NY,widget,55
2024-01-04,CA,widget,9
2024-01-05,NY,widget,80
2024-01-05,CA,widget,10
CSV
cat >"$tmp/smoke-manifest.json" <<'JSON'
{
  "name": "smoke-sales",
  "aliases": ["sales"],
  "timeCol": "day",
  "dimCols": ["state", "product"],
  "measureCol": "sales",
  "agg": "SUM",
  "maxOrder": 2
}
JSON

start_server() {
	logf="$1"
	"$tmp/tsexplain-server" -addr "$addr" -data-dir "$data_dir" >"$logf" 2>&1 &
	server_pid=$!
	for _ in $(seq 1 50); do
		if curl -sf "$base/api/datasets" >/dev/null 2>&1; then
			return 0
		fi
		sleep 0.2
	done
	echo "smoke: server did not come up; log:" >&2
	cat "$logf" >&2
	exit 1
}

stop_server() {
	kill "$server_pid" 2>/dev/null || true
	wait "$server_pid" 2>/dev/null || true
	server_pid=""
}

echo "smoke: server cold start + upload"
start_server "$tmp/server1.log"

# Upload (waiting for the snapshot refresh so the restart finds one).
curl -sf -X POST "$base/api/datasets?wait=1" \
	-F "manifest=<$tmp/smoke-manifest.json" \
	-F "csv=@$tmp/smoke.csv" >"$tmp/upload.json"
grep -q '"smoke-sales"' "$tmp/upload.json" || {
	echo "smoke: upload response unexpected:" >&2
	cat "$tmp/upload.json" >&2
	exit 1
}

# Explain it — via the manifest alias — and check the NY driver surfaces.
curl -sf "$base/api/explain?dataset=sales" >"$tmp/explain1.json"
grep -q 'state=NY' "$tmp/explain1.json" || {
	echo "smoke: explain missing the NY driver:" >&2
	cat "$tmp/explain1.json" >&2
	exit 1
}

# The server result must agree with an offline CLI run on the same file.
"$tmp/tsexplain" -csv "$tmp/smoke.csv" -manifest "$tmp/smoke-manifest.json" >"$tmp/cli.out"
grep -q 'state=NY' "$tmp/cli.out" || {
	echo "smoke: offline CLI run disagrees (no NY driver):" >&2
	cat "$tmp/cli.out" >&2
	exit 1
}

# Append delta rows through the streaming path (waiting for the snapshot
# refresh so the restart below restores post-append data).
printf '%s\n%s\n' \
	'{"time":"2024-01-06","dims":{"state":"NY","product":"widget"},"measure":120}' \
	'{"time":"2024-01-06","dims":{"state":"CA","product":"widget"},"measure":11}' |
	curl -sf -X POST "$base/api/datasets/smoke-sales/append?wait=1" --data-binary @- >"$tmp/append.json"
grep -q '"rows":2' "$tmp/append.json" || {
	echo "smoke: append response unexpected:" >&2
	cat "$tmp/append.json" >&2
	exit 1
}

# A range-binned dataset: cases 11–50 over 4 states × 10 days, cut into
# 4 equi-depth bins at upload. The appended days (cases 1011–4020) lie
# above every edge, so the bins must stay the ones the upload fitted.
echo "smoke: range bins through an append"
awk 'BEGIN {
	print "day,state,cases"
	split("CA NY TX WA", st, " ")
	for (d = 1; d <= 10; d++)
		for (s = 1; s <= 4; s++)
			printf "2024-02-%02d,%s,%d\n", d, st[s], 11 + 10 * (s - 1) + d - 1
}' >"$tmp/bins.csv"
cat >"$tmp/bins-manifest.json" <<'JSON'
{
  "name": "smoke-bins",
  "timeCol": "day",
  "dimCols": ["state"],
  "measureCol": "cases",
  "rangeBins": [{"column": "cases", "bins": 4}]
}
JSON
curl -sf -X POST "$base/api/datasets?wait=1" \
	-F "manifest=<$tmp/bins-manifest.json" \
	-F "csv=@$tmp/bins.csv" >"$tmp/upload-bins.json"
bin_labels() {
	curl -sf "$base/api/slice?dataset=smoke-bins" |
		sed -n 's/.*"attribute":"cases_bin","children":\(\[[^]]*\]\).*/\1/p'
}
labels="$(bin_labels)"
if [ -z "$labels" ]; then
	echo "smoke: slice of smoke-bins offers no cases_bin drill-down" >&2
	exit 1
fi
awk 'BEGIN {
	split("CA NY TX WA", st, " ")
	for (d = 11; d <= 20; d++)
		for (s = 1; s <= 4; s++)
			printf "{\"time\":\"2024-02-%02d\",\"dims\":{\"state\":\"%s\"},\"measure\":%d}\n", d, st[s], 1000 * s + d
}' | curl -sf -X POST "$base/api/datasets/smoke-bins/append?wait=1" --data-binary @- >"$tmp/append-bins.json"
grep -q '"rows":40' "$tmp/append-bins.json" || {
	echo "smoke: range-bin append response unexpected:" >&2
	cat "$tmp/append-bins.json" >&2
	exit 1
}

stop_server

echo "smoke: server warm restart (snapshot restore)"
start_server "$tmp/server2.log"
curl -sf "$base/api/explain?dataset=smoke-sales" >"$tmp/explain2.json"
grep -q '2024-01-06' "$tmp/explain2.json" || {
	echo "smoke: post-restart explain missing the appended day:" >&2
	cat "$tmp/explain2.json" >&2
	exit 1
}
grep -q 'restored from snapshot' "$tmp/server2.log" || {
	echo "smoke: second start did not restore from snapshot; log:" >&2
	cat "$tmp/server2.log" >&2
	exit 1
}
curl -s "$base/metrics" | grep -q 'tsexplain_snapshot_restores_total{kind="engine"} 1' || {
	echo "smoke: /metrics missing the engine snapshot restore" >&2
	exit 1
}

# The range-binned dataset kept the bins its upload fitted, and an offline
# run on the catalog's own files bins as the server does.
if [ "$(bin_labels)" != "$labels" ]; then
	echo "smoke: range bins changed across the append and restart: $labels -> $(bin_labels)" >&2
	exit 1
fi
"$tmp/tsexplain" -csv "$data_dir/smoke-bins/data.csv" \
	-manifest "$data_dir/smoke-bins/manifest.json" -k 2 >"$tmp/cli-bins.out"
printf '%s\n' "$labels" |
	awk '{ gsub(/^\["|"\]$/, ""); n = split($0, l, "\",\""); for (i = 1; i <= n; i++) print "cases_bin=" l[i] }' >"$tmp/bin-preds"
grep -qF -f "$tmp/bin-preds" "$tmp/cli-bins.out" || {
	echo "smoke: offline CLI run names no bin of $labels:" >&2
	cat "$tmp/cli-bins.out" >&2
	exit 1
}

# ---- Slice and diff, both on the dataset's ad-hoc engine. --------------------

echo "smoke: slice and diff"
curl -sf "$base/api/slice?dataset=smoke-sales&expr=state%3DNY" >"$tmp/slice.json"
grep -q '"series":\[10,12,30,55,80,120\]' "$tmp/slice.json" || {
	echo "smoke: NY slice is not its six points:" >&2
	cat "$tmp/slice.json" >&2
	exit 1
}
curl -sf "$base/api/diff?dataset=smoke-sales&from=2024-01-01&to=2024-01-06" >"$tmp/diff.json"
grep -q '"top":\[{"predicates":"state=NY"' "$tmp/diff.json" || {
	echo "smoke: diff does not name state=NY first:" >&2
	cat "$tmp/diff.json" >&2
	exit 1
}

# ---- Progressive streaming: NDJSON default, SSE via Accept. -----------------

echo "smoke: progressive explain (NDJSON + SSE)"
curl -sf "$base/api/explain?dataset=smoke-sales&progressive=1" >"$tmp/progressive.ndjson"
grep -q '"final":true' "$tmp/progressive.ndjson" || {
	echo "smoke: progressive stream never reached the final round:" >&2
	cat "$tmp/progressive.ndjson" >&2
	exit 1
}
curl -sf -H 'Accept: text/event-stream' \
	"$base/api/explain?dataset=smoke-sales&progressive=1" >"$tmp/progressive.sse"
grep -q '^event: round' "$tmp/progressive.sse" || {
	echo "smoke: SSE progressive stream missing 'event: round' framing:" >&2
	cat "$tmp/progressive.sse" >&2
	exit 1
}

# ---- Async job round trip: submit, poll to done, result matches. ------------

echo "smoke: async job round trip"
curl -sf -X POST "$base/api/jobs?dataset=smoke-sales&k=3" >"$tmp/job-submit.json"
job_id="$(sed -n 's/.*"id":"\([0-9a-f]\{16\}\)".*/\1/p' "$tmp/job-submit.json")"
if [ -z "$job_id" ]; then
	echo "smoke: job submit returned no id:" >&2
	cat "$tmp/job-submit.json" >&2
	exit 1
fi
job_done=""
for _ in $(seq 1 50); do
	curl -sf "$base/api/jobs/$job_id" >"$tmp/job-poll.json"
	if grep -q '"status":"done"' "$tmp/job-poll.json"; then
		job_done=1
		break
	fi
	sleep 0.2
done
if [ -z "$job_done" ]; then
	echo "smoke: job $job_id did not finish; last poll:" >&2
	cat "$tmp/job-poll.json" >&2
	exit 1
fi
grep -q 'state=NY' "$tmp/job-poll.json" || {
	echo "smoke: job result missing the NY driver:" >&2
	cat "$tmp/job-poll.json" >&2
	exit 1
}

stop_server

echo "smoke: all OK"
