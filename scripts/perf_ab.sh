#!/usr/bin/env bash
# Same-host A/B of the benchmark: the perf gate (DESIGN.md §14).
#
# Builds perfbench twice, from the merge base of HEAD and main (the
# parent) and from the working tree (the change), then runs ten
# alternating pairs of every BENCHMARK.json workload on this host:
# `--workload W --seconds 1 --trace 0` at the default seed, so every run
# also checks its pinned digest. Prints one row per workload and
# end-to-end metric and the total wall time.
#
# Exit 0: every run passed its checks and no metric is worse.
# Exit 1: a run exited non-zero, printed no result line, reported
#         "correct": false or failed > 0, or a metric's change median
#         exceeds the parent median x (1 + its BENCHMARK.json bound).
# Exit 2: the comparison could not be set up (arguments, no merge base,
#         an unreadable BENCHMARK.json, a build failure).
#
# A metric whose parent spread, (q3 - q1) / median, exceeds its bound is
# marked `unresolved`: printed, not failed. Each row also prints the
# paired reading, report-only (it never enters the verdict or the exit
# status): the median of the within-pair change/parent ratios and how
# many pairs the change won (read lower). Drift that spans both runs of
# a pair cancels in a within-pair ratio. Takes no arguments and reads
# no environment variables.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
ab=$root/target/perf-ab
pairs=10
start=$SECONDS

if [ "$#" -ne 0 ]; then
  echo "usage: scripts/perf_ab.sh (no arguments)" >&2
  exit 2
fi

# The workload names, and each end-to-end metric as "name bound better",
# one a line, straight from BENCHMARK.json (one object a line there).
manifest() {
  awk -v want="$1" '
    function field(key, m) {
      if (!match($0, "\"" key "\": *(\"[^\"]*\"|[-+0-9.eE]+)")) return ""
      m = substr($0, RSTART, RLENGTH)
      sub(/^"[^"]*": */, "", m)
      gsub(/"/, "", m)
      return m
    }
    /"[a-z_]+": \[$/ { section = $1; gsub(/[":]/, "", section); next }
    /^ *\],?$/ { section = ""; next }
    section == "workloads" && want == "workloads" { print field("name") }
    section == "end_to_end" && want == "metrics" {
      print field("name"), field("bound"), field("better")
    }
  ' BENCHMARK.json
}
mapfile -t workloads < <(manifest workloads)
mapfile -t metrics < <(manifest metrics)
if [ "${#workloads[@]}" -eq 0 ] || [ "${#metrics[@]}" -eq 0 ]; then
  echo "perf_ab: no workloads or no end-to-end metrics in BENCHMARK.json" >&2
  exit 2
fi
metric_names=()
for m in "${metrics[@]}"; do
  read -r name bound better <<< "$m"
  if [ -z "${bound}" ] || [ "${better}" != "lower" ]; then
    echo "perf_ab: metric '${name}' needs a bound and \"better\": \"lower\" (got '${m}')" >&2
    exit 2
  fi
  metric_names+=("${name}")
done

if ! base=$(git merge-base HEAD main); then
  echo "perf_ab: HEAD and main have no merge base" >&2
  exit 2
fi
mkdir -p "${ab}"
# The parent tree is extracted once per merge base, so a rerun reuses
# its build.
if [ ! -f "${ab}/parent.rev" ] || [ "$(< "${ab}/parent.rev")" != "${base}" ]; then
  rm -rf "${ab}/parent" "${ab}/parent.rev"
  mkdir -p "${ab}/parent"
  git archive "${base}" | tar -x -C "${ab}/parent"
  echo "${base}" > "${ab}/parent.rev"
fi

# Each side builds from its own tree root, so each reads its own
# .cargo/config.toml, into its own target directory. The build rewrites
# the stale perfbench/Cargo.lock; the working tree's copy is put back.
cp perfbench/Cargo.lock "${ab}/change.Cargo.lock"
for side in parent change; do
  dir=${root}
  [ "${side}" = parent ] && dir=${ab}/parent
  status=0
  (cd "${dir}" && CARGO_TARGET_DIR="${ab}/${side}-target" \
    cargo build -q --release --offline --manifest-path perfbench/Cargo.toml) || status=$?
  if [ "${status}" -ne 0 ]; then
    cp "${ab}/change.Cargo.lock" perfbench/Cargo.lock
    echo "perf_ab: the ${side}'s perfbench does not build" >&2
    exit 2
  fi
done
cp "${ab}/change.Cargo.lock" perfbench/Cargo.lock
echo "perf_ab: parent ${base:0:12} (merge base of HEAD and main) against the working tree;" \
  "${pairs} pairs of ${workloads[*]}"

# The last five lines of standard input.
last5() { awk '{ line[NR] = $0 } END { for (i = NR > 5 ? NR - 4 : 1; i <= NR; i++) print line[i] }'; }

# One run of one side; appends "workload metric side value pair" lines
# to runs.txt, or exits 1 naming what failed.
runs=${ab}/runs.txt
: > "${runs}"
run() {
  local side=$1 w=$2 pair=$3 dir=${root} out values status=0 parsed=0
  [ "${side}" = parent ] && dir=${ab}/parent
  out=$(cd "${dir}" && "${ab}/${side}-target/release/perfbench" \
    --workload "${w}" --seconds 1 --trace 0 2> "${ab}/stderr.txt") || status=$?
  values=$(awk -v names="${metric_names[*]}" '
    { last = $0 }
    END {
      if (last !~ /^\{"correct": /) { print "no result line"; exit 1 }
      if (last !~ /^\{"correct": true,/) { print "\"correct\": false"; exit 1 }
      if (!match(last, /"failed": [0-9]+/) || substr(last, RSTART + 10, RLENGTH - 10) + 0 > 0) {
        print "failed ops"; exit 1
      }
      n = split(names, name, " ")
      for (i = 1; i <= n; i++) {
        if (!match(last, "\"" name[i] "\": \\{\"value\": [^,}]+")) {
          print "no " name[i]; exit 1
        }
        v = substr(last, RSTART, RLENGTH)
        sub(/.*: /, "", v)
        print name[i], v
      }
    }' <<< "${out}") || parsed=$?
  if [ "${status}" -ne 0 ] || [ "${parsed}" -ne 0 ]; then
    echo "perf_ab: FAILED: the ${side} run of ${w} in pair ${pair} exited ${status}" \
      "(${values:-no output}); its last lines:" >&2
    last5 <<< "${out}" >&2
    last5 < "${ab}/stderr.txt" >&2
    exit 1
  fi
  awk -v w="${w}" -v side="${side}" -v pair="${pair}" '{ print w, $1, side, $2, pair }' \
    <<< "${values}" >> "${runs}"
}

# In each pair every workload runs on both sides back to back; the
# parent goes first in odd pairs, the change in even ones.
for ((pair = 1; pair <= pairs; pair++)); do
  for w in "${workloads[@]}"; do
    if ((pair % 2)); then
      run parent "${w}" "${pair}"
      run change "${w}" "${pair}"
    else
      run change "${w}" "${pair}"
      run parent "${w}" "${pair}"
    fi
  done
  echo "pair ${pair}/${pairs} done at $((SECONDS - start)) s"
done

# Medians and quartiles as Python's statistics.median and
# statistics.quantiles(n=4) (its default "exclusive" method) give them,
# as perfbench/src/stats.rs does.
worse=0
verdicts=$(sort -k1,1 -k2,2 -k3,3 -k4,4g "${runs}" | awk \
  -v workloads="${workloads[*]}" -v metrics="$(IFS=';' && echo "${metrics[*]}")" '
  function median(v, n) {
    return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
  }
  function quartile(v, n, i, j, delta) {
    j = int(i * (n + 1) / 4)
    j = j < 1 ? 1 : (j > n - 1 ? n - 1 : j)
    delta = i * (n + 1) - j * 4
    return (v[j] * (4 - delta) + v[j + 1] * delta) / 4
  }
  function stats(key, out, n, i, v) {
    n = count[key]
    for (i = 1; i <= n; i++) v[i] = value[key, i]
    out["med"] = median(v, n)
    out["q1"] = quartile(v, n, 1)
    out["q3"] = quartile(v, n, 3)
  }
  # The median of the within-pair change/parent ratios of one workload
  # and metric, and the number of pairs whose change value is lower.
  function paired_stats(wm, out, n, i, j, tmp, r) {
    n = 0
    out["won"] = 0
    for (i = 1; i <= pairs; i++) {
      if (!((wm, i, "parent") in paired) || !((wm, i, "change") in paired)) continue
      if (paired[wm, i, "parent"] == 0) continue
      r[++n] = paired[wm, i, "change"] / paired[wm, i, "parent"]
      if (paired[wm, i, "change"] < paired[wm, i, "parent"]) out["won"]++
    }
    for (i = 2; i <= n; i++) {
      tmp = r[i]
      for (j = i - 1; j >= 1 && r[j] > tmp; j--) r[j + 1] = r[j]
      r[j + 1] = tmp
    }
    out["n"] = n
    out["ratio"] = n ? median(r, n) : 0
  }
  {
    key = $1 " " $2 " " $3
    value[key, ++count[key]] = $4
    paired[$1 " " $2, $5, $3] = $4
    if ($5 > pairs) pairs = $5
  }
  END {
    nw = split(workloads, w, " ")
    nm = split(metrics, m, ";")
    fmt = "%-12s %-12s %-28s %-28s %7s %7s %7s %6s  %s\n"
    printf fmt, "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
      "ratio", "spread", "paired", "won", "verdict"
    for (i = 1; i <= nw; i++) {
      for (k = 1; k <= nm; k++) {
        split(m[k], f, " ")
        stats(w[i] " " f[1] " parent", p)
        stats(w[i] " " f[1] " change", c)
        paired_stats(w[i] " " f[1], pr)
        spread = (p["q3"] - p["q1"]) / p["med"]
        verdict = "ok"
        if (c["med"] > p["med"] * (1 + f[2])) { verdict = "worse"; failed++ }
        else if (spread > f[2]) verdict = "unresolved"
        printf fmt, w[i], f[1],
          sprintf("%.4g [%.4g, %.4g]", p["med"], p["q1"], p["q3"]),
          sprintf("%.4g [%.4g, %.4g]", c["med"], c["q1"], c["q3"]),
          sprintf("%.3f", c["med"] / p["med"]), sprintf("%.1f%%", 100 * spread),
          sprintf("%.3f", pr["ratio"]), pr["won"] "/" pr["n"], verdict
      }
    }
    exit (failed > 0)
  }') || worse=1
echo "${verdicts}"
echo "perf_ab: $((2 * pairs * ${#workloads[@]})) runs in $((SECONDS - start)) s wall"
if [ "${worse}" -ne 0 ]; then
  echo "perf_ab: FAILED: a change median is worse than its parent's by more than the bound" >&2
  exit 1
fi
echo "perf_ab: OK"
