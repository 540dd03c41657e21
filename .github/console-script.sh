#!/usr/bin/env bash
# Runs every advmatch command through the installed console script, which
# no test reaches, and checks that a pool writes the same bytes as one
# process.  Run from the root of a checkout after `pip install -e .`
# (or with `src` on PYTHONPATH and an `advmatch` on PATH that runs
# `advmatch.cli.main`):
#
#     bash .github/console-script.sh [WORK_DIR]
#
# WORK_DIR defaults to a fresh temporary directory.
set -euo pipefail

work="${1:-$(mktemp -d)}"
mkdir -p "$work"

PYTHONPATH=tests${PYTHONPATH:+:$PYTHONPATH} python -c "from conftest import simple_bucket_corpus; from advmatch.corpus import serialize_records; open('$work/corpus.jsonl', 'w').write(serialize_records(simple_bucket_corpus(8)))"
# two buckets of 4, so that --jobs 2 starts a pool
echo '{"seed": 1, "n_folds": 1, "target_size": 4}' > "$work/config.json"
advmatch validate "$work/corpus.jsonl"
advmatch match "$work/corpus.jsonl" --config "$work/config.json" --jobs 1 --out "$work/items.jsonl"
advmatch probe "$work/items.jsonl"
# a pool of two workers writes the same bytes as one process
advmatch match "$work/corpus.jsonl" --config "$work/config.json" --jobs 2 --out "$work/items2.jsonl"
cmp "$work/items.jsonl" "$work/items2.jsonl"
# and the same manifest, but for --jobs, the timings and the output's name
python - "$work/items.jsonl" "$work/items2.jsonl" <<'PY'
import json
import sys
from pathlib import Path


def comparable(out):
    with open(out + ".manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    del manifest["config"]["jobs"], manifest["timings"]
    del manifest["outputs"][str(Path(out))]
    return manifest


one, two = map(comparable, sys.argv[1:])
if one != two:
    sys.exit(f"--jobs 1 and --jobs 2 manifests differ:\n{one}\n{two}")
PY
advmatch sweep "$work/corpus.jsonl" --config "$work/config.json" --jobs 2 --grid 1.0,0.1 --out "$work/sweep.txt"
# and so does a sweep: its table and its CSV
advmatch sweep "$work/corpus.jsonl" --config "$work/config.json" --jobs 1 --grid 1.0,0.1 --out "$work/sweep1.txt"
cmp "$work/sweep.txt" "$work/sweep1.txt"
cmp "$work/sweep.txt.csv" "$work/sweep1.txt.csv"
# without --grid a sweep runs the one lambda the match would
advmatch sweep "$work/corpus.jsonl" --config "$work/config.json" --lambda 0.5 --out "$work/lsweep.txt"
[ "$(wc -l < "$work/lsweep.txt")" -eq 2 ]
[ "$(sed -n 2p "$work/lsweep.txt" | cut -f1)" = 0.5 ]
# probe fails unless stdout carried nothing but the items
advmatch match "$work/corpus.jsonl" --config "$work/config.json" --out - > "$work/stdout.jsonl"
advmatch probe "$work/stdout.jsonl"
# stdout carries the same UTF-8 bytes as a file, even when its
# text encoding cannot spell the corpus's words
PYTHONPATH=tests${PYTHONPATH:+:$PYTHONPATH} python -c "from conftest import simple_bucket_corpus; from advmatch.corpus import serialize_records; open('$work/cafe.jsonl', 'w', encoding='utf-8').write(serialize_records(simple_bucket_corpus(8)).replace(' .\"', ' café .\"'))"
grep -q café "$work/cafe.jsonl"
advmatch match "$work/cafe.jsonl" --config "$work/config.json" --out "$work/cafe_items.jsonl"
PYTHONIOENCODING=ascii advmatch match "$work/cafe.jsonl" --config "$work/config.json" --out - > "$work/cafe_stdout.jsonl"
cmp "$work/cafe_items.jsonl" "$work/cafe_stdout.jsonl"
advmatch split "$work/corpus.jsonl" --config "$work/config.json" --out "$work/folds.jsonl"
# a command takes only the flags it reads: split matches nothing
if advmatch split "$work/corpus.jsonl" --config "$work/config.json" --jobs 2 --out "$work/folds2.jsonl" 2> "$work/split_jobs.err"; then
    echo "advmatch split took --jobs" >&2
    exit 1
fi
grep -q "unrecognized arguments: --jobs" "$work/split_jobs.err"
# a scorer takes only 'kind' and 'path': every scorer floors at the config's eps
echo '{"seed": 1, "n_folds": 1, "target_size": 4, "similarity_scorer": {"kind": "overlap", "eps": 0.01}}' > "$work/scorer_eps.json"
status=0
advmatch match "$work/corpus.jsonl" --config "$work/scorer_eps.json" --out "$work/scorer_eps.jsonl" 2> "$work/scorer_eps.err" || status=$?
[ "$status" -eq 2 ]
grep -q "config 'similarity_scorer' has unknown keys \['eps'\]" "$work/scorer_eps.err"
[ ! -e "$work/scorer_eps.jsonl" ]
advmatch buckets "$work/corpus.jsonl" --config "$work/config.json" --out "$work/buckets.jsonl"
# score files written by one command, read back as external matrices
advmatch score "$work/corpus.jsonl" --config "$work/config.json" --out "$work/scores" > "$work/scores.list"
advmatch match "$work/corpus.jsonl" --config "$work/config.json" --rel-matrix "$work/scores" --sim-matrix "$work/scores" --jobs 2 --out "$work/external.jsonl"
advmatch probe "$work/external.jsonl"
# a sweep on external relevance scores its overlap attacker apart;
# its table and CSV are the same for one process and a pool
advmatch sweep "$work/corpus.jsonl" --config "$work/config.json" --rel-matrix "$work/scores" --jobs 1 --grid 1.0,0.1 --out "$work/xsweep1.txt"
advmatch sweep "$work/corpus.jsonl" --config "$work/config.json" --rel-matrix "$work/scores" --jobs 2 --grid 1.0,0.1 --out "$work/xsweep2.txt"
cmp "$work/xsweep1.txt" "$work/xsweep2.txt"
cmp "$work/xsweep1.txt.csv" "$work/xsweep2.txt.csv"
# a failed score exits 1 and leaves no matrix file and no temporary file
# in its --out: here the second bucket's relevance file is missing
cp -r "$work/scores" "$work/partial_scores"
rm "$work/partial_scores/$(basename "$(sed -n 3p "$work/scores.list")")"
status=0
advmatch score "$work/corpus.jsonl" --config "$work/config.json" --rel-matrix "$work/partial_scores" --out "$work/failed_scores" 2> "$work/failed_scores.err" || status=$?
[ "$status" -eq 1 ]
grep -q "no external relevance matrix" "$work/failed_scores.err"
# nor the --out directory it made
[ ! -e "$work/failed_scores" ]
# a command refused for its output paths exits 2 and leaves no new file
# or directory: a directory where match's manifest or sweep's CSV would
# go, or an output in a missing directory, is refused before any
# matching, and a score whose --rel-matrix is missing removes the --out
# directory it made
mkdir -p "$work/refused/items.jsonl.manifest.json" "$work/refused/sweep.txt.csv"
refused() {  # the command's arguments; its stderr goes to refused.err
  local before status=0
  before=$(find "$work/refused" | sort)
  advmatch "$@" 2> "$work/refused.err" || status=$?
  [ "$status" -eq 2 ]
  [ "$(find "$work/refused" | sort)" = "$before" ]
}
refused match "$work/corpus.jsonl" --config "$work/config.json" --out "$work/refused/items.jsonl"
grep -q "manifest.json is a directory" "$work/refused.err"
refused sweep "$work/corpus.jsonl" --config "$work/config.json" --grid 1.0 --out "$work/refused/sweep.txt"
grep -q "sweep.txt.csv is a directory" "$work/refused.err"
# (the corpus is missing too: the output's directory is named first)
refused sweep "$work/no_corpus.jsonl" --config "$work/config.json" --grid 1.0 --out "$work/refused/missing/sweep.txt"
grep -q "No such file or directory: '$work/refused/missing/" "$work/refused.err"
refused score "$work/corpus.jsonl" --config "$work/config.json" --rel-matrix "$work/refused/missing" --out "$work/refused/scores"
grep -q "No such file or directory" "$work/refused.err"
# a score file whose body is not float32, or whose header is malformed,
# fails the run as data: exit 1, one error line naming the file, no
# traceback and no items.  The TSV body of a 4-record bucket is exactly
# 4*n*n bytes long, as a float32 body would be.
rejected_score_file() {  # NAME, then the python that rewrites file f
  local name=$1 bad status=0
  cp -r "$work/scores" "$work/$name"
  bad=$(python - "$work/$name" <<PY
import json, sys
from pathlib import Path
f = sorted(Path(sys.argv[1]).glob("*.relevance.scm"))[0]
header, body = f.read_bytes().split(b"\n", 1)
header = json.loads(header)
$2
print(f)
PY
)
  advmatch match "$work/corpus.jsonl" --config "$work/config.json" --rel-matrix "$work/$name" --out "$work/$name.jsonl" 2> "$work/$name.err" || status=$?
  [ "$status" -eq 1 ]
  [ "$(wc -l < "$work/$name.err")" -eq 1 ]
  grep -qF "error: $bad: " "$work/$name.err"
  [ ! -e "$work/$name.jsonl" ]
}
rejected_score_file tsv_scores 'n = len(header["ids"]); f.write_bytes(json.dumps(header).encode() + b"\n" + ("\t".join(["0.5"] * n) + "\n").encode() * n)'
rejected_score_file bad_n_scores 'header["n"] = "x"; f.write_bytes(json.dumps(header).encode() + b"\n" + body)'
# an items line that is not UTF-8 fails probe as data: exit 1 and one
# error line naming the line, no traceback
{ head -n 1 "$work/items.jsonl"; printf '\xff\n'; tail -n +2 "$work/items.jsonl"; } > "$work/not_utf8.jsonl"
status=0
advmatch probe "$work/not_utf8.jsonl" > /dev/null 2> "$work/not_utf8.err" || status=$?
[ "$status" -eq 1 ]
[ "$(wc -l < "$work/not_utf8.err")" -eq 1 ]
grep -q "^error: line 2: not valid UTF-8" "$work/not_utf8.err"
# a corpus field that is not a JSON string is a problem validate names
python -c "import json; lines = open('$work/corpus.jsonl').read().splitlines(); first = json.loads(lines[0]); first['query'] = None; open('$work/null_query.jsonl', 'w').write('\n'.join([json.dumps(first), *lines[1:]]) + '\n')"
status=0
advmatch validate "$work/null_query.jsonl" > "$work/null_query.out" 2> "$work/null_query.err" || status=$?
[ "$status" -eq 1 ]
grep -qx "line 1: field 'query' must be a string" "$work/null_query.out"
[ ! -s "$work/null_query.err" ]
echo "console script ok"
