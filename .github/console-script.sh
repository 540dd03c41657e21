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
advmatch buckets "$work/corpus.jsonl" --config "$work/config.json" --out "$work/buckets.jsonl"
# score files written by one command, read back as external matrices
advmatch score "$work/corpus.jsonl" --config "$work/config.json" --out "$work/scores"
advmatch match "$work/corpus.jsonl" --config "$work/config.json" --rel-matrix "$work/scores" --sim-matrix "$work/scores" --jobs 2 --out "$work/external.jsonl"
advmatch probe "$work/external.jsonl"
# a sweep on external relevance scores its overlap attacker apart;
# its table and CSV are the same for one process and a pool
advmatch sweep "$work/corpus.jsonl" --config "$work/config.json" --rel-matrix "$work/scores" --jobs 1 --grid 1.0,0.1 --out "$work/xsweep1.txt"
advmatch sweep "$work/corpus.jsonl" --config "$work/config.json" --rel-matrix "$work/scores" --jobs 2 --grid 1.0,0.1 --out "$work/xsweep2.txt"
cmp "$work/xsweep1.txt" "$work/xsweep2.txt"
cmp "$work/xsweep1.txt.csv" "$work/xsweep2.txt.csv"
echo "console script ok"
