"""Command-line entry point wiring the library into reproducible pipelines.

Commands: validate, split, buckets, score, match, sweep, probe.
Exit codes: 0 success, 1 data/validation failure, 2 I/O or config failure.

Configuration comes from a JSON file (--config) with flag overrides; the
seed must be pinned in one of the two, never taken from the clock.  Every
config command reads every config key, but takes only the flags of the
values it reads: each command in split, buckets, score, match, sweep takes
the flags of the one before it and adds its own.  ``match`` also writes
the run's manifest, which it builds here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .bucketing import BucketingError
from .corpus import (TASK_MODES, CorpusError, parse_records, scan_records,
                     serialize_records, split_folds)
from .diagnostics import (DiagnosticsError, format_sweep_csv, format_sweep_table,
                          frequency_prior_probe, lambda_sweep)
from .matcher import MatchConfig, MatchingError, parse_items
from .pipeline import PipelineError, plan_buckets, resolve_mode, run_match
from .remap import RemapError
from .scoring import (ScorerSpec, ScoringError, external_store, matrix_files,
                      score_bucket, write_score_matrix)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2

_DATA_ERRORS = (CorpusError, ScoringError, BucketingError, MatchingError,
                RemapError, PipelineError, DiagnosticsError)


class ConfigError(ValueError):
    pass


def _read_corpus(path: str):
    with open(path, "rb") as f:
        return parse_records(f)


def _bad(key: str, kind: str, value) -> ConfigError:
    return ConfigError(f"config {key!r} must be {kind}, got {value!r}")


def _integer(key: str, value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(key, "an integer", value)
    return value


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(key, "a number", value)
    return float(value)


def _text(key: str, value) -> str:
    if not isinstance(value, str):
        raise _bad(key, "a string", value)
    return value


def _folds(key: str, value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise _bad(key, "a list of fold indices", value)
    return tuple(_integer(key, f) for f in value)


def _scorer(key: str, value) -> dict:
    if not isinstance(value, dict) or "kind" not in value:
        raise _bad(key, "an object with a 'kind'", value)
    unknown = sorted(set(value) - {"kind", "path"})
    if unknown:
        raise ConfigError(f"config {key!r} has unknown keys {unknown}; "
                          "a scorer takes 'kind' and 'path'")
    if value.get("path") is not None:
        _text(f"{key}.path", value["path"])
    return value


# Every config key: the name it is read back by and its cast.  The name is
# the MatchConfig field the key sets and the dest of the flag that
# overrides it, where there is one.  A scorer key sets no field; its name is
# the flag of the external matrix that replaces it.
_CONFIG_KEYS = {
    "seed": ("seed", _integer),
    "lambda": ("lambda_", _number),
    "rounds": ("rounds", _integer),
    "eps": ("eps", _number),
    "p_reuse": ("p_reuse", _number),
    "n_folds": ("n_folds", _integer),
    "target_size": ("target_size", _integer),
    "mode": ("mode", _text),
    "holdout_folds": ("holdout_folds", _folds),
    "relevance_scorer": ("rel_matrix", _scorer),
    "similarity_scorer": ("sim_matrix", _scorer),
}


def _load_config(args) -> tuple[MatchConfig, ScorerSpec, ScorerSpec]:
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    raw: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config}: malformed config JSON ({exc.msg})")
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(raw) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys {unknown}")

    fields: dict = {}
    scorers: list[dict] = []
    for key, (name, cast) in _CONFIG_KEYS.items():
        flag = getattr(args, name, None)  # argparse has typed it
        value = raw.get(key)
        if cast is _scorer:
            if flag:
                value = {"kind": "external_matrix", "path": flag}
            scorers.append({"kind": "overlap"} if value is None else cast(key, value))
        elif flag is not None:
            fields[name] = flag
        elif value is not None:
            fields[name] = cast(key, value)
    if "seed" not in fields:
        raise ConfigError("a seed is required (config 'seed' or --seed)")
    try:
        config = MatchConfig(**fields)
        rel, sim = (ScorerSpec(s["kind"], s.get("path")) for s in scorers)
    except (MatchingError, ScoringError) as exc:
        raise ConfigError(str(exc)) from exc
    return config, rel, sim


def _config_snapshot(config: MatchConfig, rel: ScorerSpec, sim: ScorerSpec) -> dict:
    """The value every config key took, as the manifest records it."""
    resolved = replace(config, holdout_folds=config.resolved_holdout())
    # the scorer keys, in table order, with the keys a scorer config takes
    specs = iter({"kind": s.kind, "path": s.path} for s in (rel, sim))
    return {key: next(specs) if cast is _scorer else getattr(resolved, name)
            for key, (name, cast) in _CONFIG_KEYS.items()}


def cmd_validate(args) -> int:
    total = problems = 0
    with open(args.input, "rb") as f:
        for _, found in scan_records(f):
            total += 1
            problems += len(found)
            for message in found:
                print(message)
    if problems:
        print(f"{problems} problem(s) in {args.input}")
        return EXIT_DATA
    print(f"{total} records ok")
    return EXIT_OK


def cmd_split(args) -> int:
    config, _, _ = _load_config(args)
    records = _read_corpus(args.input)
    plan = split_folds(records, config.n_folds, config.seed)
    _write_out(args.out, [serialize_records(records, plan.assignment)])
    return EXIT_OK


def cmd_buckets(args) -> int:
    config, _, _ = _load_config(args)
    records = _read_corpus(args.input)
    _, buckets = plan_buckets(records, config)
    lines = [json.dumps({"fold": b.fold, "bucket": b.bucket_id, "key": b.key.label,
                         "members": [r.id for r in b.members]},
                        ensure_ascii=False, separators=(",", ":"))
             for b in buckets]
    _write_out(args.out, ["\n".join(lines) + "\n"])
    return EXIT_OK


def cmd_score(args) -> int:
    """Write each bucket's two matrix files into ``--out``.

    Every file is written under its temporary name and renamed only after
    the last bucket is scored; on failure the temporary files are removed,
    so a failed command leaves no matrix file behind.
    """
    config, rel_spec, sim_spec = _load_config(args)
    if args.out == "-":
        raise ConfigError("score writes a directory of matrix files, not stdout; "
                          "give --out a directory")
    records = _read_corpus(args.input)
    _, buckets = plan_buckets(records, config)
    outdir = Path(args.out or "scores")
    outdir.mkdir(parents=True, exist_ok=True)
    store = external_store(rel_spec, sim_spec)
    written: list[Path] = []
    try:
        for b in buckets:
            rel, sim = score_bucket(b.members, config, rel_spec, sim_spec, store)
            ids = [r.id for r in b.members]
            safe = b.bucket_id.replace(":", "_").replace("/", "-")
            for role, matrix in (("relevance", rel), ("similarity", sim)):
                written.append(outdir / f"{safe}.{role}.scm")
                write_score_matrix(_temp_path(written[-1]), role, matrix.values, ids)
        for path in written:
            os.replace(_temp_path(path), path)
    except BaseException:
        for path in written:
            _temp_path(path).unlink(missing_ok=True)
        raise
    print("\n".join(map(str, written)))
    return EXIT_OK


def cmd_match(args) -> int:
    """Write the items and, beside a file output, the run's manifest.

    The manifest records the value of every config key and ``--jobs``, the
    SHA-256 of the corpus, of each external matrix file and of the outputs
    (the items, the fold plan and the bucket plan), and the seconds spent
    parsing and matching.
    """
    config, rel_spec, sim_spec = _load_config(args)
    digest = hashlib.sha256()
    with open(args.input, "rb") as f:
        start = time.monotonic()
        records = parse_records(_hashed_lines(f, digest))
        parse_s = time.monotonic() - start
    inputs = {str(args.input): digest.hexdigest()}
    # the files the run's matrix store indexes
    inputs.update((str(f), digest_file(f)) for f in matrix_files(
        [s.path for s in (rel_spec, sim_spec) if s.kind == "external_matrix"]))
    out = Path(args.out or "items.jsonl")
    # run_match writes each bucket's items once the buckets before it are
    # written, so the run's output is never held whole
    start = time.monotonic()
    with _open_out(out) as write:
        result = run_match(records, config, rel_spec, sim_spec, jobs=args.jobs,
                           write=write)
    match_s = time.monotonic() - start
    fold_text = json.dumps(result.fold_plan.assignment, sort_keys=True)
    bucket_text = json.dumps([(br.bucket.bucket_id,
                               [r.id for r in br.bucket.members])
                              for br in result.buckets])
    manifest = {
        "config": {**_config_snapshot(config, rel_spec, sim_spec), "jobs": args.jobs},
        "inputs": inputs,
        "outputs": {str(out): write.hexdigest(),
                    "fold_plan": hashlib.sha256(fold_text.encode("utf-8")).hexdigest(),
                    "buckets": hashlib.sha256(bucket_text.encode("utf-8")).hexdigest()},
        "timings": {"parse": parse_s, "match": match_s},
    }
    if not _is_stdout(out):
        _write_out(str(out) + ".manifest.json", [
            json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n"])
    # stdout may be the items themselves, so the status line goes to stderr
    print(f"wrote {result.item_count} items to {out}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, rel_spec, sim_spec = _load_config(args)
    if args.grid is not None:
        try:
            grid = [float(x) for x in args.grid.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --grid value: {exc}")
        if not grid:
            raise ConfigError(f"--grid {args.grid!r} holds no lambda value")
        for lam in grid:  # every point, before any of them runs
            try:
                config.with_lambda(lam)
            except MatchingError as exc:
                raise ConfigError(f"bad --grid value: {exc}") from exc
    records = _read_corpus(args.input)
    if args.grid is None:
        grid = [config.resolved_lambda(resolve_mode(records, config))]
    rows = lambda_sweep(records, grid, config, rel_spec, sim_spec, jobs=args.jobs)
    table = format_sweep_table(rows)
    out = Path(args.out or "sweep.txt")
    _write_out(out, [table])
    if not _is_stdout(out):
        _write_out(str(out) + ".csv", [format_sweep_csv(rows)])
        print(table, end="")
    return EXIT_OK


def cmd_probe(args) -> int:
    with open(args.input, "rb") as f:
        eval_items = parse_items(f)
    if args.train:
        with open(args.train, "rb") as f:
            train_items = parse_items(f)
    else:
        train_items = eval_items
    accuracy = frequency_prior_probe(train_items, eval_items)
    print(f"frequency_prior_accuracy\t{accuracy!r}")
    print(f"chance\t{1.0 / len(eval_items[0].choices)!r}")
    return EXIT_OK


def _is_stdout(path) -> bool:
    return path is None or str(path) == "-"


DIGEST_CHUNK = 1 << 20


def digest_file(path) -> str:
    """The SHA-256 of a file's content, read in DIGEST_CHUNK pieces."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(DIGEST_CHUNK):
            h.update(chunk)
    return h.hexdigest()


def _hashed_lines(stream: BinaryIO, digest) -> Iterator[bytes]:
    """The stream's lines, each fed to ``digest`` as it is read."""
    for line in stream:
        digest.update(line)
        yield line


class _Sink:
    """Writes str chunks to a binary stream as UTF-8 and hashes those bytes."""

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        self._digest = hashlib.sha256()

    def __call__(self, chunk: str) -> None:
        data = chunk.encode("utf-8")
        self._stream.write(data)
        self._digest.update(data)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _temp_path(path: Path) -> Path:
    """The name a file is written under before it is renamed onto ``path``."""
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


@contextlib.contextmanager
def _open_out(path) -> Iterator[_Sink]:
    """A ``_Sink`` on ``path``, or on stdout's bytes for ``-``.

    A file is written under a temporary name beside ``path`` and renamed
    onto it when the block ends without error; otherwise the temporary
    file is removed, so a failed command leaves no output file and an
    existing one untouched.  On stdout, whatever the encoding of its text
    layer, the bytes are UTF-8, and what was written before an error stays.
    """
    if _is_stdout(path):
        sys.stdout.flush()  # text printed earlier goes first
        try:
            yield _Sink(sys.stdout.buffer)
        finally:
            sys.stdout.buffer.flush()
        return
    path = Path(path)
    tmp = _temp_path(path)
    try:
        with open(tmp, "wb") as f:
            yield _Sink(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_out(path, chunks: Iterable[str]) -> None:
    """Write the chunks with ``_open_out``."""
    with _open_out(path) as write:
        for chunk in chunks:
            write(chunk)


_FLAGS = {
    "--config": dict(help="JSON config file"),
    "--seed": dict(type=int, help="root seed (mandatory here or in config)"),
    "--out": dict(help="output path (default stdout or command default)"),
    "--rounds": dict(type=int, help="distractors per item"),
    "--mode": dict(choices=TASK_MODES, help="task mode override"),
    "--rel-matrix": dict(help="external relevance matrix file/dir"),
    "--sim-matrix": dict(help="external similarity matrix file/dir"),
    "--lambda": dict(dest="lambda_", type=float,
                     help="relevance/similarity tradeoff (>0)"),
    "--jobs": dict(type=int, default=1, help="parallel bucket workers"),
    "--grid": dict(help="comma-separated lambda values (overrides lambda)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advmatch",
        description="Build four-way multiple-choice datasets by adversarial "
                    "matching of gold responses across queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check corpus records and exit nonzero on problems")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    # each config command takes the flags of the one before it and its own
    flags: list[str] = ["--config", "--seed", "--out"]
    for name, func, added, help in (
            ("split", cmd_split, (), "assign fold indices by source key"),
            ("buckets", cmd_buckets, ("--rounds", "--mode"), "emit the bucket manifest"),
            ("score", cmd_score, ("--rel-matrix", "--sim-matrix"),
             "write per-bucket score matrices"),
            ("match", cmd_match, ("--lambda", "--jobs"),
             "run the full pipeline and write MCQ items"),
            ("sweep", cmd_sweep, ("--grid",), "rerun matching across a lambda grid")):
        flags += added
        p = sub.add_parser(name, help=help)
        p.add_argument("input", help="corpus JSONL file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)

    p = sub.add_parser("probe", help="frequency-prior probe over MCQ items")
    p.add_argument("input", help="MCQ items JSONL (eval set)")
    p.add_argument("--train", help="MCQ items JSONL to fit the prior on")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
