"""Command-line entry point wiring the library into reproducible pipelines.

Commands: validate, split, buckets, score, match, sweep, probe.
Exit codes: 0 success, 1 data/validation failure, 2 I/O or config failure.

Configuration comes from a JSON file (--config) with flag overrides; the
seed must be pinned in one of the two, never taken from the clock.  Every
config command reads every config key, but takes only the flags of the
values it reads: each command in split, buckets, score, match, sweep takes
the flags of the one before it and adds its own.  ``match`` also writes
the run's manifest, which it builds here.

Each command stages every output file (``_Outputs``) before its expensive
work: staging creates the file empty under a temporary name, so an output
that cannot be written fails the command before it reads the corpus.
``main`` renames them all once the command returns and removes them if it
raised, so a failed command leaves no output file.  ``--out -`` streams to
stdout, unstaged.  ``main`` reports a data, config or I/O error as one
``error:`` line; any other exception is a fault and keeps its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .bucketing import BucketingError
from .corpus import (TASK_MODES, CorpusError, parse_records, scan_records,
                     serialize_records, split_folds)
from .diagnostics import (DiagnosticsError, format_sweep_csv, format_sweep_table,
                          frequency_prior_probe, lambda_sweep)
from .matcher import MatchConfig, MatchingError, parse_items
from .pipeline import (PipelineError, _one_blas_thread, plan_buckets, resolve_mode,
                       run_match)
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
    "n_folds": ("n_folds", _integer),
    "target_size": ("target_size", _integer),
    "mode": ("mode", _text),
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
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config}: not valid UTF-8 ({exc})") from None
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
    # the scorer keys, in table order, with the keys a scorer config takes
    specs = iter({"kind": s.kind, "path": s.path} for s in (rel, sim))
    return {key: next(specs) if cast is _scorer else getattr(config, name)
            for key, (name, cast) in _CONFIG_KEYS.items()}


def cmd_validate(args, outputs) -> int:
    total = problems = 0
    with open(args.input, "rb") as f:
        for _, found in scan_records(f):
            total += 1
            problems += len(found)
            for message in found:
                print(message)
    if not total:  # every command that reads a corpus refuses it too
        print("corpus is empty")
        problems = 1
    if problems:
        print(f"{problems} problem(s) in {args.input}")
        return EXIT_DATA
    print(f"{total} records ok")
    return EXIT_OK


def cmd_split(args, outputs) -> int:
    config, _, _ = _load_config(args)
    target = outputs.stage(args.out)
    records = _read_corpus(args.input)
    if not records:  # refused as the other commands do; split takes any mode
        raise PipelineError("corpus is empty")
    plan = split_folds(records, config.n_folds, config.seed)
    _write_out(target, [serialize_records(records, plan.assignment)])
    return EXIT_OK


def _bucket_plan(buckets) -> str:
    """One JSON line per bucket: ``buckets``' output and what ``match`` digests."""
    return "".join(json.dumps({"fold": b.fold, "bucket": b.bucket_id,
                               "key": b.key.label, "members": [r.id for r in b.members]},
                              ensure_ascii=False, separators=(",", ":")) + "\n"
                   for b in buckets)


def cmd_buckets(args, outputs) -> int:
    config, _, _ = _load_config(args)
    target = outputs.stage(args.out)
    records = _read_corpus(args.input)
    _write_out(target, [_bucket_plan(plan_buckets(records, config)[1])])
    return EXIT_OK


def cmd_score(args, outputs) -> int:
    """Write each bucket's two matrix files into ``--out``, scoring at one
    BLAS thread as a match in this process does."""
    config, rel_spec, sim_spec = _load_config(args)
    if args.out == "-":
        raise ConfigError("score writes a directory of matrix files, not stdout; "
                          "give --out a directory")
    records = _read_corpus(args.input)
    _, buckets = plan_buckets(records, config)
    outdir = outputs.make_dir(Path(args.out or "scores"))
    roles = ("relevance", "similarity")
    names = [outdir / f"{b.bucket_id.replace(':', '_').replace('/', '-')}.{role}.scm"
             for b in buckets for role in roles]
    targets = iter([outputs.stage(name) for name in names])
    store = external_store(rel_spec, sim_spec)
    with _one_blas_thread():
        for b in buckets:
            matrices = score_bucket(b.members, config, rel_spec, sim_spec, store)
            for role, matrix in zip(roles, matrices):
                write_score_matrix(next(targets), role, matrix.values,
                                   [r.id for r in b.members])
    print("\n".join(map(str, names)))
    return EXIT_OK


def cmd_match(args, outputs) -> int:
    """Write the items and, beside a file output, the run's manifest: every
    config key's value and ``--jobs``, the SHA-256 of the corpus, of each
    external matrix file, of the items, of the fold plan and of the bucket
    plan ``buckets`` writes, and the seconds spent parsing and matching."""
    config, rel_spec, sim_spec = _load_config(args)
    out = Path(args.out or "items.jsonl")
    target = outputs.stage(out)
    manifest_target = None if target is None else outputs.stage(f"{out}.manifest.json")
    digest = hashlib.sha256()
    with open(args.input, "rb") as f:
        start = time.monotonic()
        records = parse_records(_hashed_lines(f, digest))
        parse_s = time.monotonic() - start
    inputs = {str(args.input): digest.hexdigest()}
    # the files the run's matrix store indexes
    inputs.update((str(f), digest_file(f)) for f in matrix_files(
        [s.path for s in (rel_spec, sim_spec) if s.kind == "external_matrix"]))
    # run_match writes each bucket's items once the buckets before it are
    # written, so the run's output is never held whole
    start = time.monotonic()
    with _open_out(target) as write:
        result = run_match(records, config, rel_spec, sim_spec, jobs=args.jobs,
                           write=write)
    match_s = time.monotonic() - start
    fold_text = json.dumps(result.fold_plan.assignment, sort_keys=True)
    bucket_text = _bucket_plan(br.bucket for br in result.buckets)
    manifest = {
        "config": {**_config_snapshot(config, rel_spec, sim_spec), "jobs": args.jobs},
        "inputs": inputs,
        "outputs": {str(out): write.digest.hexdigest(),
                    "fold_plan": hashlib.sha256(fold_text.encode("utf-8")).hexdigest(),
                    "buckets": hashlib.sha256(bucket_text.encode("utf-8")).hexdigest()},
        "timings": {"parse": parse_s, "match": match_s},
    }
    if manifest_target is not None:
        _write_out(manifest_target, [
            json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n"])
    # stdout may be the items themselves, so the status line goes to stderr
    print(f"wrote {result.item_count} items to {out}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args, outputs) -> int:
    config, rel_spec, sim_spec = _load_config(args)
    if args.grid is not None:
        try:
            grid = [float(x) for x in args.grid.split(",") if x.strip()]
            for lam in grid:  # every point, before any of them runs
                config.with_lambda(lam)
        except ValueError as exc:  # MatchingError included
            raise ConfigError(f"bad --grid value: {exc}") from exc
        if not grid:
            raise ConfigError(f"--grid {args.grid!r} holds no lambda value")
    out = Path(args.out or "sweep.txt")
    target = outputs.stage(out)
    csv_target = None if target is None else outputs.stage(f"{out}.csv")
    records = _read_corpus(args.input)
    if args.grid is None:
        grid = [config.resolved_lambda(resolve_mode(records, config))]
    rows = lambda_sweep(records, grid, config, rel_spec, sim_spec, jobs=args.jobs)
    table = format_sweep_table(rows)
    _write_out(target, [table])
    if csv_target is not None:
        _write_out(csv_target, [format_sweep_csv(rows)])
        print(table, end="")
    return EXIT_OK


def cmd_probe(args, outputs) -> int:
    with open(args.input, "rb") as f:
        eval_items = train_items = parse_items(f)
    if args.train:
        with open(args.train, "rb") as f:
            train_items = parse_items(f)
    accuracy = frequency_prior_probe(train_items, eval_items)
    print(f"frequency_prior_accuracy\t{accuracy!r}")
    print(f"chance\t{1.0 / len(eval_items[0].choices)!r}")
    return EXIT_OK


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
    """Writes str chunks to a binary stream as UTF-8, hashed into ``digest``."""

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        self.digest = hashlib.sha256()

    def __call__(self, chunk: str) -> None:
        data = chunk.encode("utf-8")
        self._stream.write(data)
        self.digest.update(data)


@dataclass
class _Outputs:
    """A command's output files and the directories made for them."""

    staged: list[tuple[Path, Path]] = field(default_factory=list)  # (temporary, name)
    made: list[Path] = field(default_factory=list)  # deepest first

    def stage(self, path) -> Path | None:
        """The name to write ``path`` under (None: stdout), created empty here;
        refuses a directory."""
        if path is None or str(path) == "-":
            return None
        path = Path(path)
        if path.is_dir():
            raise ConfigError(f"{path} is a directory, not an output file")
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        temp.open("wb").close()
        self.staged.append((temp, path))
        return temp

    def make_dir(self, path: Path) -> Path:
        self.made += [d for d in (path, *path.parents) if not d.exists()]
        path.mkdir(parents=True, exist_ok=True)
        return path


@contextlib.contextmanager
def _open_out(path) -> Iterator[_Sink]:
    """A ``_Sink`` on the file ``path``, or on stdout's bytes for None: UTF-8
    whatever its text layer's encoding, and kept up to an error."""
    if path is None:
        sys.stdout.flush()  # text printed earlier goes first
        try:
            yield _Sink(sys.stdout.buffer)
        finally:
            sys.stdout.buffer.flush()
        return
    with open(path, "wb") as f:
        yield _Sink(f)


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
    outputs = _Outputs()
    try:
        code = args.func(args, outputs)
        for temp, path in outputs.staged:  # the one place an output is renamed
            os.replace(temp, path)
        return code
    except BaseException as exc:
        for temp, _ in outputs.staged:
            temp.unlink(missing_ok=True)
        for d in outputs.made:
            with contextlib.suppress(OSError):  # not empty: not ours alone
                d.rmdir()
        if not isinstance(exc, (*_DATA_ERRORS, ConfigError, OSError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA if isinstance(exc, _DATA_ERRORS) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
