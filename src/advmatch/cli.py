"""Command-line entry point wiring the library into reproducible pipelines.

Commands: validate, split, buckets, score, match, sweep, probe.
Exit codes: 0 success, 1 data/validation failure, 2 I/O or config failure.

Configuration comes from a JSON file (--config) with flag overrides; the
seed must be pinned in one of the two, never taken from the clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Iterable

from .bucketing import BucketingError
from .corpus import (CorpusError, parse_records, scan_records, serialize_records,
                     split_folds)
from .diagnostics import (DiagnosticsError, format_sweep_csv, format_sweep_table,
                          frequency_prior_probe, lambda_sweep)
from .matcher import LAMBDA_DEFAULTS, MatchConfig, MatchingError, parse_items
# Not called here since the workers serialize; bench/tracer.py still wraps
# the name advmatch.cli.write_items, so it stays importable from this module.
from .matcher import write_items  # noqa: F401
from .pipeline import (PipelineError, PipelineManifest, StageTimer, digest_bytes,
                       digest_file, plan_buckets, resolve_mode, run_match)
from .remap import RemapError
from .scoring import ScorerSpec, ScoringError, score_bucket, write_score_matrix

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
    if value.get("eps") is not None:
        _number(f"{key}.eps", value["eps"])
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
    if getattr(args, "config", None):
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
        rel, sim = (ScorerSpec(s["kind"], path=s.get("path"),
                               eps=config.eps if s.get("eps") is None else s["eps"])
                    for s in scorers)
    except (MatchingError, ScoringError) as exc:
        raise ConfigError(str(exc)) from exc
    return config, rel, sim


def _config_snapshot(config: MatchConfig, rel: ScorerSpec, sim: ScorerSpec) -> dict:
    """The value every config key took, as the manifest records it."""
    resolved = replace(config, holdout_folds=config.resolved_holdout())
    specs = iter((rel, sim))  # the scorer keys, in table order
    return {key: asdict(next(specs)) if cast is _scorer else getattr(resolved, name)
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
    _, buckets = plan_buckets(records, config, resolve_mode(records, config))
    lines = [json.dumps({"fold": b.fold, "bucket": b.bucket_id, "key": b.key.label,
                         "members": [r.id for r in b.members]},
                        ensure_ascii=False, separators=(",", ":"))
             for b in buckets]
    _write_out(args.out, ["\n".join(lines) + "\n"])
    return EXIT_OK


def cmd_score(args) -> int:
    config, rel_spec, sim_spec = _load_config(args)
    records = _read_corpus(args.input)
    _, buckets = plan_buckets(records, config, resolve_mode(records, config))
    outdir = Path(args.out or "scores")
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for b in buckets:
        rel, sim = score_bucket(b.members, rel_spec, sim_spec)
        ids = [r.id for r in b.members]
        safe = b.bucket_id.replace(":", "_").replace("/", "-")
        for role, matrix in (("relevance", rel), ("similarity", sim)):
            path = outdir / f"{safe}.{role}.scm"
            write_score_matrix(path, role, matrix, ids)
            written.append(str(path))
    print("\n".join(written))
    return EXIT_OK


def cmd_match(args) -> int:
    config, rel_spec, sim_spec = _load_config(args)
    manifest = PipelineManifest(config={**_config_snapshot(config, rel_spec, sim_spec),
                                        "jobs": args.jobs})
    with open(args.input, "rb") as f:
        data = f.read()
    manifest.inputs[str(args.input)] = digest_bytes(data)
    for spec in (rel_spec, sim_spec):
        if spec.kind == "external_matrix" and spec.path:
            p = Path(spec.path)
            for f in sorted(p.iterdir()) if p.is_dir() else [p]:
                if f.is_file():
                    manifest.inputs[str(f)] = digest_file(f)
    with StageTimer(manifest, "parse"):
        records = parse_records(data.split(b"\n"))  # lines as a file yields them
    with StageTimer(manifest, "match"):
        result = run_match(records, config, rel_spec, sim_spec, jobs=args.jobs)
    out = Path(args.out or "items.jsonl")
    with StageTimer(manifest, "export"):
        texts = (br.text for br in result.buckets)
        manifest.outputs[str(out)] = _write_out(out, texts)
    fold_text = json.dumps(result.fold_plan.assignment, sort_keys=True)
    manifest.outputs["fold_plan"] = digest_bytes(fold_text.encode("utf-8"))
    bucket_text = json.dumps([(br.bucket.bucket_id,
                               [r.id for r in br.bucket.members])
                              for br in result.buckets])
    manifest.outputs["buckets"] = digest_bytes(bucket_text.encode("utf-8"))
    if not _is_stdout(out):
        Path(str(out) + ".manifest.json").write_text(manifest.to_json(),
                                                     encoding="utf-8")
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
        grid = [LAMBDA_DEFAULTS[resolve_mode(records, config)]]
    rows = lambda_sweep(records, grid, config, rel_spec, sim_spec, jobs=args.jobs)
    table = format_sweep_table(rows)
    out = Path(args.out or "sweep.txt")
    _write_out(out, [table])
    if not _is_stdout(out):
        Path(str(out) + ".csv").write_text(format_sweep_csv(rows), encoding="utf-8")
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


def _write_out(path, chunks: Iterable[str]) -> str:
    """Write the chunks as UTF-8, in order, to ``path`` or stdout.

    Returns the SHA-256 of the bytes written, fed chunk by chunk, so the
    whole output is never held as one string.
    """
    digest = hashlib.sha256()
    if _is_stdout(path):
        for chunk in chunks:
            sys.stdout.write(chunk)
            digest.update(chunk.encode("utf-8"))
    else:
        with open(path, "wb") as f:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                f.write(data)
                digest.update(data)
    return digest.hexdigest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advmatch",
        description="Build four-way multiple-choice datasets by adversarial "
                    "matching of gold responses across queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        p.add_argument("input", help="corpus JSONL file")
        if config:
            p.add_argument("--config", help="JSON config file")
            p.add_argument("--lambda", dest="lambda_", type=float,
                           help="relevance/similarity tradeoff (>0)")
            p.add_argument("--rounds", type=int, help="distractors per item")
            p.add_argument("--seed", type=int, help="root seed (mandatory here or in config)")
            p.add_argument("--mode", choices=("qa", "qar"), help="task mode override")
            p.add_argument("--jobs", type=int, default=1, help="parallel bucket workers")
            p.add_argument("--rel-matrix", help="external relevance matrix file/dir")
            p.add_argument("--sim-matrix", help="external similarity matrix file/dir")
        p.add_argument("--out", help="output path (default stdout or command default)")

    p = sub.add_parser("validate", help="check corpus records and exit nonzero on problems")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("split", help="assign fold indices by source key")
    common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("buckets", help="emit the bucket manifest")
    common(p)
    p.set_defaults(func=cmd_buckets)

    p = sub.add_parser("score", help="write per-bucket score matrices")
    common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("match", help="run the full pipeline and write MCQ items")
    common(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("sweep", help="rerun matching across a lambda grid")
    common(p)
    p.add_argument("--grid", help="comma-separated lambda values")
    p.set_defaults(func=cmd_sweep)

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
