"""Command-line entry point wiring the library into reproducible pipelines.

Commands: validate, split, buckets, score, match, sweep, probe.
Exit codes: 0 success, 1 data/validation failure, 2 I/O or config failure.

Configuration comes from a JSON file (--config) with flag overrides; the
seed must be pinned in one of the two, never taken from the clock.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bucketing import BucketingError
from .corpus import (CorpusError, parse_records, record_from_obj, record_to_json,
                     split_folds, validate_record)
from .diagnostics import (DiagnosticsError, format_sweep_csv, format_sweep_table,
                          frequency_prior_probe, lambda_sweep)
from .matcher import LAMBDA_DEFAULTS, MatchConfig, MatchingError, parse_items, write_items
from .pipeline import (PipelineError, PipelineManifest, StageTimer, digest_bytes,
                       plan_buckets, resolve_mode, run_match)
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


_CONFIG_KEYS = frozenset({"seed", "lambda", "rounds", "eps", "p_reuse", "n_folds",
                          "target_size", "mode", "holdout_folds",
                          "relevance_scorer", "similarity_scorer"})


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
        unknown = sorted(set(raw) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys {unknown}")

    def flag(name, key, cast):
        value = getattr(args, name, None)
        if value is not None:
            return cast(value)
        if key in raw and raw[key] is not None:
            return cast(raw[key])
        return None

    seed = flag("seed", "seed", int)
    if seed is None:
        raise ConfigError("a seed is required (config 'seed' or --seed)")
    kwargs = dict(seed=seed)
    for name, key, cast in (("lambda_", "lambda", float), ("rounds", "rounds", int),
                            ("eps", "eps", float), ("p_reuse", "p_reuse", float),
                            ("n_folds", "n_folds", int),
                            ("target_size", "target_size", int),
                            ("mode", "mode", str)):
        value = flag(name, key, cast)
        if value is not None:
            kwargs[name] = value
    if raw.get("holdout_folds") is not None:
        kwargs["holdout_folds"] = tuple(int(f) for f in raw["holdout_folds"])
    try:
        config = MatchConfig(**kwargs)
    except MatchingError as exc:
        raise ConfigError(str(exc)) from exc

    def scorer(key: str, override_path: str | None, default_kind: str) -> ScorerSpec:
        if override_path:
            return ScorerSpec("external_matrix", eps=config.eps, path=override_path)
        spec = raw.get(key)
        if spec is None:
            return ScorerSpec(default_kind, eps=config.eps)
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError(f"config {key!r} must be an object with a 'kind'")
        try:
            return ScorerSpec(spec["kind"], eps=float(spec.get("eps", config.eps)),
                              path=spec.get("path"))
        except ScoringError as exc:
            raise ConfigError(str(exc)) from exc

    rel = scorer("relevance_scorer", getattr(args, "rel_matrix", None), "overlap")
    sim = scorer("similarity_scorer", getattr(args, "sim_matrix", None), "overlap")
    return config, rel, sim


def cmd_validate(args) -> int:
    total = 0
    bad = 0
    seen: dict[str, int] = {}
    with open(args.input, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            total += 1
            try:
                obj = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                print(f"line {lineno}: malformed JSON ({exc})")
                bad += 1
                continue
            try:
                if not isinstance(obj, dict):
                    raise CorpusError(f"line {lineno}: expected a JSON object")
                record = record_from_obj(obj, lineno)
            except CorpusError as exc:
                print(exc)
                bad += 1
                continue
            report = validate_record(record)
            if not report.ok:
                bad += 1
                for v in report.violations:
                    print(f"record {record.id} (line {lineno}): {v}")
            if record.id in seen:
                bad += 1
                print(f"record {record.id} (line {lineno}): duplicate id, "
                      f"first seen on line {seen[record.id]}")
            else:
                seen[record.id] = lineno
    if bad:
        print(f"{bad} problem(s) in {args.input}")
        return EXIT_DATA
    print(f"{total} records ok")
    return EXIT_OK


def cmd_split(args) -> int:
    config, _, _ = _load_config(args)
    records = _read_corpus(args.input)
    plan = split_folds(records, config.n_folds, config.seed)
    lines = [record_to_json(r, fold=plan.fold_of(r)) for r in records]
    text = "\n".join(lines) + "\n"
    _write_out(args.out, text)
    return EXIT_OK


def cmd_buckets(args) -> int:
    config, _, _ = _load_config(args)
    records = _read_corpus(args.input)
    _, buckets = plan_buckets(records, config, resolve_mode(records, config))
    lines = [json.dumps({"fold": b.fold, "bucket": b.bucket_id, "key": b.key.label,
                         "members": [r.id for r in b.members]},
                        ensure_ascii=False, separators=(",", ":"))
             for b in buckets]
    _write_out(args.out, "\n".join(lines) + "\n")
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
    manifest = PipelineManifest(config={
        "seed": config.seed, "lambda": config.lambda_, "rounds": config.rounds,
        "eps": config.eps, "p_reuse": config.p_reuse, "n_folds": config.n_folds,
        "target_size": config.target_size, "mode": config.mode,
        "holdout_folds": list(config.resolved_holdout()),
        "relevance_scorer": rel_spec.kind, "similarity_scorer": sim_spec.kind,
        "jobs": args.jobs,
    })
    with open(args.input, "rb") as f:
        data = f.read()
    manifest.inputs[str(args.input)] = digest_bytes(data)
    for spec in (rel_spec, sim_spec):
        if spec.kind == "external_matrix" and spec.path:
            p = Path(spec.path)
            for f in sorted(p.iterdir()) if p.is_dir() else [p]:
                if f.is_file():
                    manifest.inputs[str(f)] = digest_bytes(f.read_bytes())
    with StageTimer(manifest, "parse"):
        records = parse_records(data.splitlines())
    with StageTimer(manifest, "match"):
        result = run_match(records, config, rel_spec, sim_spec, jobs=args.jobs)
    with StageTimer(manifest, "export"):
        text = write_items(result.items)
    out = Path(args.out or "items.jsonl")
    _write_out(out, text)
    manifest.outputs[str(out)] = digest_bytes(text.encode("utf-8"))
    fold_text = json.dumps(result.fold_plan.assignment, sort_keys=True)
    manifest.outputs["fold_plan"] = digest_bytes(fold_text.encode("utf-8"))
    bucket_text = json.dumps([(br.bucket.bucket_id,
                               [r.id for r in br.bucket.members])
                              for br in result.buckets])
    manifest.outputs["buckets"] = digest_bytes(bucket_text.encode("utf-8"))
    manifest_path = Path(str(out) + ".manifest.json")
    manifest_path.write_text(manifest.to_json(), encoding="utf-8")
    print(f"wrote {len(result.items)} items to {out}")
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
    _write_out(out, table)
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


def _write_out(path, text: str) -> None:
    if path is None or str(path) == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


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
