"""README's "Library surface" example runs as written, and its config
example loads as written."""

from __future__ import annotations

import argparse
import ast
import json
import re
from pathlib import Path

import advmatch
from advmatch import cli
from advmatch.corpus import serialize_records
from advmatch.matcher import write_items

from conftest import multi_fold_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    code = _library_example()
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "advmatch"
                for alias in node.names}
    assert imported and imported <= set(advmatch.__all__)
    # 44 source keys over the example's 11 folds: a bucket of 12 per fold
    records = multi_fold_corpus(n_keys=44, per_key=3, seed=0)
    (tmp_path / "corpus.jsonl").write_text(serialize_records(records),
                                           encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    assert len(scope["items"]) == len(records)
    assert write_items(scope["items"]) == scope["text"]
    assert (tmp_path / "items.jsonl").read_bytes() == scope["text"].encode("utf-8")


def test_config_example_holds_every_key_and_loads(tmp_path):
    text = README.read_text(encoding="utf-8").split("Config file (UTF-8 JSON", 1)[1]
    block = re.search(r"```json\n(.*?)```", text, re.DOTALL).group(1)
    example = json.loads(block)
    assert list(example) == list(cli._CONFIG_KEYS)
    path = tmp_path / "config.json"
    path.write_text(block, encoding="utf-8")
    loaded = cli._load_config(argparse.Namespace(config=str(path)))
    # the manifest's record of it: each value as written, a scorer with its path
    assert cli._config_snapshot(*loaded) == {
        key: {"path": None, **value} if isinstance(value, dict) else value
        for key, value in example.items()}
