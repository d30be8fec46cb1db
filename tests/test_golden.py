"""Byte pins on report bodies and on every file format the package writes.

Each pin is the sha256 of output the code produced when it was recorded. A
change that moves one has changed what logblend reports or writes, and says
why in CHANGES.md; a refactor moves none.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from logblend.corpus import write_dataset
from logblend.fuzzing import FuzzConfig, fuzz
from logblend.harness import plan_from_dict, run_experiment
from logblend.mixing import MixConfig, mix
from logblend.parsers import TreeParserConfig, parse, write_parse_result

from helpers import source_datasets, standard_pools

#: Three of the nine sources, each written as `<name>.csv`.
SOURCES = 3
POOLS = {"outlier_pool": "outlier_pool.csv", "variable_pool": "variable_pool.tsv"}
BUILTIN = [{"kind": "tree"}, {"kind": "tokenfreq"}]

REPORT_DIGESTS = {
    "plain": "50e5b9c8b1e18f717b112d784fe005e68b9f85fc1ca225ffd0f0bc52923cd124",
    "mixed-fuzzed": "3aa5b0b02fb5bb32c6c145ad0e956068f840953d366dcee30dbc937e05533ae8",
    "parsed-external": "3df2bbc8fec08515510f537a9589f3f4d834a9d8523f4c3792e586b8e0ba0d4f",
}

FILE_DIGESTS = {
    "dataset": "a677c7f7cc5210cd8d7e53aeaa50c5133393a2d1ec3216061e59cc0bc88562c4",
    "outlier_pool": "97a4ea8ee4661d383c8fe79128da64ea3ed9ced92c216b2efdfaa4c09f7eec2c",
    "variable_pool": "7e7eea9edc1868c9836fa338722e3ace45b4ffacb1972856e64f6bc45cbe5ce0",
    "parse_result": "e96e2e0f74ae58d5829505e86a965eea5601dbe6af1a5fd849f5cc2a354dc5ac",
}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The sources, both pools and an echoing parser file, on disk."""
    root = tmp_path_factory.mktemp("golden")
    sources = source_datasets()[:SOURCES]
    for ds in sources:
        write_dataset(ds, root / f"{ds.name}.csv")
    opool, vpool = standard_pools()
    opool.save(root / POOLS["outlier_pool"])
    vpool.save(root / POOLS["variable_pool"])
    # A parser that never emits a wildcard: each line's template is its content.
    write_parse_result(list(sources[0].contents()), root / "echo.csv")
    return root, [f"{ds.name}.csv" for ds in sources]


def _blank_paths(doc):
    """`doc` with every "path" value emptied, since paths name the work dir."""
    if isinstance(doc, dict):
        return {k: "" if k == "path" else _blank_paths(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_blank_paths(v) for v in doc]
    return doc


def _body_digest(doc: dict, root) -> str:
    """sha256 of the report body of plan `doc`, read from `root`, paths blanked."""
    body = run_experiment(plan_from_dict(doc, base_dir=root)).to_dict()
    body["plan"]["datasets"] = ["" for _ in body["plan"]["datasets"]]
    return hashlib.sha256(json.dumps(_blank_paths(body), indent=2).encode()).hexdigest()


def _plans(names) -> dict[str, dict]:
    return {
        "plain": {"datasets": names, "parsers": BUILTIN},
        "mixed-fuzzed": {
            "datasets": names,
            "parsers": BUILTIN,
            "synthesis": {"mix_strength": 1.0, "fuzz_mode": "labeled", **POOLS},
        },
        # A plan with an external parser has one dataset.
        "parsed-external": {
            "datasets": names[:1],
            "parsers": [{"kind": "tree"}, {"kind": "external", "path": "echo.csv"}],
            "synthesis": {
                "mix_strength": 1.0,
                "fuzz_mode": "parsed",
                "labels": "parsed",
                **POOLS,
            },
        },
    }


@pytest.mark.parametrize("plan", sorted(REPORT_DIGESTS))
def test_report_body_is_pinned(golden, plan):
    root, names = golden
    doc = {**_plans(names)[plan], "runs": 2}
    assert _body_digest(doc, root) == REPORT_DIGESTS[plan]


def test_written_files_are_pinned(golden, tmp_path):
    root, _ = golden
    opool, vpool = standard_pools()
    ds = source_datasets()[0]
    mixed = mix(ds, opool, MixConfig(strength=1.0, seed=0))
    data = fuzz(mixed, vpool, FuzzConfig(seed=0)).dataset
    write_dataset(data, tmp_path / "dataset.csv")
    write_parse_result(parse(data, TreeParserConfig()), tmp_path / "parse_result.csv")
    files = {
        "dataset": tmp_path / "dataset.csv",
        "outlier_pool": root / POOLS["outlier_pool"],
        "variable_pool": root / POOLS["variable_pool"],
        "parse_result": tmp_path / "parse_result.csv",
    }
    digests = {key: hashlib.sha256(p.read_bytes()).hexdigest() for key, p in files.items()}
    assert digests == FILE_DIGESTS
