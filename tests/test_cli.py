"""CLI subcommands, formats, and exit codes."""

from __future__ import annotations

import json
import shutil
from dataclasses import fields

import pytest

from logblend import cli
from logblend.cli import _PARSER_FLAGS, EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from logblend.corpus import Dataset, load_structured, write_dataset
from logblend.fuzzing import FuzzConfig, fuzz
from logblend.heterogeneity import INDUSTRY_REFERENCE, ProxyStats, h_score, proxy_stats
from logblend.parsers import (
    PARSER_CONFIGS,
    IdentityParserConfig,
    TokenFrequencyParserConfig,
    TreeParserConfig,
    parse,
    read_parse_result,
    write_parse_result,
)
from logblend.pool import VariablePool

from helpers import apacheish, outlier_pool, source_datasets


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_dataset(apacheish(), root / "apacheish.csv")
    for ds in source_datasets()[1:4]:
        write_dataset(ds, root / f"{ds.name}.csv")
    rc = main(
        [
            "pool",
            "build",
            "--outlier-fraction",
            "0.05",
            "--out",
            str(root / "pools"),
        ]
        + [str(root / f"{name}.csv") for name in ("apacheish", "dbsvc", "authsvc", "netmon")]
    )
    assert rc == EXIT_OK
    return root


def test_stats_outputs_json(cli_workspace, capsys):
    rc = main(["stats", "--in", str(cli_workspace / "apacheish.csv")])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"nuw", "nuc", "nuldl"}


def test_stats_raw_input(cli_workspace, tmp_path, capsys):
    raw = tmp_path / "messages.log"
    raw.write_text("alpha beta\ngamma\n", encoding="utf-8")
    rc = main(["stats", "--in", str(raw), "--raw"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["nuw"] == 3


def test_heterogeneity_with_reference_flags(cli_workspace, capsys):
    rc = main(
        [
            "heterogeneity",
            "--in",
            str(cli_workspace / "apacheish.csv"),
            "--ref-nuw", "300", "--ref-nuc", "40", "--ref-nuldl", "25",
        ]
    )
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert 0 < doc["h"] <= 1
    assert set(doc["components"]) == {"nuw_ratio", "nuc_ratio", "nuldl_ratio"}


@pytest.mark.parametrize(
    "flags, reference",
    [
        ([], INDUSTRY_REFERENCE),
        (["--ref-nuc", "40"], ProxyStats(nuw=4421, nuc=40, nuldl=181)),
    ],
    ids=["industry-default", "one-flag-overrides-its-component"],
)
def test_heterogeneity_reference_defaults_to_industry(
    cli_workspace, capsys, flags, reference
):
    path = cli_workspace / "apacheish.csv"
    assert main(["heterogeneity", "--in", str(path), *flags]) == EXIT_OK
    expected = h_score(proxy_stats(load_structured(path)), reference).as_dict()
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))


@pytest.mark.parametrize("value", ["0", "-1"])
def test_heterogeneity_non_positive_reference_exits_2(cli_workspace, capsys, value):
    path = cli_workspace / "apacheish.csv"
    argv = ["heterogeneity", "--in", str(path), "--ref-nuc", value]
    assert main(argv) == EXIT_DATA
    assert "components must be positive" in capsys.readouterr().err


def test_pool_build_created_both_files(cli_workspace):
    assert (cli_workspace / "pools" / "outlier_pool.csv").exists()
    assert (cli_workspace / "pools" / "variable_pool.tsv").exists()


def test_pool_build_with_unsavable_source_exits_2_and_writes_nothing(tmp_path, capsys):
    data = tmp_path / "tabbed.csv"
    write_dataset(
        Dataset("tabbed", ["open 1", "open 2"], ["open <*>"] * 2, ["a\tb", "tabbed"]),
        data,
    )
    out = tmp_path / "pools"
    assert main(["pool", "build", "--out", str(out), str(data)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "'1'" in err and "'a\\tb'" in err
    assert not out.exists()


def test_pool_build_with_unsavable_source_leaves_an_existing_out_as_it_was(tmp_path):
    data = tmp_path / "tabbed.csv"
    write_dataset(Dataset("tabbed", ["open 1"], ["open <*>"], ["a\tb"]), data)
    out = tmp_path / "pools"
    out.mkdir()
    (out / "outlier_pool.csv").write_text("kept\n", encoding="utf-8")
    assert main(["pool", "build", "--out", str(out), str(data)]) == EXIT_DATA
    assert [p.name for p in out.iterdir()] == ["outlier_pool.csv"]
    assert (out / "outlier_pool.csv").read_text(encoding="utf-8") == "kept\n"


def test_mix_writes_dataset(cli_workspace, tmp_path):
    out = tmp_path / "mixed.csv"
    rc = main(
        [
            "mix",
            "--in", str(cli_workspace / "apacheish.csv"),
            "--pool", str(cli_workspace / "pools"),
            "--strength", "1.0",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    mixed = load_structured(out, name="apacheish")
    assert len(mixed) == 2000
    assert any(source != "apacheish" for source in mixed.sources)


def test_fuzz_writes_labeled_dataset(cli_workspace, tmp_path):
    out = tmp_path / "fuzzed.csv"
    rc = main(
        [
            "fuzz",
            "--in", str(cli_workspace / "apacheish.csv"),
            "--vpool", str(cli_workspace / "pools" / "variable_pool.tsv"),
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    fuzzed = load_structured(out)
    assert len(fuzzed) == 2000
    assert None not in fuzzed.ground_truths
    # Written under another name, the lines keep the source they came from.
    assert fuzzed.sources == ("apacheish",) * 2000


@pytest.mark.parametrize("command", ["mix", "fuzz", "combine"])
def test_output_the_writer_refuses_is_a_named_error(
    command, cli_workspace, tmp_path, capsys, monkeypatch
):
    # No file loads into such a dataset; one row is too few for mixing to
    # replace, and its template, holding no wildcard, is not refilled.
    broken = Dataset("broken", ["a\nb"], ["a\nb"], ["broken"])
    monkeypatch.setattr(cli, "load_structured", lambda path: broken)
    source, pools = str(cli_workspace / "apacheish.csv"), cli_workspace / "pools"
    argv = {
        "mix": ["--in", source, "--pool", str(pools), "--strength", "1.0"],
        "fuzz": ["--in", source, "--vpool", str(pools / "variable_pool.tsv")],
        "combine": [source, str(cli_workspace / "dbsvc.csv"), "--size", "2"],
    }[command]
    out = tmp_path / "out.csv"
    assert main([command, *argv, "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {out}: line 1 content contains a line break" in err
    assert not out.exists()


def test_an_empty_pool_is_a_named_error(cli_workspace, tmp_path, capsys):
    source = str(cli_workspace / "apacheish.csv")
    vpool, opool = tmp_path / "empty.tsv", tmp_path / "empty.csv"
    VariablePool().save(vpool)
    outlier_pool(()).save(opool)
    out = tmp_path / "out.csv"
    for argv, named in (
        (
            ["fuzz", "--in", source, "--vpool", str(vpool)],
            f"{vpool}: variable pool holds no values",
        ),
        (
            ["mix", "--in", source, "--pool", str(opool), "--strength", "1.0"],
            f"{opool}: outlier pool holds no lines",
        ),
    ):
        assert main([*argv, "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {named}\n"
    assert not out.exists()


def test_a_plan_that_fuzzes_from_an_empty_pool_exits_2_before_loading_data(
    tmp_path, capsys
):
    VariablePool().save(tmp_path / "empty.tsv")
    plan = {
        "datasets": ["missing.csv"],
        "parsers": [{"kind": "tree"}],
        "synthesis": {"fuzz_mode": "labeled", "variable_pool": "empty.tsv"},
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    assert main(["benchmark", "--plan", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: plan.synthesis.variable_pool holds no values\n"


@pytest.mark.parametrize("strength", [0.0, 1.0])
def test_a_plan_that_mixes_from_an_empty_pool_exits_2_before_loading_data(
    tmp_path, capsys, strength
):
    outlier_pool(()).save(tmp_path / "empty.csv")
    plan = {
        "datasets": ["missing.csv"],
        "parsers": [{"kind": "tree"}],
        "synthesis": {"mix_strength": strength, "outlier_pool": "empty.csv"},
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    assert main(["benchmark", "--plan", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: plan.synthesis.outlier_pool holds no lines\n"


def test_a_parser_output_one_row_short_names_its_dataset(cli_workspace, tmp_path, capsys):
    dataset, pools = cli_workspace / "apacheish.csv", cli_workspace / "pools"
    n = len(load_structured(dataset))
    short = tmp_path / "short.csv"
    write_parse_result(["a"] * (n - 1), short)
    named = f"{short}: {n - 1} templates for the {n} records of dataset 'apacheish'"
    out = str(tmp_path / "out.csv")
    for argv in (
        ["mix", "--in", str(dataset), "--pool", str(pools), "--strength", "1.0",
         "--parsed", str(short), "--out", out],
        ["fuzz", "--in", str(dataset), "--vpool", str(pools / "variable_pool.tsv"),
         "--parsed", str(short), "--out", out],
        ["evaluate", "--truth", str(dataset), "--predicted", str(short)],
    ):
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {named}\n"
    # In a plan the mismatch fails the external parser's cells, as any read does.
    plan = {
        "datasets": [str(dataset)],
        "parsers": [{"kind": "external", "path": str(short)}],
        "runs": 2,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    assert main(["benchmark", "--plan", str(path)]) == EXIT_OK
    parsers = json.loads(capsys.readouterr().out)["datasets"]["apacheish"]["parsers"]
    assert parsers["external:short.csv"]["failures"] == [f"ShapeError: {named}"] * 2


def test_fuzz_counts_skipped_records_on_stderr(cli_workspace, tmp_path, capsys):
    # Row 2's content does not match its template, so fuzz passes it through.
    source = tmp_path / "unaligned.csv"
    source.write_text(
        "LineId,Content,EventTemplate\n1,open 1,open <*>\n2,close 2,open <*>\n",
        encoding="utf-8",
    )
    out = tmp_path / "fuzzed.csv"
    vpool = cli_workspace / "pools" / "variable_pool.tsv"
    argv = ["fuzz", "--in", str(source), "--vpool", str(vpool), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == "skipped 1 unalignable records\n"
    assert load_structured(out).contents()[1] == "close 2"


def test_parse_then_evaluate(cli_workspace, tmp_path, capsys):
    parsed = tmp_path / "parsed.csv"
    rc = main(
        [
            "parse",
            "--in", str(cli_workspace / "apacheish.csv"),
            "--parser", "tree",
            "--depth", "4",
            "--st", "0.4",
            "--out", str(parsed),
        ]
    )
    assert rc == EXIT_OK
    header = parsed.read_text(encoding="utf-8").splitlines()[0]
    assert header == "LineId,EventTemplate"

    rc = main(
        [
            "evaluate",
            "--truth", str(cli_workspace / "apacheish.csv"),
            "--predicted", str(parsed),
        ]
    )
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["template_accuracy"] > 0.9
    assert doc["grouping_accuracy"] > 0.9


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--parser", "tokenfreq", "--tf-threshold", "0.3"],
         TokenFrequencyParserConfig(threshold=0.3)),
        (["--parser", "tokenfreq"], TokenFrequencyParserConfig()),
        ([], TreeParserConfig()),
        (["--parser", "tree", "--depth", "3", "--st", "0.5", "--max-children", "2",
          "--mask", r"\d+"],
         TreeParserConfig(depth=3, similarity_threshold=0.5, max_children=2,
                          masks=(r"\d+",))),
        (["--parser", "identity"], IdentityParserConfig()),
    ],
    ids=["tokenfreq", "tokenfreq-default", "tree-default", "tree", "identity"],
)
def test_parse_writes_what_the_library_parser_returns(
    cli_workspace, tmp_path, argv, config
):
    source = cli_workspace / "apacheish.csv"
    got = tmp_path / "got.csv"
    assert main(["parse", "--in", str(source), *argv, "--out", str(got)]) == EXIT_OK
    want = tmp_path / "want.csv"
    write_parse_result(parse(load_structured(source), config), want)
    assert got.read_bytes() == want.read_bytes()


def test_evaluate_canonicalizes_templates_where_read(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("LineId,Content,EventTemplate\n1,a 1,a  <*>\n", encoding="utf-8")
    predicted = tmp_path / "predicted.csv"
    predicted.write_text("LineId,EventTemplate\n1,a <*> \n", encoding="utf-8")
    rc = main(["evaluate", "--truth", str(truth), "--predicted", str(predicted)])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["template_accuracy"] == 1.0
    assert doc["mean_edit_distance"] == 0.0


def test_parsed_mode_fuzz_via_cli(cli_workspace, tmp_path):
    # --parsed alone aligns each line with the parser's template, exactly as
    # the library does when given the same templates.
    ds = load_structured(cli_workspace / "apacheish.csv")
    vpool_path = cli_workspace / "pools" / "variable_pool.tsv"
    parsed = tmp_path / "parsed.csv"
    main(["parse", "--in", str(cli_workspace / "apacheish.csv"), "--out", str(parsed)])
    templates = read_parse_result(parsed)
    assert templates != ds.labels()
    out = tmp_path / "fuzzed_parsed.csv"
    rc = main(
        [
            "fuzz",
            "--in", str(cli_workspace / "apacheish.csv"),
            "--vpool", str(vpool_path),
            "--parsed", str(parsed),
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    expected = tmp_path / "expected.csv"
    vpool = VariablePool.load(vpool_path)
    write_dataset(fuzz(ds, vpool, FuzzConfig(seed=3), templates).dataset, expected)
    assert out.read_bytes() == expected.read_bytes()


def test_combine_across_datasets(cli_workspace, tmp_path):
    out = tmp_path / "combined.csv"
    rc = main(
        [
            "combine",
            str(cli_workspace / "apacheish.csv"),
            str(cli_workspace / "dbsvc.csv"),
            "--size", "100",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    combined = load_structured(out)
    assert set(combined.sources) == {"apacheish", "dbsvc"}


def test_combine_size_below_1_is_usage_error(cli_workspace, tmp_path, capsys):
    out = tmp_path / "combined.csv"
    argv = ["combine", str(cli_workspace / "apacheish.csv"), "--size", "0"]
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert "size must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_runs_plan(cli_workspace, tmp_path, capsys):
    plan = {
        "datasets": ["apacheish.csv"],
        "parsers": [{"kind": "tree"}, {"kind": "identity"}],
        "synthesis": {
            "mix_strength": 1.0,
            "fuzz_mode": "labeled",
            "outlier_pool": "pools/outlier_pool.csv",
            "variable_pool": "pools/variable_pool.tsv",
        },
        "runs": 2,
        "base_seed": 0,
    }
    plan_path = cli_workspace / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    out = tmp_path / "report.json"
    rc = main(["benchmark", "--plan", str(plan_path), "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text(encoding="utf-8"))
    tree = doc["datasets"]["apacheish"]["parsers"]["tree"]
    identity = doc["datasets"]["apacheish"]["parsers"]["identity"]
    assert identity["mean"]["template_accuracy"] == 1.0
    assert tree["mean"]["template_accuracy"] < 0.5
    assert "timings" not in doc


def test_benchmark_plan_with_an_empty_outlier_pool_template_exits_2(
    cli_workspace, tmp_path, capsys
):
    pool = tmp_path / "outliers.csv"
    pool.write_text(
        "LineId,Content,EventTemplate,Source\n1,x 1,x <*>,a\n2,y 2,,b\n", encoding="utf-8"
    )
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps({
            "datasets": [str(cli_workspace / "apacheish.csv")],
            "parsers": [{"kind": "identity"}],
            "synthesis": {"mix_strength": 1.0, "outlier_pool": "outliers.csv"},
            "runs": 1,
        }),
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    assert main(["benchmark", "--plan", str(plan), "--out", str(out)]) == EXIT_DATA
    assert f"{pool}: LineId 2 has an empty EventTemplate" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_resolves_external_output_against_the_plan_directory(
    tmp_path, capsys, monkeypatch
):
    plan_dir = tmp_path / "plans"
    plan_dir.mkdir()
    ds = apacheish()
    write_dataset(ds, plan_dir / "apacheish.csv")
    write_parse_result(ds.labels(), plan_dir / "truth.csv")
    plan = {
        "datasets": ["apacheish.csv"],
        "parsers": [{"kind": "external", "path": "truth.csv"}],
        "runs": 1,
    }
    (plan_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["benchmark", "--plan", "plans/plan.json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["plan"]["parsers"] == [{"kind": "external", "path": "plans/truth.csv"}]
    external = doc["datasets"]["apacheish"]["parsers"]["external:truth.csv"]
    assert external["mean"] == {
        "grouping_accuracy": 1.0, "template_accuracy": 1.0, "mean_edit_distance": 0.0
    }


def test_benchmark_overrides_and_timings(cli_workspace, tmp_path, capsys):
    plan = {
        "datasets": ["apacheish.csv"],
        "parsers": [{"kind": "identity"}],
        "runs": 5,
        "base_seed": 0,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    # plan paths resolve relative to the plan file; point at the workspace copy
    plan["datasets"] = [str(cli_workspace / "apacheish.csv")]
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    rc = main(
        [
            "benchmark",
            "--plan", str(plan_path),
            "--runs", "2",
            "--seed", "41",
            "--timings",
        ]
    )
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["plan"]["runs"] == 2
    assert doc["plan"]["seeds"] == [41, 42]
    assert "timings" in doc


def test_benchmark_runs_override_is_validated(cli_workspace, tmp_path, capsys):
    plan = {
        "datasets": [str(cli_workspace / "apacheish.csv")],
        "parsers": [{"kind": "identity"}],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    assert main(["benchmark", "--plan", str(plan_path), "--runs", "0"]) == EXIT_DATA
    assert "runs must be >= 1" in capsys.readouterr().err
    assert main(["benchmark", "--plan", str(plan_path), "--runs", "10001"]) == EXIT_DATA
    assert capsys.readouterr().err == "error: plan.runs must be <= 10000, got 10001\n"


def test_exit_code_usage_error():
    assert main(["mix", "--strength", "0.5"]) == EXIT_USAGE


def test_parse_bad_mask_is_usage_error(cli_workspace, tmp_path, capsys):
    argv = ["parse", "--in", str(cli_workspace / "apacheish.csv"), "--mask", "(",
            "--out", str(tmp_path / "parsed.csv")]
    assert main(argv) == EXIT_USAGE
    assert "mask '('" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--parser", "tokenfreq", "--depth", "2"], "--depth"),
        (["--parser", "tokenfreq", "--st", "0.5"], "--st"),
        (["--parser", "tokenfreq", "--max-children", "5"], "--max-children"),
        (["--parser", "tokenfreq", "--mask", "a", "--depth", "2"], "--depth, --mask"),
        (["--parser", "tree", "--tf-threshold", "0.3"], "--tf-threshold"),
        (["--tf-threshold", "0.3"], "--tf-threshold"),
        (["--parser", "identity", "--depth", "2"], "--depth"),
        (["--parser", "identity", "--tf-threshold", "0.3"], "--tf-threshold"),
    ],
)
def test_parse_rejects_another_parsers_flag(cli_workspace, tmp_path, capsys, argv, named):
    out = tmp_path / "parsed.csv"
    argv = ["parse", "--in", str(cli_workspace / "apacheish.csv"), *argv, "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    parser = argv[argv.index("--parser") + 1] if "--parser" in argv else "tree"
    assert f"--parser {parser} does not take {named}" in capsys.readouterr().err
    assert not out.exists()


def test_each_parser_flag_sets_a_field_of_exactly_one_builtin_config():
    for flag, name in _PARSER_FLAGS.values():
        owners = [
            kind for kind, cls in PARSER_CONFIGS.items()
            if name in {f.name for f in fields(cls)}
        ]
        assert len(owners) == 1, (flag, owners)


def test_parse_max_children_below_1_is_usage_error(cli_workspace, tmp_path, capsys):
    argv = ["parse", "--in", str(cli_workspace / "apacheish.csv"),
            "--max-children", "0", "--out", str(tmp_path / "parsed.csv")]
    assert main(argv) == EXIT_USAGE
    assert "max_children must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "plan, named",
    [
        ([{"kind": "tree"}], "plan must be dict"),
        ({"runs": "2"}, "plan.runs"),
        ({"parsers": [{"kind": "tree", "depth": "4"}]}, "plan.parsers[0].depth"),
        ({"parsers": [{"kind": "external"}]}, "plan.parsers[0].path"),
        ({"reference": {"nuw": 1, "nuldl": 1}}, "plan.reference.nuc"),
        ({"reference": {}}, "plan.reference.nuw is missing"),
        # Checked before any dataset is loaded, so the missing file is not reached.
        (
            {"datasets": ["missing.csv"], "reference": {"nuw": 0, "nuc": 9, "nuldl": 9}},
            "plan.reference",
        ),
        (
            {"parsers": [{"kind": "tree", "similarity_treshold": 0.5}]},
            "plan.parsers[0].similarity_treshold",
        ),
        ({"parsers": [{"kind": "tree", "depth": 0}]}, "plan.parsers[0]: depth"),
        ({"parsers": [{"kind": "tree", "masks": ["("]}]}, "mask '('"),
        ({"parsers": [{"kind": "tree", "masks": "\\d+"}]}, "plan.parsers[0].masks"),
        ({"parsers": [{"kind": "tree"}, {"kind": "tree", "depth": 6}]}, "'tree'"),
        ({"datasets": ["a.csv", "b/a.csv"]}, "'a'"),
        (
            {"datasets": ["apacheish.csv"], "synthesis": {"mix_strength": 1.0}},
            "no outlier pool",
        ),
        ({"synthesis": {"mix_strength": 2.0}}, "plan.synthesis.mix_strength"),
        ({"synthesis": {"mix_strength": -0.1}}, "plan.synthesis.mix_strength"),
        ({"synthesis": {"fuzz_mode": "labeled"}}, "no variable pool"),
        ({"synthesis": {"fuzz_mode": "bogus"}}, "plan.synthesis.fuzz_mode"),
        ({"synthesis": {"labels": "bogus"}}, "plan.synthesis.labels"),
        ({"parsers": [{"kind": "drain"}]}, "plan.parsers[0].kind"),
        ({"synthesis": {"mix_strength": 0.5}}, "plan.synthesis.outlier_pool"),
        ({"synthesis": {"fuzz_mode": "parsed"}}, "plan.synthesis.variable_pool"),
        ({"runs": 0}, "plan.runs"),
        (
            {
                "datasets": ["a.csv", "b.csv"],
                "parsers": [{"kind": "tree"}, {"kind": "external", "path": "a.out"}],
            },
            "plan.parsers[1] is external",
        ),
        ({"synthesis": {"labels": "parsed"}}, "plan.synthesis.labels 'parsed' needs"),
        (
            {"parsers": [{"kind": "tree"}], "runs": 2},
            "error: plan.datasets must name at least one dataset",
        ),
        (
            {"datasets": [], "parsers": [{"kind": "tree"}], "runs": 2},
            "error: plan.datasets must name at least one dataset",
        ),
        ({"datasets": ["a\0.csv"]}, "error: plan.datasets[0] holds a NUL character"),
        (
            {"parsers": [{"kind": "external", "path": "\0"}]},
            "error: plan.parsers[0].path holds a NUL character",
        ),
        (
            {"synthesis": {"fuzz_mode": "labeled", "variable_pool": "\0"}},
            "error: plan.synthesis.variable_pool holds a NUL character",
        ),
        ({"runs": 10**23}, f"error: plan.runs must be <= 10000, got {10**23}\n"),
    ],
    ids=[
        "not-an-object",
        "runs-not-int",
        "depth-not-int",
        "external-without-path",
        "reference-without-nuc",
        "reference-empty",
        "reference-not-positive",
        "unknown-parser-key",
        "config-rejects-value",
        "mask-not-a-regex",
        "masks-not-a-list",
        "duplicate-parser",
        "duplicate-dataset",
        "mix-without-pool",
        "mix-strength-above-1",
        "mix-strength-below-0",
        "fuzz-without-pool",
        "fuzz-mode-unknown",
        "labels-unknown",
        "parser-kind-unknown",
        "mix-without-pool-names-the-key",
        "fuzz-without-pool-names-the-key",
        "runs-below-1",
        "external-in-multi-dataset-plan",
        "parsed-labels-without-mixing",
        "datasets-missing",
        "datasets-empty",
        "nul-in-dataset-path",
        "nul-in-external-path",
        "nul-in-pool-path",
        "runs-above-ceiling",
    ],
)
def test_malformed_plan_exits_2_naming_the_key(
    cli_workspace, tmp_path, capsys, plan, named
):
    shutil.copy(cli_workspace / "apacheish.csv", tmp_path)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    assert main(["benchmark", "--plan", str(path)]) == EXIT_DATA
    assert named in capsys.readouterr().err


def test_exit_code_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("NotContent\nx\n", encoding="utf-8")
    assert main(["stats", "--in", str(bad)]) == EXIT_DATA


def test_exit_code_missing_file():
    assert main(["stats", "--in", "/no/such/file.csv"]) == EXIT_DATA


def test_removed_flags_are_usage_errors(cli_workspace, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"datasets": [], "parsers": []}), encoding="utf-8")
    assert main(["benchmark", "--plan", str(plan), "--workers", "2"]) == EXIT_USAGE
    stats = ["stats", "--in", str(cli_workspace / "apacheish.csv")]
    assert main(stats + ["--format", "json"]) == EXIT_USAGE
    fuzz_argv = [
        "fuzz",
        "--in", str(cli_workspace / "apacheish.csv"),
        "--vpool", str(cli_workspace / "pools" / "variable_pool.tsv"),
        "--out", str(tmp_path / "fuzzed.csv"),
    ]
    assert main(fuzz_argv + ["--mode", "parsed"]) == EXIT_USAGE
    assert not (tmp_path / "fuzzed.csv").exists()


@pytest.mark.parametrize(
    "command, text, where",
    [
        ("mix", "LineId,Content,EventTemplate,Source\n1,x 1,x <*>,a\n2,x 2\n", "row 3"),
        (
            "mix",
            'LineId,Content,EventTemplate,Source\n1,x 1,x <*>,a\n2,"x"2,x,a\n',
            "row 3",
        ),
        # A record is named by the line it starts on, not the line it ends on.
        ("mix", 'LineId,Content,EventTemplate,Source\n1,"x\n1",x <*>,a\n', "row 2"),
        ("mix", "LineId,Content,EventTemplate,Source\n1,x 1,x <*>,a\n2,y 2,,b\n",
         "LineId 2 has an empty EventTemplate"),
        ("evaluate", "LineId,EventTemplate\n1,a\n2\n", "row 3"),
        ("evaluate", "LineId,EventTemplate\n1,a\nx,b\n", "row 3"),
        ("stats", "LineId,Content,EventTemplate\n1,a,a\n3,b,b\n", "row 3"),
        ("fuzz", "\tsrc\n7\tsrc\n7\tother\n", "line 1"),
        ("fuzz", "7\tsrc\n7\tother\n", "line 2"),
        ("fuzz", "7\n8\ta\n", "line 1"),
        ("evaluate", "", "empty file"),
        # The blank row is skipped; the short row after it keeps its own number.
        ("evaluate", "LineId,EventTemplate\n1,a\n\n2\n", "row 4"),
        # Past the first read buffer, so the line is counted in the file.
        (
            "stats",
            b"LineId,Content,EventTemplate\n"
            + b"".join(b"%d,a,a\n" % i for i in range(1, 3001))
            + b"3001,\xff,a\n",
            "line 3002: byte 0xff is not UTF-8",
        ),
        (
            "mix",
            b"LineId,Content,EventTemplate,Source\n1,x \xe9,x <*>,a\n",
            "line 2: byte 0xe9 is not UTF-8",
        ),
        ("evaluate", b"LineId,EventTemplate\r\n1,a\r\n2,\xfe\r\n", "line 3: byte 0xfe"),
        ("fuzz", b"v\tsrc\nw\xc3\tsrc\n", "line 2: byte 0xc3 is not UTF-8"),
        # A lone CR ends a line, as the raw reader splits it.
        ("raw", b"one\rtwo\n\xff\n", "line 3: byte 0xff is not UTF-8"),
        ("benchmark", b'{"runs": 1,\n "base_seed": "\xff"}', "line 2: byte 0xff"),
        ("benchmark", '{"runs": ', "line 1 column 10"),
        ("benchmark", "[" * 200_000, "JSON nested too deeply to read"),
        ("benchmark", '{"runs": 1, "runs": 10}', "an object repeats the key 'runs'"),
        ("benchmark", '{"runs": 1' + "0" * 4300 + "}", "Exceeds the limit (4300 digits)"),
    ],
    ids=[
        "pool-short-row",
        "pool-bad-quote",
        "pool-line-break",
        "pool-empty-template",
        "parsed-short-row",
        "parsed-bad-line-id",
        "dataset-line-id-gap",
        "vpool-empty-value",
        "vpool-repeated-value",
        "vpool-no-source",
        "parsed-empty-file",
        "parsed-short-row-after-blank-row",
        "dataset-not-utf8",
        "pool-not-utf8",
        "parsed-not-utf8",
        "vpool-not-utf8",
        "raw-not-utf8",
        "plan-not-utf8",
        "plan-truncated",
        "plan-nested-too-deeply",
        "plan-repeated-key",
        "plan-int-past-digit-limit",
    ],
)
def test_malformed_pool_or_parser_output_exits_2(
    cli_workspace, tmp_path, capsys, command, text, where
):
    bad = tmp_path / "bad.csv"
    if isinstance(text, bytes):
        bad.write_bytes(text)
    else:
        bad.write_text(text, encoding="utf-8")
    dataset = str(cli_workspace / "apacheish.csv")
    argv = {
        "mix": ["mix", "--in", dataset, "--pool", str(bad), "--strength", "1.0",
                "--out", str(tmp_path / "mixed.csv")],
        "evaluate": ["evaluate", "--truth", dataset, "--predicted", str(bad)],
        "stats": ["stats", "--in", str(bad)],
        "fuzz": ["fuzz", "--in", dataset, "--vpool", str(bad),
                 "--out", str(tmp_path / "fuzzed.csv")],
        "raw": ["stats", "--raw", "--in", str(bad)],
        "benchmark": ["benchmark", "--plan", str(bad)],
    }[command]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(bad) in err
    assert where in err
