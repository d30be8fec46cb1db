"""Frequency-targeted replacement of dataset entries from the outlier pool."""

from __future__ import annotations

import pytest

from logblend.corpus import Dataset, write_dataset
from logblend.errors import EmptyPoolError
from logblend.mixing import (
    MixConfig,
    mix,
    replacement_count,
    replacement_targets,
)
from logblend.pool import OutlierPool

from helpers import (
    apacheish,
    assert_well_formed,
    dataset_rows,
    outlier_pool,
    pool_rows,
    standard_pools,
)


def _pool(n: int = 10, source: str = "elsewhere") -> OutlierPool:
    return outlier_pool(
        (f"pooled line {i} from {source}", f"pooled line <*> from {source}", source)
        for i in range(n)
    )


def _uniform_ds(name: str, n: int) -> Dataset:
    contents = [f"event number {i % 3} fired" for i in range(n)]
    return Dataset(name, contents, ["event number <*> fired"] * n, [name] * n)


# --- replacement arithmetic ---------------------------------------------------

def test_replacement_count_quarter_at_full_strength():
    assert replacement_count(1.0, 2000) == 500


def test_replacement_count_no_float_fuzz():
    # 0.25 * 0.6 * 2000 is exactly 300 mathematically
    assert replacement_count(0.6, 2000) == 300
    assert replacement_count(0.2, 100) == 5


def test_replacement_count_zero_strength():
    assert replacement_count(0.0, 2000) == 0


# --- target selection ---------------------------------------------------------

def test_targets_round_robin_across_equal_frequency_templates():
    labels = ["A", "A", "A", "B", "B", "B", "C"]
    # A and B tie at frequency 3; C has 1. Interleave A and B by position.
    assert replacement_targets(labels, 4) == [0, 3, 1, 4]
    assert replacement_targets(labels, 6) == [0, 3, 1, 4, 2, 5]
    assert replacement_targets(labels, 7) == [0, 3, 1, 4, 2, 5, 6]


def test_targets_single_template_is_ascending_line_order():
    labels = ["X"] * 10
    assert replacement_targets(labels, 3) == [0, 1, 2]


def test_targets_descending_frequency_first():
    labels = ["rare", "big", "big", "big", "mid", "mid"]
    assert replacement_targets(labels, 4) == [1, 2, 3, 4]


# --- mix ----------------------------------------------------------------------

def test_strength_zero_returns_input_byte_identical(tmp_path):
    ds = apacheish()
    mixed = mix(ds, _pool(), MixConfig(strength=0.0, seed=1))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(ds, a)
    write_dataset(mixed, b)
    assert a.read_bytes() == b.read_bytes()


def test_exact_replacement_count_and_untouched_rest():
    ds = _uniform_ds("u", 100)
    mixed = mix(ds, _pool(), MixConfig(strength=0.2, seed=3))
    assert len(mixed) == 100
    pairs = zip(dataset_rows(ds), dataset_rows(mixed))
    changed = [i for i, (old, new) in enumerate(pairs) if old != new]
    # Every other row is equal in all three columns.
    assert len(changed) == 5


def test_replaced_records_adopt_pool_entry_fields():
    ds = _uniform_ds("u", 20)
    pool = _pool(4)
    mixed = mix(ds, pool, MixConfig(strength=1.0, seed=2))
    pool_contents = set(pool.lines.contents())
    replaced = [i for i, c in enumerate(mixed.contents()) if c in pool_contents]
    assert len(replaced) == 5  # floor(0.25 * 20)
    for i in replaced:
        assert mixed.sources[i] == "elsewhere"
        assert mixed.ground_truths[i].startswith("pooled line <*>")


def test_line_ids_stay_contiguous():
    ds = _uniform_ds("u", 40)
    mixed = mix(ds, _pool(), MixConfig(strength=1.0, seed=5))
    assert_well_formed(mixed)


def test_source_exclusion():
    ds = apacheish()
    opool, _ = standard_pools()
    mixed = mix(ds, opool, MixConfig(strength=1.0, seed=7, exclude_source=True))
    for source in mixed.sources:
        if source != ds.name:
            assert source != "apacheish"
    # with exclusion off, own-source entries can come back
    own = {content for content, _, source in pool_rows(opool) if source == ds.name}
    assert own, "pool should contain own-source entries for this check"


def test_empty_pool_after_exclusion():
    ds = _uniform_ds("solo", 10)
    pool = outlier_pool([("x", "x", "solo")])
    with pytest.raises(EmptyPoolError):
        mix(ds, pool, MixConfig(strength=0.5, seed=0))


def test_mix_determinism_and_seed_sensitivity(tmp_path):
    ds = apacheish()
    opool, _ = standard_pools()
    cfg = MixConfig(strength=0.6, seed=11)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(mix(ds, opool, cfg), a)
    write_dataset(mix(ds, opool, cfg), b)
    assert a.read_bytes() == b.read_bytes()
    other = mix(ds, opool, MixConfig(strength=0.6, seed=12))
    assert other.contents() != mix(ds, opool, cfg).contents()


def test_strength_bounds_validated():
    with pytest.raises(ValueError):
        MixConfig(strength=1.5, seed=0)


# --- parser-label variant -------------------------------------------------------

def test_parser_labels_equal_truth_gives_identical_mix():
    ds = apacheish()
    opool, _ = standard_pools()
    cfg = MixConfig(strength=0.8, seed=21)
    via_truth = mix(ds, opool, cfg)
    via_labels = mix(ds, opool, cfg, ds.labels())
    assert via_truth == via_labels


def test_parser_collapsing_all_lines_targets_leading_records():
    # one surrogate template for everything: targets are the first k lines
    ds = _uniform_ds("u", 10)
    pool = _pool(6)
    parsed = ["<*>"] * 10
    mixed = mix(ds, pool, MixConfig(strength=0.8, seed=4), parsed)
    k = replacement_count(0.8, 10)
    assert k == 2
    changed = [
        i for i, (old, new) in enumerate(zip(ds.contents(), mixed.contents())) if old != new
    ]
    assert changed == [0, 1]
