"""Loading a dataset of paper-scale size holds memory in proportion to its file."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from logblend.corpus import Dataset, write_dataset

from helpers import source_datasets

ROOT = Path(__file__).resolve().parent.parent

#: The loading process's peak RSS over the file's size, both in bytes. On the
#: 19.1 MB, 198K-row file below, a reader that split each row into a list of
#: its own peaked at 9.7x (185.0 MB), the flat split at 8.4x (159.7 MB), and
#: the flat split that frees the lines before splitting at 7.5x (142.5 MB).
MAX_RSS_PER_FILE_BYTE = 8.0

# The peak is VmHWM, that of the process's own address space: its ru_maxrss
# also counts the peak of the process it was started from, which here is
# the test run itself.
_LOAD = """
import sys
from logblend.corpus import load_structured
rows = len(load_structured(sys.argv[1]))
with open("/proc/self/status") as status:
    peak_kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(rows, peak_kib)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_loading_200k_rows_holds_a_bounded_multiple_of_the_file(tmp_path):
    # The nine 2K sources 11 times over: 198K rows with nine Source values.
    sources = source_datasets()
    columns = [[], [], []]
    for ds in sources * 11:
        for column, values in zip(columns, (ds.contents(), ds.ground_truths, ds.sources)):
            column.extend(values)
    path = tmp_path / "big.csv"
    write_dataset(Dataset("big", *columns), path)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows, peak_kib = map(int, proc.stdout.split())
    assert rows == 198_000
    assert peak_kib * 1024 / path.stat().st_size < MAX_RSS_PER_FILE_BYTE
