"""Pinned alarm sets of the default detector on every registered dataset.

``tests/data/golden_alerts.json`` maps each :func:`repro.datasets.dataset_names`
entry to the alarm times that ``BagChangePointDetector(DetectorConfig(
random_state=0))`` raises on ``make_dataset(name, random_state=0)``.  Any
change that moves an alarm fails here, so speed-ups and refactors are
held to "same alerts" rather than to the code's own output.

The file is regenerated (``PYTHONPATH=src python tests/test_golden_alerts.py``)
only by a change whose stated purpose is to move seeded results.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.core import BagChangePointDetector, DetectorConfig
from repro.datasets import BagDataset, dataset_names, make_dataset

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_alerts.json"

#: Datasets also replayed through a two-process worker pool.
POOLED_DATASETS = ("mixture", "pamap")


def default_alarms(dataset: BagDataset, **overrides: object) -> List[int]:
    """Alarm times of the default-config detector seeded with 0."""
    with BagChangePointDetector(DetectorConfig(random_state=0, **overrides)) as detector:
        return [int(t) for t in detector.detect(dataset.bags).alarm_times]


@pytest.fixture(scope="session")
def golden() -> Dict[str, List[int]]:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def datasets() -> Dict[str, BagDataset]:
    """Every registered dataset, materialised once with seed 0."""
    return {name: make_dataset(name, random_state=0) for name in dataset_names()}


def test_golden_file_covers_the_registry(golden):
    assert sorted(golden) == dataset_names()


@pytest.mark.parametrize("name", dataset_names())
def test_default_alarms_match_golden(name, golden, datasets):
    assert default_alarms(datasets[name]) == golden[name]


@pytest.mark.parametrize("name", POOLED_DATASETS)
def test_process_pool_alarms_match_golden(name, golden, datasets):
    alarms = default_alarms(datasets[name], parallel_backend="process", n_workers=2)
    assert alarms == golden[name]


if __name__ == "__main__":
    table = {
        name: default_alarms(make_dataset(name, random_state=0)) for name in dataset_names()
    }
    GOLDEN_PATH.write_text(json.dumps(table, indent=2) + "\n")
