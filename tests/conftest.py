import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# The acceptance criteria that take over 20 s each; `pytest -m "not slow"`
# runs everything else.
SLOW = {
    "tests/test_acceptance.py::test_criterion_06_rdp_matches_subsequence_oracle",
    "tests/test_acceptance.py::test_criterion_08_segmenter_overfits_fifty_annotated_sketches",
    "tests/test_acceptance.py::test_criterion_09_encoder_features_beat_plain_idm_in_cross_validation",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid in SLOW:
            item.add_marker(pytest.mark.slow)
