"""Bit-for-bit parity with the checked-in manifest of seeded artifacts.

tests/golden/update_manifest.py builds the laws, sweep rows, T_diff
reports, family tables, optimal domains and CLI files and stdout, and
digests each set; these tests recompute the digests and compare them with
tests/golden/manifest.json. A change that moves any of these bits on
purpose reruns the script and says in CHANGES.md which digests moved and
why."""
import json

import pytest

from golden import update_manifest

MANIFEST = json.loads(update_manifest.MANIFEST.read_text())


@pytest.fixture(scope="module")
def computed():
    return update_manifest.digests()


def test_artifacts_match_the_manifest(computed):
    assert computed[0] == MANIFEST["digests"]


def test_numpy_computed_cli_fields_match_the_manifest(computed):
    # residuals and replayed gates from numpy's propagation kernels: shared
    # with the manifest on numpy builds whose sin, cos and hypot round alike
    assert computed[1] == MANIFEST["numpy_dependent"]
