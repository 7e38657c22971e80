"""CLI output bytes on the seed-0 standard suite, pinned by sha256.

Any change to a box, a mask, a score or the file formats changes these
digests, so a refactor that is meant to keep every output byte fails here
when it does not.  The bytes do not depend on the thread count.
"""

import hashlib

import pytest

from mstrack.cli import main

TRACK_S01_SHA256 = "dd210eea7a4b64073b107b7d3cf118d44864cccd4f207e8cc981882b864290ce"
OPE_REPORT_SHA256 = "7dac16eb51bb7791f48fca386a994b4f7e841b50b07e6adc611fc98719b9785d"


@pytest.fixture(autouse=True)
def clean_thread_env(monkeypatch):
    monkeypatch.delenv("MSTRACK_THREADS", raising=False)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_standard_suite_track_and_ope_bytes(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", str(data), "--standard-suite"]) == 0
    results = tmp_path / "s01_slow_rect.txt"
    assert main(["track", str(data / "s01_slow_rect"), str(results)]) == 0
    report = tmp_path / "ope.json"
    assert main(["eval", str(data), str(report), "--protocol", "ope"]) == 0
    assert _sha256(results) == TRACK_S01_SHA256
    assert _sha256(report) == OPE_REPORT_SHA256
