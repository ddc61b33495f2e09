"""The curated reports, pinned: the exit code and the sha256 of the report
bytes without the timestamp, for each demo file run through ``latticehk run``
and for both quick passes on both backends.  A change that moves a verdict or
a witness moves one of these digests, and must say which and why."""

import hashlib
import json

import pytest

from latticehk.cli import main
from latticehk.scenarios import DEMO_DIR, report_bytes

PINNED = {
    ("run", "appendix-geometry"):
        "fbb850d7ebc02a157e4111f55df5de8fd707a745a2026057ffdd690ea00a2ddd",
    ("run", "counterexamples"):
        "482f684e382a1a59245167df09d6bdfdd1c1204fd43c9ca4914d78256b04531b",
    ("run", "cover-extension"):
        "753b2d83d35e441d2d35f57bb874b270e3c27e93592deacc79de92e1d358bdb6",
    ("run", "kg-descent"):
        "2d35242b13d9791f968e21c0af240f99a76b5a7daceb477626f1681e30d6fa65",
    ("run", "localization-oracle"):
        "659a7717a5398929eac308886a605795fa30d26c1531966f2b6c7698efc382e9",
    ("check-causality", "cylinder"):
        "47fe2a10cee9622b00f275c23057777185a052e747e7a9693b056392eb16fee1",
    ("check-causality", "plane"):
        "7f1e8b4fa016633992f6a0aa4b1b5bfc0415088e9f4650f0b7b8fd6fac06781d",
    ("check-site", "cylinder"):
        "8bd4b977c7243421f916d85139dd12be0b11e23a58cc658a1e59c5818037b6eb",
    ("check-site", "plane"):
        "c2b00bfa3096d3be5387e7a822f5d074955d9f4210cb806c997a9d00e20640ae",
}


@pytest.mark.parametrize("cmd,arg", sorted(PINNED),
                         ids=[f"{c}-{a}" for c, a in sorted(PINNED)])
def test_curated_report_bytes_are_pinned(tmp_path, cmd, arg):
    out = tmp_path / "report.json"
    argv = ["run", str(DEMO_DIR / f"{arg}.json")] if cmd == "run" else \
        [cmd, "--backend", arg]
    assert main(["--report", str(out), *argv]) == 0
    doc = json.loads(out.read_text())
    digest = hashlib.sha256(report_bytes(doc, drop_timestamp=True))
    assert digest.hexdigest() == PINNED[cmd, arg]
