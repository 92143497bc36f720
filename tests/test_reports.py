"""Byte-exact CLI reports.

Each case runs one command with ``--out`` and pins the SHA-256 of the
written report followed by everything the command printed.  A refactor
that keeps these digests keeps every report byte-identical.
"""

import hashlib

import pytest

from simplexboundary.cli import main

REPORTS = {
    ("verify-boundary", "--m", "9,4", "--n", "2", "--n-max", "3"):
        "17846d244acbf61d8bc280ce93aa4c99cb9bd1080b12650ef4d0bbf79c3e07ba",
    ("verify-boundary", "--m", "1", "--n", "2", "--n-max", "6"):
        "bf2c391c9263562729729f7c2d4d23d3b689b69f7beb64435fc26a2940977255",
    ("verify-equations", "--L", "1", "--n", "1", "--n-max", "2"):
        "3e74bb3f1722c6fe0dfb92fca831a53080b13d9d14413e08874d7070e330842b",
    ("verify-equations", "--L", "0", "--n", "1", "--n-max", "5"):
        "e693b999694e84eb72b1285410b7b278100965469b667c8b0db60e71d7235e1f",
    ("homology", "--m", "9,4", "--n-max", "8"):
        "9a91e9d1227b2b0a56a5435665256c542b8fe672098141f454676a002544cd14",
    ("homology", "--m", "1,-1"):
        "3d156fee46fc84ae3953d703902c7b0db3a84bacc3770f84ed74712752826382",
    ("figure", "--m", "9,4", "--alpha", "1/6", "--format", "svg"):
        "aa52362804bc94a3d29f86edd2e6661d032948cd53b309ddf31406e73f7e7c27",
    (
        "eval", "--map", "theta:L=1,n=2,i=1",
        "--point", "[0,1/6,5/6]", "--point", "[1/6,1/6,2/3]",
    ):
        "a863369727ff7c02bdfcea917aeb693ad11f09a57afd110816c76af79d8a9512",
}


@pytest.mark.parametrize("argv", list(REPORTS), ids=lambda argv: " ".join(argv))
def test_report_bytes(argv, tmp_path, capsys):
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 0
    data = out.read_bytes() + capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == REPORTS[argv]
