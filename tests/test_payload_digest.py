"""Payload golden test: every subcommand's report on FIX-A..D is byte-stable.

`cli.main` runs in-process for all 8 subcommands on the four fixtures with
small arguments. Each report (with its `timing` block removed) and each CSV
sidecar is hashed in a fixed order into one sha256 digest. A change that
alters a payload must update DIGEST and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from qforms.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

DIGEST = "6c22706089b66057431b083a3ec72695ff1021530af73f595227fd8da5eb2750"

# n_vars is 2 on FIX-A/B, 3 on FIX-C and 5 on FIX-D
REST = {"A": "1/2", "B": "-3/4", "C": "1/2,-2", "D": "1,-1/2,2/3,3"}
VECTOR = {"A": "-23,14", "B": "7,-50", "C": "3,-2,5", "D": "1,2,-3,4,5"}


def argvs(fx: str) -> list[list[str]]:
    s = 2 if fx == "C" else 1 + (fx == "D")
    return [
        ["validate"],
        ["params"],
        ["forms", "--l", "1", "--n", str(s + 2)],
        ["verify", "--n-max", "12", "--series-n", "12", "--seed", "3"],
        ["bounds", "--l-list", "1,2", "--n-max", "10", "--n-step", "3", "--seed", "5"],
        ["nonvanish", "--l0", "1", "--n0", str(s + 1), f"--omega-from-f={REST[fx]}"],
        ["nonvanish", "--l0", "0", "--n0", "2", f"--omega=1,{REST[fx]}"],
        ["certify", f"--A={VECTOR[fx]}"],
        ["scan", "--hmax", "6"],
        ["scan", "--hmax", "5", "--random", "4", "--seed", "2"],
    ]


def test_cli_payloads_are_unchanged(capsys, tmp_path):
    digest = hashlib.sha256()
    sidecar = tmp_path / "rows.csv"
    for fx in "ABCD":
        spec = str(FIXTURES / f"fixture{fx}.json")
        for argv in argvs(fx):
            sidecar.unlink(missing_ok=True)
            code = main([*argv, "--csv", str(sidecar), spec])
            report = json.loads(capsys.readouterr().out)
            report.pop("timing", None)
            digest.update(f"{fx} {argv} {code}\n".encode())
            digest.update(json.dumps(report, sort_keys=True).encode())
            if sidecar.exists():
                digest.update(sidecar.read_bytes())
    assert digest.hexdigest() == DIGEST
