#!/usr/bin/env python3
"""Record the SHA-256 of every file the CLI writes for the example scenarios.

Runs each subcommand that a scenario in ``scripts/scenarios/`` supports
(``--threads 1``) plus ``table1``, and writes a JSON file mapping
``<scenario>/<subcommand>/<file>`` to its digest, together with the numpy
and scipy versions the digests were taken with.  ``tests/test_cli.py``
compares fresh runs against that file, so a change that alters any output
byte shows up in the test suite.

    PYTHONPATH=src python scripts/golden_digests.py tests/golden/example_scenarios.json
"""
import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from granvar.cli import main as cli_main

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"


def supported_subcommands(scenario: dict) -> list[str]:
    """The scenario subcommands whose required sections ``scenario`` has."""
    commands = []
    if any(key in scenario for key in ("sample_counts", "expected_counts", "ckk_grid")):
        commands.append("estimate")
    if "design" in scenario and "replicates" in scenario:
        commands.append("simulate")
    if "field" in scenario and "transects" in scenario:
        commands.append("intercept")
    return commands


def tree_digests(root: Path, prefix: str) -> dict[str, str]:
    """``prefix/<relative path>`` -> SHA-256 of every file under ``root``."""
    return {
        f"{prefix}/{p.relative_to(root).as_posix()}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_all(work: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        for command in supported_subcommands(json.loads(path.read_text())):
            out = work / path.stem / command
            argv = [command, "--config", str(path), "--out", str(out), "--threads", "1"]
            if cli_main(argv) != 0:
                raise SystemExit(f"granvar {' '.join(argv)} failed")
            digests.update(tree_digests(out, f"{path.stem}/{command}"))
    out = work / "table1"
    if cli_main(["table1", "--out", str(out)]) != 0:
        raise SystemExit("granvar table1 failed")
    digests.update(tree_digests(out, "table1"))
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path, help="JSON file to write")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    record = {"numpy": np.__version__, "scipy": scipy.__version__, "digests": digests}
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
