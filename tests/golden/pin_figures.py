"""Golden digests of every figure CSV at tiny scale.

``figures.json`` beside this script holds, for each CSV that

    python -m repro.harness.cli all --workloads hmmer w1 --scale tiny \\
        --no-cache --jobs 1 --csv DIR

writes (``cache_manifest.csv`` left out: its keys carry the code
fingerprint), the file's sha256, its data-row count and one short
digest per line, so a mismatch names the first line that differs.
``tests/integration/test_golden_figures.py`` regenerates the CSVs and
compares them against this file.

A change that is meant to move no simulated number leaves the file
alone.  A deliberate fidelity change re-pins it::

    PYTHONPATH=src python tests/golden/pin_figures.py

and lists each changed figure.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "figures.json")

#: The pinned command's arguments, after the experiment name.
ARGS = ("all", "--workloads", "hmmer", "w1", "--scale", "tiny",
        "--no-cache", "--jobs", "1")

#: Written by ``--csv`` but keyed by the code fingerprint, so not pinned.
UNPINNED = frozenset({"cache_manifest.csv"})


def _line_digest(line: bytes) -> str:
    return hashlib.sha256(line).hexdigest()[:16]


def digest_dir(csv_dir: str) -> Dict[str, Dict]:
    """The pinned record of every CSV in ``csv_dir``: sha256, data rows
    (lines after the header) and per-line digests."""
    files = {}
    for name in sorted(os.listdir(csv_dir)):
        if not name.endswith(".csv") or name in UNPINNED:
            continue
        with open(os.path.join(csv_dir, name), "rb") as fh:
            data = fh.read()
        lines = data.splitlines(keepends=True)
        files[name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "rows": max(0, len(lines) - 1),
            "lines": [_line_digest(line) for line in lines],
        }
    return files


def regenerate(csv_dir: str, *extra: str) -> None:
    """Write every figure CSV of :data:`ARGS` to ``csv_dir``, in this
    process, with ``extra`` CLI flags that change no CSV (``--json
    PATH``); the caller scopes the harness's execution state."""
    from repro.harness import cli
    code = cli.main([*ARGS, "--csv", csv_dir, *extra])
    if code != 0:
        raise RuntimeError(f"cli {' '.join(ARGS)} exited {code}")


def load() -> Dict[str, Dict]:
    with open(GOLDEN) as fh:
        return json.load(fh)["files"]


def differences(csv_dir: str, golden: Dict[str, Dict]) -> List[str]:
    """One message per file that is missing, extra or different,
    naming a differing file's first differing line and its text."""
    found = digest_dir(csv_dir)
    problems = []
    for name in sorted(set(golden) | set(found)):
        want, got = golden.get(name), found.get(name)
        if want is None:
            problems.append(f"{name}: written but not pinned")
        elif got is None:
            problems.append(f"{name}: pinned but not written")
        elif want["sha256"] != got["sha256"]:
            with open(os.path.join(csv_dir, name), "rb") as fh:
                lines = fh.read().splitlines()
            index = next((i for i, (a, b) in enumerate(
                zip(want["lines"], got["lines"])) if a != b),
                min(len(want["lines"]), len(got["lines"])))
            text = lines[index].decode() if index < len(lines) \
                else "<end of file>"
            problems.append(
                f"{name}: first differing line {index + 1} "
                f"({want['rows']} rows pinned, {got['rows']} written): "
                f"{text}")
    return problems


def main() -> int:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(tmp)
        files = digest_dir(tmp)
    with open(GOLDEN, "w") as fh:
        json.dump({"command": ["python", "-m", "repro.harness.cli",
                               *ARGS, "--csv", "DIR"],
                   "files": files}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(files)} CSVs to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
