"""Bit-exactness gate: every figure CSV at tiny scale equals its pin.

``tests/golden/figures.json`` holds the digest of each CSV that
``all --workloads hmmer w1 --scale tiny --no-cache --jobs 1 --csv``
writes.  A change that moves no simulated number leaves every digest
alone; a deliberate fidelity change re-pins the file with
``PYTHONPATH=src python tests/golden/pin_figures.py`` and lists each
changed figure.
"""

import pytest

from repro.harness import experiments

from tests.golden import pin_figures


def test_every_figure_csv_matches_its_pin(golden_all):
    csv_dir, _ = golden_all
    problems = pin_figures.differences(csv_dir, pin_figures.load())
    assert not problems, "figure CSVs differ from tests/golden/" \
        "figures.json:\n" + "\n".join(problems)


@pytest.mark.parametrize("name", sorted(experiments.FIGURES))
def test_figure_csv_matches_its_pin(golden_all, name):
    """Each entry's CSV on its own, so a failure names the figures
    that moved and the ones that held."""
    csv_dir, _ = golden_all
    filename = f"{name}.csv"
    problems = [problem for problem in pin_figures.differences(
        csv_dir, pin_figures.load()) if problem.startswith(f"{filename}:")]
    assert not problems, "\n".join(problems)


def test_the_pin_covers_every_figure():
    """One pinned CSV per figure-table entry (``sec63`` writes
    ``sec63.csv``), so a new entry cannot go unpinned."""
    assert set(pin_figures.load()) == \
        {f"{name}.csv" for name in experiments.FIGURES}


def test_a_changed_row_is_named(tmp_path):
    """The report names the differing file, its first differing line
    and that line's text; a missing or an extra file is named too."""
    golden = pin_figures.load()
    source = tmp_path / "src"
    source.mkdir()
    (source / "fig3a.csv").write_text("workload,x\nhmmer,1\nAVG,1\n")
    (source / "extra.csv").write_text("a\n1\n")
    pinned = {"fig3a.csv": pin_figures.digest_dir(str(source))["fig3a.csv"],
              "table2.csv": golden["table2.csv"]}
    (source / "fig3a.csv").write_text("workload,x\nhmmer,2\nAVG,1\n")
    problems = pin_figures.differences(str(source), pinned)
    assert problems == [
        "extra.csv: written but not pinned",
        "fig3a.csv: first differing line 2 (2 rows pinned, 2 written): "
        "hmmer,2",
        "table2.csv: pinned but not written",
    ]
