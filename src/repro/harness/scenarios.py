"""The scale-out system platforms (paper Section 7, ROADMAP
"Scale-out scenarios").

A :class:`Scenario` names one complete *system platform*: core count,
channel count, ranks per channel, DRAM timing grade and row policy.
The table of scenarios is the harness's only platform definition.
The paper's own systems are its ``c1-r1`` (single-core) and ``c8-r1``
(eight-core) entries, which the run kinds that name no scenario
resolve to (:data:`KIND_PLATFORMS`).  It holds the curated matrix
the scaling/standards experiments sweep —

* **Scaling family** (``SCALING_SCENARIOS``): 1/2/4/8/16 cores, each
  with 1 and 2 ranks per channel, on the paper's DDR3-1600 baseline.
  Channel count and row policy follow the paper's convention (open
  row only on the single-core system; 1 channel up to 2 cores, 2
  channels beyond).
* **Standards family** (``STANDARD_SCENARIOS``): the single-core and
  eight-core platforms on each timing-grade preset of
  :mod:`repro.dram.standards` (DDR3-1600, DDR4-2400, LPDDR3-1600,
  GDDR5-4000).  The DDR3 rows are the scaling family's ``c1-r1`` /
  ``c8-r1``, i.e. the paper's own platforms.

Scenario **names are cache-key material**: a
:class:`~repro.harness.spec.RunSpec` embeds the scenario name, so a
name must never be silently re-bound to a different platform
(renaming is fine — the content-addressed run cache just sees a new
key; re-binding would *reuse* old results for a new platform if the
code fingerprint ever stopped covering this module).
tests/harness/test_scenarios.py locks the sixteen names and their
platforms, so two rows sharing a name fail there.  A platform's
fields are checked where its configuration is built
(``runner.build_config`` validates the
:class:`~repro.config.SimulationConfig`).

Adding a scenario: add a :class:`Scenario` to ``_SCENARIOS``, then
extend the conformance suite (tests/integration/test_scenario_matrix.py)
so the new axis is exercised end-to-end — see DESIGN.md section 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dram.standards import PRESETS, StandardProfile, preset, profile
from repro.dram.timing import TimingParameters
from repro.workloads.mixes import MIX_NAMES, mix_composition
from repro.workloads.spec_like import PROFILES

#: Core counts covered by the scaling family.
SCALING_CORE_COUNTS = (1, 2, 4, 8, 16)

#: Ranks-per-channel points covered by the scaling family.
SCALING_RANKS = (1, 2)


@dataclass(frozen=True)
class Scenario:
    """One named system platform (everything but workload/mechanism)."""

    name: str
    num_cores: int = 1
    channels: int = 1
    ranks_per_channel: int = 1
    standard: str = "DDR3-1600"
    row_policy: str = "open"

    @property
    def timing(self) -> TimingParameters:
        return preset(self.standard)

    @property
    def profile(self) -> StandardProfile:
        """The standard's timing+power bundle (energy experiments)."""
        return profile(self.standard)

    def axes(self) -> Dict[str, object]:
        """The platform axes as a plain dict (report/CSV rows)."""
        return {
            "scenario": self.name,
            "cores": self.num_cores,
            "channels": self.channels,
            "ranks": self.ranks_per_channel,
            "standard": self.standard,
            "policy": self.row_policy,
        }


def _scaling_platform(cores: int, ranks: int) -> Scenario:
    """The paper-conventional platform for a core count."""
    return Scenario(
        name=f"c{cores}-r{ranks}",
        num_cores=cores,
        channels=1 if cores <= 2 else 2,
        ranks_per_channel=ranks,
        standard="DDR3-1600",
        row_policy="open" if cores == 1 else "closed",
    )


def _standard_slug(standard: str) -> str:
    return standard.lower()


#: Every platform by name: the scaling family, then each other
#: standard's single- and eight-core systems (the scaling family's
#: c1-r1 / c8-r1 are the DDR3 rows).
_SCENARIOS: Dict[str, Scenario] = {scen.name: scen for scen in (
    *(_scaling_platform(cores, ranks)
      for cores in SCALING_CORE_COUNTS for ranks in SCALING_RANKS),
    *(Scenario(name=f"{_standard_slug(std)}-c{cores}",
               num_cores=cores,
               channels=1 if cores == 1 else 2,
               standard=std,
               row_policy="open" if cores == 1 else "closed")
      for std in sorted(PRESETS) if std != "DDR3-1600"
      for cores in (1, 8)),
)}


def scenario(name: str) -> Scenario:
    """Look a scenario up by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: "
            f"{sorted(_SCENARIOS)}") from None


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


#: The scaling experiment's sweep, in presentation order.
SCALING_SCENARIOS: Tuple[str, ...] = tuple(
    f"c{cores}-r{ranks}"
    for cores in SCALING_CORE_COUNTS for ranks in SCALING_RANKS)

#: The standards experiment's sweep (DDR3 rows reuse c1-r1/c8-r1).
STANDARD_SCENARIOS: Tuple[str, ...] = tuple(
    name
    for std in sorted(PRESETS)
    for name in (
        ("c1-r1", "c8-r1") if std == "DDR3-1600"
        else (f"{_standard_slug(std)}-c1", f"{_standard_slug(std)}-c8")))


#: The platform of each run kind that names no scenario.  The paper's
#: single-core system runs an application ("single") or an ingested
#: trace ("trace"); its eight-core system runs a mix ("eight") or one
#: application alone on one of its cores ("alone", the
#: weighted-speedup denominator).
KIND_PLATFORMS = {"single": "c1-r1", "trace": "c1-r1",
                  "eight": "c8-r1", "alone": "c8-r1"}


def platform(name: str) -> Scenario:
    """The platform a run kind of :data:`KIND_PLATFORMS` or a scenario
    name stands for."""
    found = _SCENARIOS.get(KIND_PLATFORMS.get(name, name))
    if found is None:
        raise ValueError(
            f"unknown platform {name!r}; expected a run kind "
            f"{sorted(KIND_PLATFORMS)} or a scenario {sorted(_SCENARIOS)}")
    return found


def scenario_workload_names(scen: Scenario, workload: str) -> List[str]:
    """Per-core application names for ``workload`` on ``scen``.

    ``workload`` is either a mix name (w1..w20) — the mix composition
    is cycled to cover the scenario's core count, so ``c16-*`` runs
    each 8-app mix twice over — or a single application name, which
    every core then runs (with per-core seeds).
    """
    if workload in MIX_NAMES:
        apps = mix_composition(workload)
        return [apps[i % len(apps)] for i in range(scen.num_cores)]
    if workload in PROFILES:
        return [workload] * scen.num_cores
    raise KeyError(
        f"unknown workload {workload!r}; expected a mix "
        f"({MIX_NAMES[0]}..{MIX_NAMES[-1]}) or an application "
        f"({sorted(PROFILES)})")
