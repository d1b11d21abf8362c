"""Run specifications: the harness's unit of schedulable work.

A :class:`RunSpec` names one simulation completely — what to run
(workload or mix), under which mechanism and knobs, at which scale,
with which seed and engine.  It is deliberately a plain frozen
dataclass of primitives so that it can be

* **hashed** into a stable content-addressed cache key
  (:mod:`repro.harness.cache`),
* **pickled** across process boundaries
  (:mod:`repro.harness.pool`), and
* **executed** by the runner (:func:`repro.harness.runner.run_spec`)
  with no ambient state beyond the code itself.

Every experiment in :mod:`repro.harness.experiments` declares its sweep
as a flat list of these; the pool fans them out and the runner memoises
them, so a spec is also the key of both cache layers.

:class:`Scale` lives here (rather than in ``runner``) because it is
part of the spec: two runs at different instruction budgets are
different experiments and must never share a cache entry.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional

#: Time-scale for RLTL interval analysis (DESIGN.md section 1).
DEFAULT_TIME_SCALE = 64.0

#: Time-scale for ChargeCache invalidation pacing.  Deliberately much
#: smaller than the RLTL scale: the paper's physical 1 ms duration is
#: ~800k bus cycles, far above any row-reuse gap, so invalidation has
#: almost no effect on hit rates (Figure 11 shows ~2% single-core,
#: ~0% eight-core); a factor of 8 keeps the sweep meaningful while
#: preserving the duration >> reuse-gap regime.  It does not keep the
#: paper's single- vs eight-core hit-rate relationship: at this factor
#: the eight-core Fig 9 hit rate is already below single-core at every
#: capacity, because all eight cores of a mix address one physical
#: space and a row one core closes misses in the next core's per-core
#: table (DESIGN.md section 1).
DEFAULT_CC_TIME_SCALE = 8.0

#: The run shapes the harness knows how to execute.  "scenario" runs
#: name a platform from :mod:`repro.harness.scenarios` in the spec's
#: ``scenario`` field; "trace" runs replay an ingested external trace
#: file on the single-core platform (the file's content hash lives in
#: ``trace_sha256``); the kinds without a scenario run on the paper's
#: platforms (:data:`repro.harness.scenarios.KIND_PLATFORMS`).
RUN_KINDS = ("single", "eight", "alone", "scenario", "trace")

#: RunSpec fields that are deliberately *excluded* from cache-key
#: material.  Each entry is a conscious decision with a reason (see
#: the field's own docstring); the import-time guard below forces
#: every new field to be classified here or in :data:`KEY_MATERIAL` —
#: never silently.
LOCATION_ONLY = frozenset({"trace_path"})

#: Every RunSpec field that IS cache-key material, in declaration
#: order.  Together with :data:`LOCATION_ONLY` this partitions the
#: dataclass exactly; :func:`_check_key_classification` refuses to
#: import otherwise, so adding a field without deciding its cache-key
#: role fails every test run.
KEY_MATERIAL = ("kind", "name", "mechanism", "scale", "enable_rltl",
                "row_policy", "cc_entries", "cc_duration_ms",
                "cc_unbounded", "idle_finished", "seed", "engine",
                "scenario", "trace_sha256")


@dataclass(frozen=True)
class Scale:
    """Instruction budgets for scaled-down runs."""

    single_core_instructions: int = 60_000
    multi_core_instructions: int = 30_000
    warmup_cpu_cycles: int = 25_000
    max_mem_cycles: int = 30_000_000
    time_scale: float = DEFAULT_TIME_SCALE
    cc_time_scale: float = DEFAULT_CC_TIME_SCALE

    def scaled(self, factor: float) -> "Scale":
        if not 0 < factor < math.inf:
            raise ValueError(
                f"scale factor must be finite and positive, got {factor!r}")
        try:
            return replace(
                self,
                single_core_instructions=max(1000, int(
                    self.single_core_instructions * factor)),
                multi_core_instructions=max(1000, int(
                    self.multi_core_instructions * factor)),
            )
        except OverflowError:
            raise ValueError(f"scale factor {factor!r} is too large") from None


def current_scale() -> Scale:
    """The scale selected by environment variables."""
    scale = Scale()
    factor = os.environ.get("REPRO_SCALE")
    if factor:
        try:
            scale = scale.scaled(float(factor))
        except ValueError:
            raise ValueError("REPRO_SCALE must be a finite positive "
                             f"number, got {factor!r}") from None
    return scale


@dataclass(frozen=True)
class RunSpec:
    """One sweep point: everything that determines a RunResult.

    ``kind`` selects the platform (:mod:`repro.harness.scenarios`):
    "single" (1 core, 1 channel, open-row: ``c1-r1``), "eight"
    (8 cores, 2 channels, closed-row: ``c8-r1``), "alone" (one
    application on one core of ``c8-r1``, the baseline behind
    weighted-speedup denominators), "scenario" (the platform named
    in ``scenario``) or "trace" (an ingested file on ``c1-r1``).
    ``engine`` must be concrete ("event"/"dense", never None) so that
    a spec means the same run in every process regardless of ambient
    defaults.

    ``mechanism`` is a registry spec
    (:func:`repro.core.registry.parse_mechanism_spec`): any
    ``+``-composition of registered mechanisms with inline parameter
    overrides.

    A spec is canonical once built: :meth:`__post_init__` validates it
    and stores the one spelling of its simulation, so equal specs are
    equal simulations and share one memo entry and one cache key.  It
    sorts the mechanism's terms and folds chargecache's
    ``entries``/``duration_ms``/``unbounded`` into the ``cc_*`` fields
    below, turns a ``c1-r1`` point into the "single" spec of its one
    application and a ``c8-r1`` point on a mix into the "eight" spec,
    and drops a ``row_policy`` equal to the platform's own.
    """

    kind: str
    name: str
    mechanism: str = "none"
    scale: Scale = field(default_factory=Scale)
    enable_rltl: bool = False
    row_policy: Optional[str] = None
    cc_entries: Optional[int] = None
    cc_duration_ms: Optional[float] = None
    cc_unbounded: bool = False
    idle_finished: bool = False
    seed: int = 1
    engine: str = "event"
    #: Platform name from :mod:`repro.harness.scenarios` (kind
    #: "scenario" only).  Scenario names are stable registry keys, so
    #: they are legitimate cache-key material; the code fingerprint
    #: covers the registry's definitions themselves.
    scenario: Optional[str] = None
    #: SHA-256 of the ingested trace file's bytes (kind "trace" only).
    #: This is what keys the run: two files with the same content are
    #: the same workload wherever they live, and an edited file is a
    #: different workload.
    trace_sha256: Optional[str] = None
    #: Where the trace file currently lives (kind "trace" only).
    #: Execution state, NOT identity: :meth:`key_payload` excludes it,
    #: equality and hashing ignore it (so two paths to the same bytes
    #: are one sweep point), and the runner re-hashes the file at
    #: execution time to prove it still matches ``trace_sha256``.
    #: ``None`` is legal - a spec rebuilt from a wire payload knows its
    #: content hash but not a local path, and can still be answered
    #: from the cache.
    trace_path: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in RUN_KINDS:
            raise ValueError(
                f"unknown run kind {self.kind!r}; expected one of {RUN_KINDS}")
        if (self.kind == "scenario") != (self.scenario is not None):
            raise ValueError(
                "scenario runs (and only scenario runs) must name a "
                f"scenario: kind={self.kind!r}, scenario={self.scenario!r}")
        if self.kind == "trace":
            digest = self.trace_sha256
            if (not isinstance(digest, str) or len(digest) != 64
                    or any(c not in "0123456789abcdef" for c in digest)):
                raise ValueError(
                    "trace runs must carry the trace file's SHA-256 "
                    f"(64 lowercase hex chars), got {digest!r}")
        elif self.trace_sha256 is not None or self.trace_path is not None:
            raise ValueError(
                f"trace_sha256/trace_path are only meaningful for "
                f"kind='trace', not kind={self.kind!r}")
        # Validated here, at declaration time, not inside a pool worker
        # mid-sweep: a mechanism typo, an unknown scenario or workload.
        from repro.core.registry import extract_run_params
        from repro.harness import scenarios
        from repro.workloads.mixes import MIX_NAMES
        mechanism, cc_entries, cc_duration_ms, cc_unbounded = \
            extract_run_params(self.mechanism, self.cc_entries,
                               self.cc_duration_ms, self.cc_unbounded)
        kind, name, scen = self.kind, self.name, self.scenario
        if kind == "scenario":
            apps = scenarios.scenario_workload_names(
                scenarios.scenario(scen), name)
            if scen == scenarios.KIND_PLATFORMS["single"]:
                kind, name, scen = "single", apps[0], None
            elif scen == scenarios.KIND_PLATFORMS["eight"] \
                    and name in MIX_NAMES:
                kind, scen = "eight", None
        row_policy = self.row_policy
        if row_policy == scenarios.platform(scen or kind).row_policy:
            row_policy = None
        if kind == "alone" and (
                (mechanism, cc_entries, cc_duration_ms, cc_unbounded)
                != ("none", None, None, False)
                or self.idle_finished or self.enable_rltl):
            raise ValueError(
                "alone runs are the baseline weighted-speedup "
                "denominator: mechanism must be 'none' and "
                "idle_finished and enable_rltl False, got "
                f"{self.label()!r}")
        for attr, value in (("kind", kind), ("name", name),
                            ("scenario", scen), ("row_policy", row_policy),
                            ("mechanism", mechanism),
                            ("cc_entries", cc_entries),
                            ("cc_duration_ms", cc_duration_ms),
                            ("cc_unbounded", cc_unbounded)):
            object.__setattr__(self, attr, value)

    def key_payload(self) -> Dict:
        """JSON-stable dict of every field that defines this run.

        This is the *only* sanctioned serialization for cache-key
        hashing: plain types, field-name keys and the scale inlined.
        The fields are canonical already (:meth:`__post_init__`), so
        every spelling of one run hashes identically.  Any new RunSpec
        field automatically lands here (and therefore changes keys),
        which is the safe failure mode.  LOCATION_ONLY fields
        (``trace_path``) are where bytes happen to live, not what they
        are; ``trace_sha256`` already commits to the content.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in LOCATION_ONLY}
        payload["scale"] = {f.name: getattr(self.scale, f.name)
                            for f in fields(Scale)}
        return payload

    def axes(self) -> Dict:
        """Flat, queryable axis columns for aggregation frames.

        The canonical :meth:`key_payload` minus the nested ``scale``
        budget object (a frame wants scalar columns, and scale is
        constant within a sweep); location-only fields are already
        excluded by the payload.  Mechanism spelling is canonical, so
        grouping by the ``mechanism`` column groups identical runs.
        """
        payload = self.key_payload()
        del payload["scale"]
        payload["label"] = self.label()
        return payload

    def label(self) -> str:
        """Short human-readable tag for progress and annotations."""
        parts = [self.kind, self.name, self.mechanism]
        if self.scenario is not None:
            parts.insert(1, self.scenario)
        if self.trace_sha256 is not None:
            parts.insert(2, self.trace_sha256[:8])
        for attr, tag in (("cc_entries", "e"), ("cc_duration_ms", "d"),
                          ("row_policy", "rp")):
            value = getattr(self, attr)
            if value is not None:
                parts.append(f"{tag}={value}")
        if self.cc_unbounded:
            parts.append("unbounded")
        if self.idle_finished:
            parts.append("idle")
        if self.enable_rltl:
            parts.append("rltl")
        if self.seed != 1:
            parts.append(f"s{self.seed}")
        return ":".join(parts)


def _check_key_classification() -> None:
    """Refuse to import unless KEY_MATERIAL/LOCATION_ONLY exactly
    partition RunSpec's fields.

    A new field that nobody classified breaks every import of this
    module, so it can never silently not affect cache keys.  That
    :meth:`RunSpec.key_payload` skips only LOCATION_ONLY names is
    tested for every run kind (``tests/harness/test_run_cache.py``).
    """
    declared = {f.name for f in fields(RunSpec)}
    material = set(KEY_MATERIAL)
    if len(KEY_MATERIAL) != len(material):
        raise AssertionError("KEY_MATERIAL contains duplicates")
    overlap = material & LOCATION_ONLY
    if overlap:
        raise AssertionError(
            f"fields classified both KEY_MATERIAL and LOCATION_ONLY: "
            f"{sorted(overlap)}")
    unclassified = declared - material - LOCATION_ONLY
    if unclassified:
        raise AssertionError(
            f"RunSpec fields with no cache-key classification: "
            f"{sorted(unclassified)}; add each to KEY_MATERIAL or "
            f"LOCATION_ONLY (with a reason) in harness/spec.py")
    stale = (material | LOCATION_ONLY) - declared
    if stale:
        raise AssertionError(
            f"classified names that are not RunSpec fields: "
            f"{sorted(stale)}")


_check_key_classification()


def spec_from_payload(payload: Dict) -> RunSpec:
    """Rebuild a :class:`RunSpec` from a :meth:`RunSpec.key_payload`
    dict (the ``spec`` field of every stored envelope).

    The payload is plain JSON data — field-name keys, the scale
    inlined as a dict — so a store reader (``query``,
    :func:`repro.harness.aggregate.store_frame`) can re-materialize
    the spec an envelope was computed for.  Missing fields take the
    dataclass defaults (``kind`` and ``name`` are required); unknown
    fields are rejected eagerly so a malformed payload fails loudly,
    not inside a pool worker.
    Round-trip is exact: ``spec_from_payload(s.key_payload())`` equals
    ``s`` (a trace spec's location-only ``trace_path``, which equality
    ignores, comes back ``None``) and hashes to the same cache key.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"spec payload must be an object, "
                         f"got {type(payload).__name__}")
    data = dict(payload)
    known = {f.name for f in fields(RunSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown spec field(s) {unknown}; "
                         f"expected a subset of {sorted(known)}")
    for required in ("kind", "name"):
        if required not in data:
            raise ValueError(f"spec payload is missing {required!r}")
    scale = data.get("scale")
    if isinstance(scale, dict):
        scale_known = {f.name for f in fields(Scale)}
        bad = sorted(set(scale) - scale_known)
        if bad:
            raise ValueError(f"unknown scale field(s) {bad}")
        data["scale"] = Scale(**scale)
    return RunSpec(**data)


#: RunSpec fields that select or parameterize the latency mechanism.
#: Two specs that agree on everything *except* these describe the same
#: platform, workload, seed, scale and engine — exactly the condition
#: under which the batch evaluator
#: (:meth:`repro.cpu.system.System.run_batch`) may evaluate them
#: against one shared trace replay.
MECHANISM_FIELDS = ("mechanism", "cc_entries", "cc_duration_ms",
                    "cc_unbounded")


def batch_signature(spec: RunSpec) -> str:
    """Canonical JSON of every *non-mechanism* field of ``spec``.

    Built from the same :meth:`RunSpec.key_payload` that cache keys
    hash, minus :data:`MECHANISM_FIELDS` — so two specs share a batch
    signature iff their cache keys agree on every non-mechanism field.
    The sweep executor groups specs by this string; any new RunSpec
    field automatically lands in the signature (and therefore splits
    groups), which is the safe failure mode.
    """
    payload = spec.key_payload()
    for name in MECHANISM_FIELDS:
        payload.pop(name)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dedupe_specs(specs) -> list:
    """Drop duplicate sweep points, preserving first-seen order."""
    seen = set()
    unique = []
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            unique.append(spec)
    return unique
