"""The latency-mechanism table and spec mini-language.

The paper evaluates ChargeCache alongside and combined with NUAT,
LL-DRAM and AL-DRAM, and its capacity/duration sweeps are really a
family of *parameterized* mechanism variants.  This module makes that
family the public API:

* **Table** - :data:`_MECHANISMS` lists the five built-in mechanisms
  in canonical composition order, each with the module that defines
  it, its factory and params dataclass there, and its parameter
  aliases.  It is the single source of truth for which mechanisms
  exist; nothing else hardcodes the menu.
* **Spec mini-language** - :func:`parse_mechanism_spec` accepts any
  ``+``-composition of the mechanisms with inline parameter
  overrides::

      "chargecache(entries=256,duration_ms=0.5)+nuat"

  and validates it eagerly (unknown mechanism, unknown parameter, bad
  type or out-of-range value all fail at parse time, not inside a pool
  worker mid-sweep).
* **Canonical form** - :meth:`MechanismSpec.canonical` normalizes a
  spec to one string per distinct behaviour: terms sorted into table
  order, parameter aliases resolved, values that equal the params
  defaults dropped.  ``"nuat+chargecache"`` and ``"chargecache+nuat"``
  normalize identically, which is what lets the run cache
  (:mod:`repro.harness.cache`) serve both from one entry.
* **Construction** - :func:`build` instantiates a spec against a
  :class:`MechanismContext` (channel timing, core count, refresh
  scheduler); each term's parameters are its params defaults plus
  its inline values, nothing else.  Compositions build an N-way
  :class:`~repro.core.timing_policy.CombinedMechanism` whose two-way
  behaviour is bit-identical to the historical hardcoded pairs.

The plain names of the pre-registry fixed menu (``none``,
``chargecache``, ``nuat``, ``chargecache+nuat``, ``lldram``,
``aldram``, ``chargecache+aldram``) are ordinary specs here and
normalize to themselves, so cache keys computed before the registry
existed stay valid (see DESIGN.md section 6).
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class MechanismContext:
    """Everything a mechanism factory may need at construction time
    besides its parameters, which come from the spec alone."""

    timing: object
    num_cores: int = 1
    refresh_scheduler: Optional[object] = None


@dataclass(frozen=True)
class Mechanism:
    """One built-in mechanism: its spec name, the module that defines
    it, the names there of its factory and params dataclass, and the
    alternate spellings of its parameters (alias -> params field).

    The factory is called as ``factory(ctx, overrides)`` with a
    :class:`MechanismContext` and the coerced inline values under
    their field names.  The params dataclass defines ``validate()``,
    which checks every parsed term with inline values.
    """

    name: str
    module: str
    factory: str
    params: Optional[str] = None
    aliases: Mapping[str, str] = field(default_factory=dict)

    @property
    def params_type(self) -> Optional[type]:
        if self.params is None:
            return None
        return getattr(importlib.import_module(self.module), self.params)

    def defaults(self):
        """A params instance holding the defaults."""
        params_type = self.params_type
        return params_type() if params_type is not None else None

    def build(self, ctx: MechanismContext,
              overrides: Dict[str, object]) -> object:
        factory = getattr(importlib.import_module(self.module),
                          self.factory)
        return factory(ctx, overrides)


#: The built-in mechanisms in canonical composition order.  Composition
#: order is observable only through per-mechanism stats (the combined
#: result is a commutative min), but a *stable* order is what makes
#: canonical strings deterministic across processes - they are
#: cache-key material.  A name's module is imported on its first
#: lookup, so a run loads only the mechanisms its spec names (AL-DRAM's
#: circuit model stays out of a ChargeCache run).
_MECHANISMS: Dict[str, Mechanism] = {m.name: m for m in (
    Mechanism("none", "repro.core.timing_policy", "_build_none"),
    Mechanism("chargecache", "repro.core.chargecache", "_build_chargecache",
              "ChargeCacheConfig", {"duration_ms": "caching_duration_ms"}),
    Mechanism("nuat", "repro.core.nuat", "_build_nuat", "NUATConfig"),
    Mechanism("lldram", "repro.core.lldram", "_build_lldram",
              "LLDRAMParams", {"duration_ms": "caching_duration_ms"}),
    Mechanism("aldram", "repro.core.aldram", "_build_aldram",
              "ALDRAMParams", {"temperature": "temperature_c"}),
)}

_ORDER = {name: index for index, name in enumerate(_MECHANISMS)}

_TERM_RE = re.compile(r"^\s*(?P<name>[^()\s]+)\s*(?:\((?P<params>.*)\))?\s*$",
                      re.DOTALL)


def registered(name: str) -> Mechanism:
    """Look a mechanism up by its name, importing its module."""
    entry = _MECHANISMS.get(name)
    if entry is None:
        raise ValueError(
            f"unknown mechanism {name!r}; registered: "
            f"{mechanism_names()}")
    importlib.import_module(entry.module)
    return entry


def mechanism_names() -> List[str]:
    """The mechanism names in canonical composition order; imports
    every mechanism's module."""
    for entry in _MECHANISMS.values():
        importlib.import_module(entry.module)
    return list(_MECHANISMS)


# ----------------------------------------------------------------------
# Spec model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MechanismTerm:
    """One mechanism in a spec: name + canonical parameter overrides.

    ``params`` holds only explicit non-default overrides, as a sorted
    tuple of (canonical_name, coerced_value) pairs so terms hash and
    compare structurally.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    @property
    def overrides(self) -> Dict[str, object]:
        return dict(self.params)

    def canonical(self) -> str:
        if not self.params:
            return self.name
        body = ",".join(f"{key}={_format_value(value)}"
                        for key, value in self.params)
        return f"{self.name}({body})"


@dataclass(frozen=True)
class MechanismSpec:
    """A parsed, validated, canonically-ordered mechanism composition."""

    terms: Tuple[MechanismTerm, ...]

    def canonical(self) -> str:
        return "+".join(term.canonical() for term in self.terms)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.canonical()

    def term(self, name: str) -> Optional[MechanismTerm]:
        for term in self.terms:
            if term.name == name:
                return term
        return None

    def replace_term(self, term: MechanismTerm) -> "MechanismSpec":
        """This spec with ``term`` substituted for its same-named slot."""
        return MechanismSpec(tuple(
            term if existing.name == term.name else existing
            for existing in self.terms))


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _coerce_value(name: str, key: str, text: str, default: object):
    """Coerce a raw token to the type of the field's default value."""
    text = text.strip()
    if not text:
        raise ValueError(
            f"mechanism {name!r}: empty value for parameter {key!r}")
    if isinstance(default, bool):
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(
            f"mechanism {name!r}: parameter {key!r} expects a boolean "
            f"(true/false), got {text!r}")
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ValueError(
                f"mechanism {name!r}: parameter {key!r} expects an "
                f"integer, got {text!r}") from None
    if isinstance(default, float):
        try:
            value = float(text)
        except ValueError:
            raise ValueError(
                f"mechanism {name!r}: parameter {key!r} expects a "
                f"number, got {text!r}") from None
        if not math.isfinite(value):
            raise ValueError(
                f"mechanism {name!r}: parameter {key!r} must be "
                f"finite, got {text!r}")
        return value
    if isinstance(default, str):
        return text
    raise ValueError(
        f"mechanism {name!r}: parameter {key!r} (default "
        f"{default!r}) cannot be set inline; build the params "
        f"dataclass programmatically instead")


def _split_terms(text: str) -> List[str]:
    """Split a spec on top-level ``+`` (parentheses protect params)."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced ')' in mechanism spec {text!r}")
        if ch == "+" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth:
        raise ValueError(f"unbalanced '(' in mechanism spec {text!r}")
    parts.append("".join(current))
    return parts


def _parse_term(raw: str, spec_text: str) -> MechanismTerm:
    return _normalized_term(*_written_term(raw, spec_text))


def _written_term(raw: str, spec_text: str
                  ) -> Tuple[Mechanism, Dict[str, object]]:
    """A term's mechanism and the coerced parameters it spells out
    (canonical names, defaults still included)."""
    match = _TERM_RE.match(raw)
    if not match or not match.group("name"):
        raise ValueError(
            f"malformed mechanism term {raw!r} in spec {spec_text!r}; "
            f"expected name or name(key=value,...)")
    name = match.group("name")
    entry = registered(name)
    raw_params = match.group("params")
    if raw_params is None or not raw_params.strip():
        return entry, {}
    if entry.params_type is None:
        raise ValueError(
            f"mechanism {name!r} takes no parameters, got "
            f"({raw_params.strip()})")
    defaults = entry.defaults()
    overrides: Dict[str, object] = {}
    for item in raw_params.split(","):
        item = item.strip()
        if not item:
            raise ValueError(
                f"mechanism {name!r}: empty parameter in ({raw_params})")
        if "=" not in item:
            raise ValueError(
                f"mechanism {name!r}: parameter {item!r} is not "
                f"key=value")
        key, _, value_text = item.partition("=")
        key = key.strip()
        key = entry.aliases.get(key, key)
        if not hasattr(defaults, key):
            known = sorted(
                [f.name for f in dataclasses.fields(entry.params_type)]
                + list(entry.aliases))
            raise ValueError(
                f"mechanism {name!r} has no parameter {key!r}; "
                f"known: {known}")
        if key in overrides:
            raise ValueError(
                f"mechanism {name!r}: parameter {key!r} given twice")
        overrides[key] = _coerce_value(name, key, value_text,
                                       getattr(defaults, key))
    return entry, overrides


def _normalized_term(entry: Mechanism,
                     overrides: Dict[str, object]) -> MechanismTerm:
    """Drop overrides equal to the defaults; validate what remains."""
    defaults = entry.defaults()
    kept = {key: value for key, value in overrides.items()
            if value != getattr(defaults, key)}
    if kept:
        try:
            dataclasses.replace(defaults, **kept).validate()
        except ValueError as exc:
            raise ValueError(
                f"mechanism {entry.name!r}: invalid parameters "
                f"{kept!r}: {exc}") from None
    return MechanismTerm(name=entry.name,
                         params=tuple(sorted(kept.items())))


def parse_mechanism_spec(text: str) -> MechanismSpec:
    """Parse and eagerly validate a mechanism spec string.

    Returns a :class:`MechanismSpec` whose terms are in canonical
    order with default-valued parameters dropped, so
    ``parse_mechanism_spec(s).canonical()`` is the one string that
    names this behaviour (and is safe cache-key material).
    """
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"mechanism spec must be a non-empty string, "
                         f"got {text!r}")
    terms = [_parse_term(raw, text) for raw in _split_terms(text)]
    seen = set()
    for term in terms:
        if term.name in seen:
            raise ValueError(
                f"mechanism {term.name!r} appears twice in spec {text!r}")
        seen.add(term.name)
    if len(terms) > 1 and "none" in seen:
        raise ValueError(
            f"'none' cannot be composed with other mechanisms "
            f"(spec {text!r})")
    return MechanismSpec(terms=tuple(
        sorted(terms, key=lambda term: _ORDER[term.name])))


def written_params(text: str) -> Dict[str, Dict[str, object]]:
    """``{mechanism name: {parameter: value}}`` as ``text`` spells the
    parameters out, under their canonical names.

    Unlike the canonical form, which drops a parameter equal to its
    default, this keeps it: a filter over stored runs
    (``query --mechanism``) must tell ``chargecache(entries=128)``
    from a bare ``chargecache``.
    """
    written = {}
    for raw in _split_terms(text):
        entry, overrides = _written_term(raw, text)
        written[entry.name] = overrides
    return written


def fill_params(text: str, name: str,
                params: Mapping[str, object]) -> str:
    """The canonical spec with ``params`` (canonical names; None values
    skipped) written into its ``name`` term, each one the term does not
    write itself.  A spec without a ``name`` term comes back as it was.
    """
    spec = parse_mechanism_spec(text)
    term = spec.term(name)
    if term is None:
        return spec.canonical()
    values = {key: value for key, value in params.items()
              if value is not None}
    values.update(term.overrides)
    return spec.replace_term(
        _normalized_term(registered(name), values)).canonical()


# ----------------------------------------------------------------------
# Harness shorthand normalization
# ----------------------------------------------------------------------

def refuse_time_scale(mechanism: str) -> None:
    """Raise if ``mechanism`` writes a chargecache ``time_scale``.

    That parameter belongs to the run's scale (``Scale.cc_time_scale``,
    which the harness writes into the built config), so a spec may not
    write it, not even at its default.
    """
    if "time_scale" in written_params(mechanism).get("chargecache", {}):
        raise ValueError(
            f"chargecache time_scale is set by the run scale "
            f"(cc_time_scale); spec {mechanism!r} may not write it")


def extract_run_params(mechanism: str,
                       cc_entries: Optional[int] = None,
                       cc_duration_ms: Optional[float] = None,
                       cc_unbounded: bool = False
                       ) -> Tuple[str, Optional[int], Optional[float], bool]:
    """Normalize a spec plus the ChargeCache shorthand knobs.

    Returns ``(canonical_mechanism, cc_entries, cc_duration_ms,
    cc_unbounded)`` where inline ``entries``/``duration_ms``/
    ``unbounded`` parameters of a ``chargecache`` term have been folded
    into the returned shorthand values (the harness's canonical home
    for them) and dropped from the canonical string.  Values equal to
    the :class:`~repro.config.ChargeCacheConfig` defaults normalize to
    ``None``/``False`` so e.g. ``chargecache(entries=128)`` and plain
    ``chargecache`` share one cache key.  A shorthand argument that
    contradicts an inline parameter raises ``ValueError`` — except
    when the inline value equals its default, which (being
    an identity, already dropped at parse time) yields to the
    shorthand.  A shorthand argument without a chargecache term to
    read it raises too: it would key a distinct run that simulates
    the same as the bare spec.

    When the term also carries parameters *without* a shorthand home
    (``associativity``, ``sharing``, ...), nothing is folded: the
    whole term — shorthand arguments merged in — stays inline as one
    unit.  Cross-field constraints couple the parameters
    (``entries`` must divide by ``associativity``), so splitting e.g.
    ``chargecache(entries=129,associativity=3)`` across the boundary
    would re-validate each half against the defaults and
    reject a perfectly valid spec.

    A chargecache ``time_scale`` raises (:func:`refuse_time_scale`).
    """
    spec = parse_mechanism_spec(mechanism)
    refuse_time_scale(mechanism)
    # Coerce the shorthand through the field types the spec grammar
    # uses, so cc_duration_ms=4 and duration_ms=4.0 spellings of one
    # run cannot hash apart.
    if cc_entries is not None:
        cc_entries = int(cc_entries)
    if cc_duration_ms is not None:
        cc_duration_ms = float(cc_duration_ms)
    shorthand = {"entries": cc_entries,
                 "caching_duration_ms": cc_duration_ms,
                 "unbounded": cc_unbounded or None}
    term = spec.term("chargecache")
    if term is None:
        if any(value is not None for value in shorthand.values()):
            raise ValueError(
                f"cc_entries/cc_duration_ms/cc_unbounded set a "
                f"chargecache term; spec {spec.canonical()!r} has none")
        return spec.canonical(), None, None, False

    entry = registered("chargecache")
    overrides = term.overrides
    for param, value in shorthand.items():
        if value is None:
            continue
        inline = overrides.get(param)
        if inline is not None and inline != value:
            raise ValueError(
                f"chargecache parameter {param!r} given twice with "
                f"conflicting values: {inline!r} inline vs {value!r} "
                f"via keyword/spec field")
        overrides[param] = value
    merged = _normalized_term(entry, overrides)
    if set(merged.overrides) - set(shorthand):
        return spec.replace_term(merged).canonical(), None, None, False
    folded = merged.overrides
    return (spec.replace_term(MechanismTerm(name="chargecache")).canonical(),
            folded.get("entries"), folded.get("caching_duration_ms"),
            bool(folded.get("unbounded", False)))


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def build(spec: str, ctx: MechanismContext):
    """Instantiate a mechanism spec against a context.

    Single terms build the mechanism directly; compositions build an
    N-way :class:`~repro.core.timing_policy.CombinedMechanism` in
    canonical order (which reproduces the historical two-way pairs
    bit-for-bit).
    """
    mspec = parse_mechanism_spec(spec)
    parts = [registered(term.name).build(ctx, term.overrides)
             for term in mspec.terms]
    if len(parts) == 1:
        return parts[0]
    from repro.core.timing_policy import CombinedMechanism
    return CombinedMechanism(ctx.timing, *parts)
