"""Composable latency-mechanism registry and spec mini-language.

The paper evaluates ChargeCache alongside and combined with NUAT,
LL-DRAM and AL-DRAM, and its capacity/duration sweeps are really a
family of *parameterized* mechanism variants.  This module makes that
family the public API:

* **Registry** - every mechanism registers itself once with
  :func:`register_mechanism` (name, params dataclass, factory).  The
  registry is the single source of truth for which mechanisms exist;
  nothing else hardcodes the menu.
* **Spec mini-language** - :func:`parse_mechanism_spec` accepts any
  ``+``-composition of registered mechanisms with inline parameter
  overrides::

      "chargecache(entries=256,duration_ms=0.5)+nuat"

  and validates it eagerly (unknown mechanism, unknown parameter, bad
  type or out-of-range value all fail at parse time, not inside a pool
  worker mid-sweep).
* **Canonical form** - :meth:`MechanismSpec.canonical` normalizes a
  spec to one string per distinct behaviour: terms sorted into a fixed
  mechanism order, parameter aliases resolved, values that equal the
  registered defaults dropped.  ``"nuat+chargecache"`` and
  ``"chargecache+nuat"`` normalize identically, which is what lets the
  run cache (:mod:`repro.harness.cache`) serve both from one entry.
* **Construction** - :func:`build` instantiates a spec against a
  :class:`MechanismContext` (channel timing, core count, refresh
  scheduler); each term's parameters are its registered defaults plus
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
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

#: Canonical ordering for the built-in mechanisms.  Composition order
#: is observable only through per-mechanism stats (the combined result
#: is a commutative min), but a *stable* order is what makes canonical
#: strings deterministic across processes and import orders - they are
#: cache-key material.  Unregistered-in-this-table mechanisms sort
#: after the builtins, alphabetically.
_DEFAULT_ORDER = 1000


@dataclass(frozen=True)
class MechanismContext:
    """Everything a mechanism factory may need at construction time
    besides its parameters, which come from the spec alone."""

    timing: object
    num_cores: int = 1
    refresh_scheduler: Optional[object] = None


@dataclass(frozen=True)
class RegisteredMechanism:
    """One registry entry: name, factory and parameter schema."""

    name: str
    factory: Callable[[MechanismContext, Dict[str, object]], object]
    params_type: Optional[type]
    aliases: Mapping[str, str]
    order: int
    description: str

    def defaults(self):
        """A params instance holding the registered defaults."""
        return self.params_type() if self.params_type is not None else None


_REGISTRY: Dict[str, RegisteredMechanism] = {}
_BUILTINS_LOADED = False

#: Modules whose import registers the built-in mechanisms.
_BUILTIN_MODULES = (
    "repro.core.timing_policy",   # "none"
    "repro.core.chargecache",
    "repro.core.nuat",
    "repro.core.lldram",
    "repro.core.aldram",
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_\-]*$")
_TERM_RE = re.compile(r"^\s*(?P<name>[^()\s]+)\s*(?:\((?P<params>.*)\))?\s*$",
                      re.DOTALL)


def register_mechanism(name: str, *, params: Optional[type] = None,
                       aliases: Optional[Mapping[str, str]] = None,
                       order: int = _DEFAULT_ORDER,
                       description: str = ""):
    """Class/function decorator registering a mechanism factory.

    The decorated callable is invoked as ``factory(ctx, overrides)``
    where ``ctx`` is a :class:`MechanismContext` and ``overrides`` maps
    canonical parameter names (fields of ``params``) to already-coerced
    values from the spec string.  ``aliases`` maps alternate spellings
    to canonical field names (``duration_ms`` -> ``caching_duration_ms``).
    ``order`` fixes this mechanism's position in canonical composition
    strings; mechanisms without an explicit order sort after all
    ordered ones, alphabetically.

    ``params`` must define ``validate()``, which every parsed term
    with inline values is checked by; the registered defaults are
    validated here, once, so invalid defaults fail at import.
    """
    if not _NAME_RE.match(name):
        raise ValueError(
            f"mechanism name {name!r} must be lowercase "
            f"[a-z][a-z0-9_-]* (it appears verbatim in spec strings)")
    alias_map = dict(aliases or {})
    if params is not None:
        if not callable(getattr(params, "validate", None)):
            raise ValueError(
                f"mechanism {name!r}: params class {params.__name__} "
                f"defines no validate(); the registry validates every "
                f"parsed term with it")
        try:
            params().validate()
        except ValueError as exc:
            raise ValueError(
                f"mechanism {name!r}: invalid default parameters: "
                f"{exc}") from None
        field_names = {f.name for f in dataclasses.fields(params)}
        for alias, target in alias_map.items():
            if target not in field_names:
                raise ValueError(
                    f"mechanism {name!r}: alias {alias!r} targets "
                    f"unknown field {target!r}")

    def decorator(factory):
        existing = _REGISTRY.get(name)
        if existing is not None and existing.factory is not factory:
            raise ValueError(
                f"mechanism {name!r} already registered (names are "
                f"spec/cache-key material and must be unique)")
        _REGISTRY[name] = RegisteredMechanism(
            name=name, factory=factory, params_type=params,
            aliases=alias_map, order=order, description=description)
        return factory

    return decorator


def _load_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    import importlib
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _BUILTINS_LOADED = True


def registered(name: str) -> RegisteredMechanism:
    """Look a mechanism up by its registered name."""
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown mechanism {name!r}; registered: "
            f"{mechanism_names()}") from None


def mechanism_names() -> List[str]:
    """Registered mechanism names in canonical composition order."""
    _load_builtins()
    return [entry.name for entry in
            sorted(_REGISTRY.values(), key=lambda e: (e.order, e.name))]


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
            return float(text)
        except ValueError:
            raise ValueError(
                f"mechanism {name!r}: parameter {key!r} expects a "
                f"number, got {text!r}") from None
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
                  ) -> Tuple[RegisteredMechanism, Dict[str, object]]:
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


def _normalized_term(entry: RegisteredMechanism,
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


def parse_mechanism_spec(text: Union[str, MechanismSpec]) -> MechanismSpec:
    """Parse and eagerly validate a mechanism spec string.

    Returns a :class:`MechanismSpec` whose terms are in canonical
    order with default-valued parameters dropped, so
    ``parse_mechanism_spec(s).canonical()`` is the one string that
    names this behaviour (and is safe cache-key material).
    """
    if isinstance(text, MechanismSpec):
        # Re-normalize rather than trust the object: a caller-built
        # MechanismSpec may be unsorted, carry default-valued params,
        # duplicate a term, or hold unvalidated values — none of which
        # may reach cache keys.  Round-tripping through the canonical
        # string funnels the object path through the exact same
        # grammar, coercion and validation as user input.
        return parse_mechanism_spec(text.canonical())
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"mechanism spec must be a non-empty string, "
                         f"got {text!r}")
    terms = [_parse_term(raw, text) for raw in _split_terms(text)]
    return _validated_spec(terms, repr(text))


def _validated_spec(terms: List[MechanismTerm],
                    origin: str) -> MechanismSpec:
    """Composition-level checks + canonical ordering (shared by the
    string and MechanismSpec entry paths)."""
    seen = set()
    for term in terms:
        if term.name in seen:
            raise ValueError(
                f"mechanism {term.name!r} appears twice in spec {origin}")
        seen.add(term.name)
    if len(terms) > 1 and any(term.name == "none" for term in terms):
        raise ValueError(
            f"'none' cannot be composed with other mechanisms "
            f"(spec {origin})")
    terms = sorted(terms, key=lambda t: (registered(t.name).order, t.name))
    return MechanismSpec(terms=tuple(terms))


def written_params(text: str) -> Dict[str, Dict[str, object]]:
    """``{mechanism name: {parameter: value}}`` as ``text`` spells the
    parameters out, under their canonical names.

    Unlike the canonical form, which drops a parameter equal to its
    registered default, this keeps it: a filter over stored runs
    (``query --mechanism``) must tell ``chargecache(entries=128)``
    from a bare ``chargecache``.
    """
    written = {}
    for raw in _split_terms(text):
        entry, overrides = _written_term(raw, text)
        written[entry.name] = overrides
    return written


def fill_params(text: Union[str, MechanismSpec], name: str,
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


def canonical_spec(text: Union[str, MechanismSpec]) -> str:
    """The canonical string form of any valid spec."""
    return parse_mechanism_spec(text).canonical()


# ----------------------------------------------------------------------
# Harness shorthand normalization
# ----------------------------------------------------------------------

def extract_run_params(mechanism: str,
                       cc_entries: Optional[int] = None,
                       cc_duration_ms: Optional[float] = None,
                       cc_unbounded: bool = False
                       ) -> Tuple[str, Optional[int], Optional[float], bool]:
    """Normalize a spec plus legacy ChargeCache shorthand knobs.

    Returns ``(canonical_mechanism, cc_entries, cc_duration_ms,
    cc_unbounded)`` where inline ``entries``/``duration_ms``/
    ``unbounded`` parameters of a ``chargecache`` term have been folded
    into the returned shorthand values (the harness's canonical home
    for them) and dropped from the canonical string.  Values equal to
    the :class:`~repro.config.ChargeCacheConfig` defaults normalize to
    ``None``/``False`` so e.g. ``chargecache(entries=128)`` and plain
    ``chargecache`` share one cache key.  A shorthand argument that
    contradicts an inline parameter raises ``ValueError`` — except
    when the inline value equals the registered default, which (being
    an identity, already dropped at parse time) yields to the
    shorthand.  A shorthand argument no term can read raises too:
    ``cc_entries``/``cc_unbounded`` without a chargecache term, or
    ``cc_duration_ms`` without a chargecache or lldram term, would
    key a distinct run that simulates the same as the bare spec.

    When the term also carries parameters *without* a shorthand home
    (``associativity``, ``sharing``, ...), nothing is folded: the
    whole term — shorthand arguments merged in — stays inline as one
    unit.  Cross-field constraints couple the parameters
    (``entries`` must divide by ``associativity``), so splitting e.g.
    ``chargecache(entries=129,associativity=3)`` across the boundary
    would re-validate each half against the registered defaults and
    reject a perfectly valid spec.

    An lldram term's inline ``duration_ms`` folds the same way — but
    only when no chargecache term competes for the shorthand fields.
    In the degenerate ``chargecache+lldram`` composition an inline
    lldram duration therefore stays inline (distinct cache key from the
    keyword spelling; behaviour identical either way).

    A chargecache ``time_scale`` belongs to the run's scale
    (``Scale.cc_time_scale``, which the harness writes into the built
    config), so a spec that writes one raises, even at its default.
    """
    spec = parse_mechanism_spec(mechanism)
    if "time_scale" in written_params(mechanism).get("chargecache", {}):
        raise ValueError(
            f"chargecache time_scale is set by the run scale "
            f"(cc_time_scale); spec {mechanism!r} may not write it")
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
        lterm = spec.term("lldram")
        if cc_entries is not None or cc_unbounded:
            raise ValueError(
                f"cc_entries/cc_unbounded size a chargecache term; "
                f"spec {spec.canonical()!r} has none")
        if cc_duration_ms is not None and lterm is None:
            raise ValueError(
                f"cc_duration_ms sets the caching duration of a "
                f"chargecache or lldram term; spec "
                f"{spec.canonical()!r} has neither")
        if cc_duration_ms == registered("lldram").defaults() \
                .caching_duration_ms:
            cc_duration_ms = None
        if lterm is not None:
            inline = lterm.overrides.get("caching_duration_ms")
            if inline is not None:
                if cc_duration_ms is not None and inline != cc_duration_ms:
                    raise ValueError(
                        f"lldram parameter 'caching_duration_ms' given "
                        f"twice with conflicting values: {inline!r} "
                        f"inline vs {cc_duration_ms!r} via keyword/spec "
                        f"field")
                # Fold into the shorthand home so "lldram(duration_ms=4)"
                # and ("lldram", cc_duration_ms=4) are one run, one
                # cache key.
                cc_duration_ms = inline
                spec = spec.replace_term(MechanismTerm(name="lldram"))
        return spec.canonical(), None, cc_duration_ms, False

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

def default_context(timing=None, num_cores: int = 1) -> MechanismContext:
    """A context sufficient to build any registered mechanism with its
    defaults (used by the registry-completeness guard and the shim
    coverage check in CI)."""
    from repro.dram.refresh import RefreshScheduler
    from repro.dram.timing import DDR3_1600
    timing = timing if timing is not None else DDR3_1600
    refresh = RefreshScheduler(timing, 1, 64 * 1024)
    return MechanismContext(timing=timing, num_cores=num_cores,
                            refresh_scheduler=refresh)


def build(spec: Union[str, MechanismSpec], ctx: MechanismContext):
    """Instantiate a mechanism spec against a context.

    Single terms build the mechanism directly; compositions build an
    N-way :class:`~repro.core.timing_policy.CombinedMechanism` in
    canonical order (which reproduces the historical two-way pairs
    bit-for-bit).
    """
    mspec = parse_mechanism_spec(spec)
    parts = [registered(term.name).factory(ctx, term.overrides)
             for term in mspec.terms]
    if len(parts) == 1:
        return parts[0]
    from repro.core.timing_policy import CombinedMechanism
    return CombinedMechanism(ctx.timing, *parts)
