"""Scenario files: application graph, platform, mapping and migration
defaults in one self-describing XML document, plus report emission.

The attribute tables (``_ACTOR`` ... ``_DEFAULTS``) and the child tables
(``_SCENARIO_CHILDREN`` ... ``_MAPPING_CHILDREN``) are the format's one
statement: load and save both read the attribute tables, and load reads
each element's children through its child table, so an unknown child, a
second ``<description>``, ``<application>``, ``<platform>``, ``<mapping>``
or ``<defaults>`` and a missing ``<application>`` are refused at load with
their line and column. Numeric attributes are parsed
exactly (a bandwidth of 0.00406278 stays the rational 203139/50000000);
serialization is canonical, so saving the same scenario twice produces
identical bytes. An import shim reads the application-graph subset of
SDF3-style XML files.
"""

from __future__ import annotations

import re
import xml.parsers.expat
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .analysis import DEFAULT_CLOCK_HZ, ThroughputResult, to_frames_per_second
from .errors import (
    InvalidFieldError,
    ScenarioParseError,
    ScenarioValidationError,
    UnknownReportFormatError,
)
from .graph import BAD_ID, Actor, ActorKind, Channel, SDFG, validate
from .migration import MigrationCandidate, MigrationSpec
from .mpsoc import (
    BindingKind,
    ChannelBinding,
    NocConnection,
    Platform,
    PlatformMapping,
    Tile,
    TileKind,
    validate_mapping,
)
from .rational import format_rational, parse_plain_integer, parse_rational


def _bad_attribute(tag: str, attribute: str, rule: str, value) -> ScenarioValidationError:
    return ScenarioValidationError(
        f"<{tag}>: attribute {attribute!r} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """Everything one analysis run needs. ``platform`` and ``mapping`` are
    optional for graph-only scenarios (the graph is then analyzed as-is).

    Built, it refuses (:class:`ScenarioValidationError`) a clock that is not
    a positive ``int`` or ``Fraction``, a mapping without a platform, defaults
    naming an actor or a connection the platform lacks, a description that is
    not a ``str``, and every diagnostic of ``validate`` and ``validate_mapping``."""

    name: str
    graph: SDFG
    platform: Platform | None = None
    mapping: PlatformMapping | None = None
    defaults: MigrationSpec = field(default_factory=MigrationSpec)
    description: str = ""
    clock_hz: Fraction = DEFAULT_CLOCK_HZ

    def __post_init__(self):
        clock, platform, spec = self.clock_hz, self.platform, self.defaults
        if type(clock) not in (int, Fraction):
            raise _bad_attribute("scenario", "clock-hz", "an int or a Fraction", clock)
        if clock <= 0:
            raise _bad_attribute("scenario", "clock-hz", "positive", clock)
        if self.mapping is not None and platform is None:
            raise ScenarioValidationError("a scenario with a mapping needs a platform")
        if spec.actor != "":
            raise ScenarioValidationError(
                f"<defaults> cannot name an actor, got {spec.actor!r}")
        connection = spec.hw_connection
        if connection is not None and (platform is None
                                       or connection not in platform.connection_map):
            raise _bad_attribute("defaults", "hw-connection",
                                 "a connection of the platform", connection)
        if not isinstance(self.description, str):
            raise ScenarioValidationError(
                f"<description> must be a string, got {self.description!r}")
        diagnostics = validate(self.graph)
        # The mapping rules look graph ids up, so each must be a str first.
        if self.mapping is not None and all(d.code != BAD_ID for d in diagnostics):
            diagnostics += validate_mapping(self.graph, platform, self.mapping)
        if diagnostics:
            raise ScenarioValidationError(
                "; ".join(str(d) for d in diagnostics), diagnostics=tuple(diagnostics))


# ---------------------------------------------------------------------------
# positioned XML tree (expat keeps line/column for every element)

class _Node:
    __slots__ = ("tag", "attrib", "children", "text", "line", "column")

    def __init__(self, tag: str, attrib: dict[str, str], line: int, column: int):
        self.tag = tag
        self.attrib = attrib
        self.children: list[_Node] = []
        self.text = ""
        self.line = line
        self.column = column


def _parse_tree(text: str) -> _Node:
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    root: list[_Node] = []
    stack: list[_Node] = []

    def start(tag, attrs):
        node = _Node(tag, attrs, parser.CurrentLineNumber,
                     parser.CurrentColumnNumber + 1)
        if stack:
            stack[-1].children.append(node)
        else:
            root.append(node)
        stack.append(node)

    def end(_tag):
        stack.pop()

    def chardata(data):
        if stack:
            stack[-1].text += data

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chardata
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        # Expat counts columns from 0, and refuses a document with no root
        # element ("no element found").
        raise ScenarioParseError(xml.parsers.expat.ErrorString(exc.code),
                                 line=exc.lineno, column=exc.offset + 1) from exc
    return root[0]


# One table per element that carries attributes, a row (attribute, type,
# default) per attribute in the order save writes them; the field is the
# attribute with "_" for "-". Load accepts no other attribute and gives the
# default for an absent one; save leaves out a value equal to its default.
# A _REQUIRED attribute must be present and is always written; _NATURAL is
# an int of at least 0.
_REQUIRED = object()
_NATURAL = object()


def _table(*rows) -> dict:
    """Attribute -> (field, type, default), in row order."""
    return {attribute: (attribute.replace("-", "_"), kind, default)
            for attribute, kind, default in rows}


_ACTOR = _table(("id", str, _REQUIRED), ("exec-time", int, 0),
                ("kind", ActorKind, ActorKind.SOFTWARE), ("name", str, ""))
_CHANNEL = _table(("id", str, _REQUIRED), ("src", str, _REQUIRED), ("dst", str, _REQUIRED),
                  ("prod-rate", int, 1), ("cons-rate", int, 1),
                  ("initial-tokens", int, 0), ("token-size", _NATURAL, 0))
_TILE = _table(("id", str, _REQUIRED), ("kind", TileKind, TileKind.PROCESSOR),
               ("tdma-wheel", _NATURAL, 0))
_CONNECTION = _table(("id", str, _REQUIRED), ("src-tile", str, _REQUIRED),
                     ("dst-tile", str, _REQUIRED), ("latency", _NATURAL, 0),
                     ("bandwidth", Fraction, _REQUIRED))
_PLACE = _table(("actor", str, _REQUIRED), ("tile", str, _REQUIRED),
                ("tdma-slice", _NATURAL, None))
_BIND = _table(("channel", str, _REQUIRED), ("prefetch", bool, False),
               ("connection", str, None), ("buffer-tokens", int, None),
               ("alpha-src", int, None), ("alpha-dst", int, None),
               ("latency-bound", int, None), ("prefetch-time", int, None))
_DEFAULTS = _table(("speedup", Fraction, MigrationSpec.speedup),
                   ("prefetch-time", int, MigrationSpec.prefetch_time),
                   ("hw-connection", str, None), ("hw-buffer-tokens", int, None),
                   ("alpha-src", int, MigrationSpec.alpha_src),
                   ("alpha-dst", int, MigrationSpec.alpha_dst))

# The two elements with attributes and children, and the SDF3 import, which
# is never written. Load reads the root with the file's stem as the default
# name; save always writes it.
_SCENARIO = _table(("name", str, _REQUIRED), ("clock-hz", Fraction, DEFAULT_CLOCK_HZ))
_APPLICATION = _table(("reference-actor", str, None))
_SDF3_CHANNEL = _table(("srcActor", str, _REQUIRED), ("dstActor", str, _REQUIRED),
                       ("name", str, _REQUIRED), ("srcPort", str, ""), ("dstPort", str, ""),
                       ("initialTokens", int, 0), ("size", str, None))

# One table per element with children, a row (tag, count) per child tag in
# the order load reads them, as the README grammar states them: _ONE is
# exactly one, _OPTIONAL at most one, _MANY any number. Load accepts no
# other child.
_ONE, _OPTIONAL, _MANY = object(), object(), object()
_SCENARIO_CHILDREN = {"description": _OPTIONAL, "application": _ONE,
                      "platform": _OPTIONAL, "mapping": _OPTIONAL, "defaults": _OPTIONAL}
_APPLICATION_CHILDREN = {"actor": _MANY, "channel": _MANY}
_PLATFORM_CHILDREN = {"tile": _MANY, "connection": _MANY}
_MAPPING_CHILDREN = {"place": _MANY, "bind": _MANY}


def _at(node: _Node, message: str):
    raise ScenarioParseError(message, line=node.line, column=node.column)


def _fail(node: _Node, message: str):
    _at(node, f"<{node.tag}>: {message}")


def _fail_field(node: _Node, error: InvalidFieldError):
    """Position at ``node`` the error of a field that breaks its own rule,
    naming the attribute it was read from."""
    _fail(node, f"attribute {error.field.replace('_', '-')!r} {error.rule}")


def _fields(node: _Node, table: dict) -> dict:
    """The node's attributes read by ``table``, in table order, by field:
    each parsed as its type, or its default when absent. An attribute the
    table lacks is unknown."""
    attrib = node.attrib
    if not attrib.keys() <= table.keys():
        unknown = sorted(attrib.keys() - table.keys())[0]
        _at(node, f"unknown attribute {unknown!r} on <{node.tag}>")
    values = {}
    for attribute, (field, kind, default) in table.items():
        raw = attrib.get(attribute)
        if raw is None:
            if default is _REQUIRED:
                _fail(node, f"missing attribute {attribute!r}")
            values[field] = default
        elif kind is str:
            values[field] = raw
        elif kind is int or kind is _NATURAL:
            try:  # plain digits, the common case, need no call to parse
                values[field] = value = (int(raw) if raw.isdigit() and raw.isascii()
                                         else parse_plain_integer(raw))
            except ValueError:
                _fail(node, f"attribute {attribute!r} must be an integer, got {raw!r}")
            if kind is _NATURAL and value < 0:
                _fail(node, f"attribute {attribute!r} must be at least 0, got {value}")
        elif kind is Fraction:
            try:
                values[field] = parse_rational(raw)
            except ValueError:
                _fail(node, f"attribute {attribute!r} must be a number, got {raw!r}")
        elif kind is bool:
            if raw not in ("true", "false"):
                _fail(node, f"{attribute} must be 'true' or 'false'")
            values[field] = raw == "true"
        else:
            try:
                values[field] = kind(raw)
            except ValueError:
                _fail(node, f"unknown {node.tag} kind {raw!r}")
    return values


def _children(node: _Node, table: dict) -> dict[str, list[_Node]]:
    """The node's children by tag, for every tag of ``table`` in table order,
    each tag's in document order. A tag the table lacks is unknown; a second
    child of a tag that takes at most one is refused at that child, and a
    missing child of a tag that takes exactly one at ``node``."""
    found = {tag: [] for tag in table}
    for child in node.children:
        same = found.get(child.tag)
        if same is None:
            _at(child, f"unknown element <{child.tag}> inside <{node.tag}>")
        if same and table[child.tag] is not _MANY:
            _at(child, f"second <{child.tag}> inside <{node.tag}>")
        same.append(child)
    for tag, count in table.items():
        if count is _ONE and not found[tag]:
            _at(node, f"{node.tag} has no <{tag}>")
    return found


# ---------------------------------------------------------------------------
# loading

def load_scenario(path) -> Scenario:
    """Parse and validate one scenario file.

    Raises :class:`ScenarioParseError` (with line/column) for malformed or
    unknown content and :class:`ScenarioValidationError` (with the diagnostic
    list) when the parsed model violates graph or mapping invariants.
    """
    text = Path(path).read_text(encoding="utf-8")
    root = _parse_tree(text)
    if root.tag == "sdf3":
        return Scenario(name=Path(path).stem, graph=_read_sdf3(root))
    if root.tag != "scenario":
        _at(root, f"expected <scenario> root, got <{root.tag}>")
    head = _fields(root, _table(("name", str, Path(path).stem),
                                ("clock-hz", Fraction, DEFAULT_CLOCK_HZ)))
    name, clock = head["name"], head["clock_hz"]
    if clock <= 0:
        _fail(root, f"attribute 'clock-hz' must be positive, got {format_rational(clock)}")
    children = _children(root, _SCENARIO_CHILDREN)

    # An optional element is read when present, else its default.
    description = next((node.text.strip() for node in children["description"]), "")
    graph = _read_application(children["application"][0])
    platform = next(map(_read_platform, children["platform"]), None)
    mapping = next(map(_read_mapping, children["mapping"]), None)
    defaults = next(map(_read_defaults, children["defaults"]), MigrationSpec())
    if mapping is not None and platform is None:
        _at(root, "scenario has a <mapping> but no <platform>")
    connection = defaults.hw_connection
    if connection is not None and (platform is None
                                   or connection not in platform.connection_map):
        _fail(children["defaults"][0],
            f"attribute 'hw-connection' names no connection of the platform, "
            f"got {connection!r}")

    return Scenario(name=name, graph=graph, platform=platform, mapping=mapping,
                    defaults=defaults, description=description, clock_hz=clock)


def _read_application(node: _Node) -> SDFG:
    reference = _fields(node, _APPLICATION)["reference_actor"]
    children = _children(node, _APPLICATION_CHILDREN)
    return SDFG(actors=[Actor(**_fields(child, _ACTOR)) for child in children["actor"]],
                channels=[Channel(**_fields(child, _CHANNEL))
                          for child in children["channel"]],
                reference_actor=reference)


def _read_platform(node: _Node) -> Platform:
    _fields(node, {})
    children = _children(node, _PLATFORM_CHILDREN)
    tiles = [Tile(**_fields(child, _TILE)) for child in children["tile"]]
    connections: list[NocConnection] = []
    for child in children["connection"]:
        values = _fields(child, _CONNECTION)
        if values["bandwidth"] <= 0:
            _fail(child, "bandwidth must be positive")
        connections.append(NocConnection(**values))
    return Platform(tiles=tiles, connections=connections)


def _read_mapping(node: _Node) -> PlatformMapping:
    _fields(node, {})
    children = _children(node, _MAPPING_CHILDREN)
    actor_tile: dict[str, str] = {}
    tdma_slice: dict[str, int] = {}
    bindings: dict[str, ChannelBinding] = {}
    for child in children["place"]:
        place = _fields(child, _PLACE)
        if place["actor"] in actor_tile:
            _fail(child, f"actor {place['actor']!r} is placed twice")
        actor_tile[place["actor"]] = place["tile"]
        if place["tdma_slice"] is not None:
            tdma_slice[place["actor"]] = place["tdma_slice"]
    for child in children["bind"]:
        values = _fields(child, _BIND)
        channel = values.pop("channel")
        if channel in bindings:
            _fail(child, f"channel {channel!r} is bound twice")
        kind = (BindingKind.PREFETCH if values.pop("prefetch") else
                BindingKind.LOCAL if values["connection"] is None else BindingKind.REMOTE)
        try:
            bindings[channel] = ChannelBinding(kind=kind, **values)
        except InvalidFieldError as exc:
            _fail_field(child, exc)
    return PlatformMapping(actor_tile=actor_tile, tdma_slice=tdma_slice,
                           channel_binding=bindings)


def _read_defaults(node: _Node) -> MigrationSpec:
    values = _fields(node, _DEFAULTS)
    _children(node, {})
    try:
        return MigrationSpec(**values)
    except InvalidFieldError as exc:
        _fail_field(node, exc)


# ---------------------------------------------------------------------------
# SDF3 application-graph import shim

def _read_sdf3(root: _Node) -> SDFG:
    """Read the application-graph subset of an SDF3-style file: actors with
    rated ports, channels wired port to port, execution times from the actor
    properties block, each from the only processor there or else the one
    marked ``default="true"``."""

    def find_all(node: _Node, tag: str) -> list[_Node]:
        found = []
        for child in node.children:
            if child.tag == tag:
                found.append(child)
            found.extend(find_all(child, tag))
        return found

    def integer(node: _Node, name: str, default: str, what: str,
                minimum: int | None = None) -> int:
        """``node``'s attribute ``name`` as a plain integer, else a parse
        error at the node that calls the value ``what``."""
        try:
            value = parse_plain_integer(node.attrib.get(name, default))
        except ValueError:
            _at(node, f"{what} must be an integer")
        if minimum is not None and value < minimum:
            _at(node, f"{what} must be at least {minimum}")
        return value

    port_rates: dict[tuple[str, str], int] = {}
    actor_nodes = find_all(root, "actor")
    channel_nodes = find_all(root, "channel")
    exec_times: dict[str, int] = {}
    for properties in find_all(root, "actorProperties"):
        actor_name = properties.attrib.get("actor", "")
        processors = find_all(properties, "processor")
        marked = [p for p in processors if p.attrib.get("default") == "true"]
        chosen = processors if len(processors) == 1 else marked
        if len(chosen) != 1:
            _at(properties, f"actor {actor_name!r}: expected one <processor> or one marked "
                            f"default, got {len(processors)} with {len(marked)} marked")
        for timing in find_all(chosen[0], "executionTime"):
            exec_times[actor_name] = integer(timing, "time", "0", "executionTime")
    token_sizes: dict[str, int] = {}
    for properties in find_all(root, "channelProperties"):
        channel_name = properties.attrib.get("channel", "")
        for size in find_all(properties, "tokenSize"):
            token_sizes[channel_name] = integer(size, "sz", "0", "tokenSize", minimum=0)

    actors = []
    for node in actor_nodes:
        name = node.attrib.get("name")
        if name is None:
            _at(node, "actor without name")
        for port in node.children:
            if port.tag == "port":
                port_rates[(name, port.attrib.get("name", ""))] = integer(
                    port, "rate", "1", "port rate")
        actors.append(Actor(id=name, exec_time=exec_times.get(name, 0)))

    channels = []
    for node in channel_nodes:
        f = _fields(node, _SDF3_CHANNEL)
        src, dst, name = f["srcActor"], f["dstActor"], f["name"]
        channels.append(Channel(
            id=name, src=src, dst=dst,
            prod_rate=port_rates.get((src, f["srcPort"]), 1),
            cons_rate=port_rates.get((dst, f["dstPort"]), 1),
            initial_tokens=f["initialTokens"],
            token_size=token_sizes.get(name, 0),
        ))
    return SDFG(actors=actors, channels=channels)


# ---------------------------------------------------------------------------
# saving

def save_scenario(scenario: Scenario, path) -> None:
    """Write the canonical text form of :func:`scenario_to_text`, with its
    errors."""
    Path(path).write_text(scenario_to_text(scenario), encoding="utf-8")


# Characters XML 1.0 cannot hold, not even as a character reference.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# ASCII characters an attribute value cannot hold as they are: the ones to
# escape, and the controls XML refuses.
_NOT_PLAIN = frozenset('&<>"').union(map(chr, range(0x20)))


def _escape(text: str) -> str:
    """Character data with ``&``, ``<`` and ``>`` escaped, as
    ``xml.sax.saxutils.escape`` does, and ``\r`` written as ``&#13;``, which
    a parser would otherwise read back as ``\n``. A character XML cannot
    hold is a :class:`ScenarioValidationError`."""
    bad = _NOT_XML.search(text)
    if bad is not None:
        raise ScenarioValidationError(
            f"character {bad.group()!r} cannot be written to a scenario file, in {text!r}")
    return (text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            .replace("\r", "&#13;"))


def _quote(value: str) -> str:
    """An attribute value quoted and escaped exactly as
    ``xml.sax.saxutils.quoteattr`` does: in double quotes, or in single
    quotes when it holds ``"`` but no ``'``."""
    if value.isascii() and _NOT_PLAIN.isdisjoint(value):
        return f'"{value}"'
    value = _escape(value).replace("\n", "&#10;").replace("\t", "&#9;")
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


def _element(tag: str, table: dict, values: dict, keep: tuple[str, ...] = (),
             end: str = "/>") -> str:
    """``<tag ...`` and ``end`` with the attributes of ``table`` in table
    order, each field's value taken from ``values``. A value equal to its
    default is left out unless its field is in ``keep``. Every value but
    text was checked where it was built; a text field must be a ``str``."""
    line = "<" + tag
    for attribute, (field, kind, default) in table.items():
        value = values[field]
        if default is not _REQUIRED and value == default and field not in keep:
            continue
        if kind is str:
            if type(value) is not str:  # a str enum would write its member name
                raise _bad_attribute(tag, attribute, "a string", value)
            line += f" {attribute}={_quote(value)}"
        elif kind is int or kind is _NATURAL:
            line += f' {attribute}="{value}"'
        elif kind is Fraction:
            line += f' {attribute}="{format_rational(value)}"'
        elif kind is bool:
            line += f' {attribute}="{"true" if value else "false"}"'
        else:
            line += f' {attribute}="{value.value}"'
    return line + end


def scenario_to_text(scenario: Scenario) -> str:
    """The canonical text form: elements sorted by id, attributes in a fixed
    order, defaults omitted. Saving the same value twice is byte-identical.

    Every value was checked where it was built, as load checks it, so save
    only writes. It refuses, with a :class:`ScenarioValidationError`, only
    an id, name or other text field that is not a ``str`` and a character
    XML cannot hold. So the text written loads back equal, but for the
    description, which load strips."""
    out: list[str] = []
    out.append(_element("scenario", _SCENARIO,
                        {"name": scenario.name, "clock_hz": scenario.clock_hz}, end=">"))
    # Loading strips the description, so saving writes it stripped.
    description = scenario.description.strip()
    if description:
        out.append(f"  <description>{_escape(description)}</description>")

    graph = scenario.graph
    out.append("  " + _element("application", _APPLICATION,
                               {"reference_actor": graph.reference_actor}, end=">"))
    # Ids sort as text, so one of another type is refused by its row, not by
    # the sort.
    for actor in sorted(graph.actors, key=lambda a: str(a.id)):
        # Two exceptions to leaving defaults out: exec-time="0" is written,
        # and name only when it differs from the id.
        name = actor.name if actor.name != actor.id else ""
        out.append("    " + _element("actor", _ACTOR, {**vars(actor), "name": name},
                                     keep=("exec_time",)))
    for channel in sorted(graph.channels, key=lambda c: str(c.id)):
        out.append("    " + _element("channel", _CHANNEL, vars(channel)))
    out.append("  </application>")

    platform, mapping = scenario.platform, scenario.mapping
    if platform is not None:
        out.append("  <platform>")
        for tile in sorted(platform.tiles, key=lambda t: str(t.id)):
            out.append("    " + _element("tile", _TILE, vars(tile)))
        for conn in sorted(platform.connections, key=lambda c: str(c.id)):
            out.append("    " + _element("connection", _CONNECTION, vars(conn)))
        out.append("  </platform>")

    if mapping is not None:
        out.append("  <mapping>")
        for actor_id in sorted(mapping.actor_tile, key=str):
            place = {"actor": actor_id, "tile": mapping.actor_tile[actor_id],
                     "tdma_slice": mapping.tdma_slice.get(actor_id)}
            out.append("    " + _element("place", _PLACE, place))
        for channel_id in sorted(mapping.channel_binding, key=str):
            binding = mapping.channel_binding[channel_id]
            bind = {**vars(binding), "channel": channel_id,
                    "prefetch": binding.kind == BindingKind.PREFETCH}
            out.append("    " + _element("bind", _BIND, bind))
        out.append("  </mapping>")

    defaults = _element("defaults", _DEFAULTS, vars(scenario.defaults))
    if defaults != "<defaults/>":
        out.append("  " + defaults)
    out.append("</scenario>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ExplorationReport:
    scenario: str
    clock_hz: Fraction
    baseline: ThroughputResult
    candidates: tuple[MigrationCandidate, ...] = ()


def emit_report(report: ExplorationReport, format: str = "text") -> bytes:
    """Render an exploration as a deterministic byte stream: a readable table
    or CSV with header actor,fps_before,fps_after,gain_fps. Any other format
    raises :class:`UnknownReportFormatError`."""
    fps_before = to_frames_per_second(report.baseline, report.clock_hz)
    if format == "csv":
        lines = ["actor,fps_before,fps_after,gain_fps"]
        for candidate in report.candidates:
            if candidate.error is None:
                lines.append(f"{candidate.actor},{fps_before},"
                             f"{candidate.fps_after},{candidate.gain_fps}")
            else:
                lines.append(f"{candidate.actor},{fps_before},,")
        return ("\n".join(lines) + "\n").encode()
    if format != "text":
        raise UnknownReportFormatError(f"unknown report format {format!r}")
    lines = [f"scenario: {report.scenario}",
             f"throughput without migration (f/s): {fps_before}"]
    if report.candidates:
        lines.append("")
        width = max(len("actor"), *(len(c.actor) for c in report.candidates))
        lines.append(f"{'actor':<{width}}  with migration (f/s)  gain (f/s)")
        for candidate in report.candidates:
            if candidate.error is None:
                lines.append(f"{candidate.actor:<{width}}  "
                             f"{str(candidate.fps_after):>20}  "
                             f"{str(candidate.gain_fps):>10}")
            else:
                lines.append(f"{candidate.actor:<{width}}  failed: {candidate.error}")
    return ("\n".join(lines) + "\n").encode()


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. ``mjpeg_base``)."""
    from importlib.resources import files

    resource = files("sdfmig") / "scenarios" / f"{name}.xml"
    with_path = Path(str(resource))
    if not with_path.exists():
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return with_path


def list_bundled_scenarios() -> list[str]:
    from importlib.resources import files

    folder = files("sdfmig") / "scenarios"
    return sorted(p.stem for p in Path(str(folder)).glob("*.xml"))
