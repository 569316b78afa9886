"""Scenario files: application graph, platform, mapping and migration
defaults in one self-describing XML document, plus report emission.

Numeric attributes are parsed exactly (a bandwidth of 0.00406278 stays the
rational 203139/50000000); serialization is canonical, so saving the same
scenario twice produces identical bytes. An import shim reads the
application-graph subset of SDF3-style XML files.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .analysis import DEFAULT_CLOCK_HZ, ThroughputResult, to_frames_per_second
from .errors import (
    InvalidBindingError,
    ScenarioParseError,
    ScenarioValidationError,
    UnknownReportFormatError,
)
from .graph import Actor, ActorKind, Channel, SDFG, validate
from .migration import MigrationCandidate, MigrationSpec, spec_range_error
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


@dataclass(frozen=True)
class Scenario:
    """Everything one analysis run needs. ``platform`` and ``mapping`` are
    optional for graph-only scenarios (the graph is then analyzed as-is)."""

    name: str
    graph: SDFG
    platform: Platform | None = None
    mapping: PlatformMapping | None = None
    defaults: MigrationSpec = field(default_factory=MigrationSpec)
    description: str = ""
    clock_hz: Fraction = DEFAULT_CLOCK_HZ


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

    def where(self) -> tuple[int, int]:
        return self.line, self.column


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
        raise ScenarioParseError(str(exc), line=exc.lineno, column=exc.offset) from exc
    if not root:
        raise ScenarioParseError("empty document")
    return root[0]


# Attributes each element accepts; anything else is an unknown attribute.
_SCENARIO_ATTRS = frozenset({"name", "clock-hz"})
_APPLICATION_ATTRS = frozenset({"reference-actor"})
_ACTOR_ATTRS = frozenset({"id", "exec-time", "kind", "name"})
_CHANNEL_ATTRS = frozenset({"id", "src", "dst", "prod-rate", "cons-rate",
                            "initial-tokens", "token-size"})
_TILE_ATTRS = frozenset({"id", "kind", "tdma-wheel"})
_CONNECTION_ATTRS = frozenset({"id", "src-tile", "dst-tile", "latency", "bandwidth"})
_PLACE_ATTRS = frozenset({"actor", "tile", "tdma-slice"})
_BIND_ATTRS = frozenset({"channel", "connection", "prefetch", "buffer-tokens",
                         "alpha-src", "alpha-dst", "latency-bound", "prefetch-time"})
_DEFAULTS_ATTRS = frozenset({"speedup", "prefetch-time", "hw-connection",
                             "hw-buffer-tokens", "alpha-src", "alpha-dst"})
_SDF3_CHANNEL_ATTRS = frozenset({"name", "srcActor", "srcPort", "dstActor", "dstPort",
                                 "initialTokens", "size"})


class _Reader:
    """Attribute access with position-aware errors and exact number parsing."""

    def __init__(self, node: _Node, allowed: frozenset[str]):
        self.node = node
        if not node.attrib.keys() <= allowed:
            unknown = sorted(set(node.attrib) - allowed)[0]
            line, column = node.where()
            raise ScenarioParseError(f"unknown attribute {unknown!r} on <{node.tag}>",
                                     line=line, column=column)

    def fail(self, message: str):
        line, column = self.node.where()
        raise ScenarioParseError(f"<{self.node.tag}>: {message}",
                                 line=line, column=column)

    def text(self, name: str, default: str | None = None) -> str:
        value = self.node.attrib.get(name, default)
        if value is None:
            self.fail(f"missing attribute {name!r}")
        return value

    def integer(self, name: str, default: int | None = None,
                minimum: int | None = None) -> int | None:
        raw = self.node.attrib.get(name)
        if raw is None:
            return default
        try:
            value = parse_plain_integer(raw)
        except ValueError:
            self.fail(f"attribute {name!r} must be an integer, got {raw!r}")
        if minimum is not None and value < minimum:
            self.fail(f"attribute {name!r} must be at least {minimum}, got {value}")
        return value

    def rational(self, name: str, default: Fraction | None = None) -> Fraction:
        raw = self.node.attrib.get(name)
        if raw is None:
            if default is None:
                self.fail(f"missing attribute {name!r}")
            return default
        try:
            return parse_rational(raw)
        except ValueError:
            self.fail(f"attribute {name!r} must be a number, got {raw!r}")


def _expect_children(node: _Node, allowed: set[str]) -> None:
    for child in node.children:
        if child.tag not in allowed:
            line, column = child.where()
            raise ScenarioParseError(
                f"unknown element <{child.tag}> inside <{node.tag}>",
                line=line, column=column)


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
        scenario = Scenario(name=Path(path).stem, graph=_read_sdf3(root))
        _validate_scenario(scenario)
        return scenario
    if root.tag != "scenario":
        line, column = root.where()
        raise ScenarioParseError(f"expected <scenario> root, got <{root.tag}>",
                                 line=line, column=column)
    reader = _Reader(root, _SCENARIO_ATTRS)
    name = reader.text("name", Path(path).stem)
    clock = reader.rational("clock-hz", DEFAULT_CLOCK_HZ)
    if clock <= 0:
        reader.fail(f"attribute 'clock-hz' must be positive, got {format_rational(clock)}")
    _expect_children(root, {"description", "application", "platform", "mapping",
                            "defaults"})

    description = ""
    graph: SDFG | None = None
    platform: Platform | None = None
    mapping: PlatformMapping | None = None
    defaults = MigrationSpec()
    defaults_node: _Node | None = None
    for child in root.children:
        if child.tag == "description":
            description = child.text.strip()
        elif child.tag == "application":
            graph = _read_application(child)
        elif child.tag == "platform":
            platform = _read_platform(child)
        elif child.tag == "mapping":
            mapping = _read_mapping(child)
        elif child.tag == "defaults":
            defaults, defaults_node = _read_defaults(child), child
    if graph is None:
        line, column = root.where()
        raise ScenarioParseError("scenario has no <application>", line=line,
                                 column=column)
    if mapping is not None and platform is None:
        line, column = root.where()
        raise ScenarioParseError("scenario has a <mapping> but no <platform>",
                                 line=line, column=column)
    connection = defaults.hw_connection
    if connection is not None and (platform is None
                                   or connection not in platform.connection_map):
        _Reader(defaults_node, _DEFAULTS_ATTRS).fail(
            f"attribute 'hw-connection' names no connection of the platform, "
            f"got {connection!r}")

    scenario = Scenario(name=name, graph=graph, platform=platform,
                        mapping=mapping, defaults=defaults,
                        description=description, clock_hz=clock)
    _validate_scenario(scenario)
    return scenario


def _validate_scenario(scenario: Scenario) -> None:
    diagnostics = list(validate(scenario.graph))
    if scenario.mapping is not None and scenario.platform is not None:
        diagnostics += validate_mapping(scenario.graph, scenario.platform,
                                        scenario.mapping)
    if diagnostics:
        raise ScenarioValidationError(
            "; ".join(str(d) for d in diagnostics), diagnostics=tuple(diagnostics))


def _read_application(node: _Node) -> SDFG:
    _Reader(node, _APPLICATION_ATTRS)
    _expect_children(node, {"actor", "channel"})
    actors: list[Actor] = []
    channels: list[Channel] = []
    for child in node.children:
        if child.tag == "actor":
            r = _Reader(child, _ACTOR_ATTRS)
            kind_text = r.text("kind", ActorKind.SOFTWARE.value)
            try:
                kind = ActorKind(kind_text)
            except ValueError:
                r.fail(f"unknown actor kind {kind_text!r}")
            actors.append(Actor(
                id=r.text("id"),
                exec_time=r.integer("exec-time", 0),
                kind=kind,
                name=r.text("name", "") or r.text("id"),
            ))
        else:
            r = _Reader(child, _CHANNEL_ATTRS)
            channels.append(Channel(
                id=r.text("id"),
                src=r.text("src"),
                dst=r.text("dst"),
                prod_rate=r.integer("prod-rate", 1),
                cons_rate=r.integer("cons-rate", 1),
                initial_tokens=r.integer("initial-tokens", 0),
                token_size=r.integer("token-size", 0, minimum=0),
            ))
    return SDFG(actors=actors, channels=channels,
                reference_actor=node.attrib.get("reference-actor"))


def _read_platform(node: _Node) -> Platform:
    _Reader(node, frozenset())
    _expect_children(node, {"tile", "connection"})
    tiles: list[Tile] = []
    connections: list[NocConnection] = []
    for child in node.children:
        if child.tag == "tile":
            r = _Reader(child, _TILE_ATTRS)
            kind_text = r.text("kind", TileKind.PROCESSOR.value)
            try:
                kind = TileKind(kind_text)
            except ValueError:
                r.fail(f"unknown tile kind {kind_text!r}")
            tiles.append(Tile(
                id=r.text("id"), kind=kind,
                tdma_wheel=r.integer("tdma-wheel", 0, minimum=0),
            ))
        else:
            r = _Reader(child, _CONNECTION_ATTRS)
            bandwidth = r.rational("bandwidth")
            if bandwidth <= 0:
                r.fail("bandwidth must be positive")
            connections.append(NocConnection(
                id=r.text("id"),
                src_tile=r.text("src-tile"),
                dst_tile=r.text("dst-tile"),
                latency=r.integer("latency", 0, minimum=0),
                bandwidth=bandwidth,
            ))
    return Platform(tiles=tiles, connections=connections)


def _read_mapping(node: _Node) -> PlatformMapping:
    _Reader(node, frozenset())
    _expect_children(node, {"place", "bind"})
    actor_tile: dict[str, str] = {}
    tdma_slice: dict[str, int] = {}
    bindings: dict[str, ChannelBinding] = {}
    for child in node.children:
        if child.tag == "place":
            r = _Reader(child, _PLACE_ATTRS)
            actor = r.text("actor")
            actor_tile[actor] = r.text("tile")
            slice_cycles = r.integer("tdma-slice", minimum=0)
            if slice_cycles is not None:
                tdma_slice[actor] = slice_cycles
        else:
            r = _Reader(child, _BIND_ATTRS)
            channel = r.text("channel")
            prefetch = r.text("prefetch", "false")
            if prefetch not in ("true", "false"):
                r.fail("prefetch must be 'true' or 'false'")
            connection = child.attrib.get("connection")
            kind = (BindingKind.PREFETCH if prefetch == "true" else
                    BindingKind.LOCAL if connection is None else BindingKind.REMOTE)
            try:
                bindings[channel] = ChannelBinding(
                    kind=kind,
                    connection=connection,
                    buffer_tokens=r.integer("buffer-tokens"),
                    alpha_src=r.integer("alpha-src"),
                    alpha_dst=r.integer("alpha-dst"),
                    latency_bound=r.integer("latency-bound"),
                    prefetch_time=r.integer("prefetch-time"),
                )
            except InvalidBindingError as exc:
                r.fail(f"attribute {exc.field.replace('_', '-')!r} {exc.rule}")
    return PlatformMapping(actor_tile=actor_tile, tdma_slice=tdma_slice,
                           channel_binding=bindings)


def _read_defaults(node: _Node) -> MigrationSpec:
    r = _Reader(node, _DEFAULTS_ATTRS)
    _expect_children(node, set())
    base = MigrationSpec()
    spec = MigrationSpec(
        speedup=r.rational("speedup", base.speedup),
        prefetch_time=r.integer("prefetch-time", base.prefetch_time),
        hw_connection=node.attrib.get("hw-connection"),
        hw_buffer_tokens=r.integer("hw-buffer-tokens"),
        alpha_src=r.integer("alpha-src", base.alpha_src),
        alpha_dst=r.integer("alpha-dst", base.alpha_dst),
    )
    problem = spec_range_error(spec)
    if problem is not None:
        field_name, rule = problem
        r.fail(f"attribute {field_name.replace('_', '-')!r} {rule}")
    return spec


# ---------------------------------------------------------------------------
# SDF3 application-graph import shim

def _read_sdf3(root: _Node) -> SDFG:
    """Read the application-graph subset of an SDF3-style file: actors with
    rated ports, channels wired port to port, execution times from the actor
    properties block."""

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
        line, column = node.where()
        try:
            value = parse_plain_integer(node.attrib.get(name, default))
        except ValueError:
            raise ScenarioParseError(f"{what} must be an integer",
                                     line=line, column=column) from None
        if minimum is not None and value < minimum:
            raise ScenarioParseError(f"{what} must be at least {minimum}",
                                     line=line, column=column)
        return value

    port_rates: dict[tuple[str, str], int] = {}
    actor_nodes = find_all(root, "actor")
    channel_nodes = find_all(root, "channel")
    exec_times: dict[str, int] = {}
    for properties in find_all(root, "actorProperties"):
        actor_name = properties.attrib.get("actor", "")
        for timing in find_all(properties, "executionTime"):
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
            line, column = node.where()
            raise ScenarioParseError("actor without name", line=line, column=column)
        for port in node.children:
            if port.tag == "port":
                port_rates[(name, port.attrib.get("name", ""))] = integer(
                    port, "rate", "1", "port rate")
        actors.append(Actor(id=name, exec_time=exec_times.get(name, 0)))

    channels = []
    for node in channel_nodes:
        r = _Reader(node, _SDF3_CHANNEL_ATTRS)
        src, dst = r.text("srcActor"), r.text("dstActor")
        name = r.text("name")
        channels.append(Channel(
            id=name, src=src, dst=dst,
            prod_rate=port_rates.get((src, r.text("srcPort", "")), 1),
            cons_rate=port_rates.get((dst, r.text("dstPort", "")), 1),
            initial_tokens=r.integer("initialTokens", 0),
            token_size=token_sizes.get(name, 0),
        ))
    return SDFG(actors=actors, channels=channels)


# ---------------------------------------------------------------------------
# saving

def save_scenario(scenario: Scenario, path) -> None:
    """Write the canonical text form: elements sorted by id, attributes in a
    fixed order, defaults omitted. Saving the same value twice is
    byte-identical."""
    Path(path).write_text(scenario_to_text(scenario), encoding="utf-8")


_NEEDS_ESCAPE = frozenset('&<>"\n\r\t')


def _escape(text: str) -> str:
    """Character data with ``&``, ``<`` and ``>`` escaped, as
    ``xml.sax.saxutils.escape`` does, and ``\r`` written as ``&#13;``, which
    a parser would otherwise read back as ``\n``."""
    return (text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            .replace("\r", "&#13;"))


def _quote(value: str) -> str:
    """An attribute value quoted and escaped exactly as
    ``xml.sax.saxutils.quoteattr`` does: in double quotes, or in single
    quotes when it holds ``"`` but no ``'``."""
    if _NEEDS_ESCAPE.isdisjoint(value):
        return f'"{value}"'
    value = _escape(value).replace("\n", "&#10;").replace("\t", "&#9;")
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


def scenario_to_text(scenario: Scenario) -> str:
    out: list[str] = []
    head = [f"name={_quote(scenario.name)}"]
    if scenario.clock_hz != DEFAULT_CLOCK_HZ:
        head.append(f"clock-hz={_quote(format_rational(scenario.clock_hz))}")
    out.append(f"<scenario {' '.join(head)}>")
    # Loading strips the description, so saving writes it stripped.
    description = scenario.description.strip()
    if description:
        out.append(f"  <description>{_escape(description)}</description>")

    graph = scenario.graph
    ref = (f" reference-actor={_quote(graph.reference_actor)}"
           if graph.reference_actor else "")
    out.append(f"  <application{ref}>")
    for actor in sorted(graph.actors, key=lambda a: a.id):
        attrs = [f"id={_quote(actor.id)}", f'exec-time="{actor.exec_time}"']
        if actor.kind != ActorKind.SOFTWARE:
            attrs.append(f"kind={_quote(actor.kind.value)}")
        if actor.name != actor.id:
            attrs.append(f"name={_quote(actor.name)}")
        out.append(f"    <actor {' '.join(attrs)}/>")
    for channel in sorted(graph.channels, key=lambda c: c.id):
        attrs = [f"id={_quote(channel.id)}",
                 f"src={_quote(channel.src)}",
                 f"dst={_quote(channel.dst)}"]
        if channel.prod_rate != 1:
            attrs.append(f'prod-rate="{channel.prod_rate}"')
        if channel.cons_rate != 1:
            attrs.append(f'cons-rate="{channel.cons_rate}"')
        if channel.initial_tokens:
            attrs.append(f'initial-tokens="{channel.initial_tokens}"')
        if channel.token_size:
            attrs.append(f'token-size="{channel.token_size}"')
        out.append(f"    <channel {' '.join(attrs)}/>")
    out.append("  </application>")

    if scenario.platform is not None:
        out.append("  <platform>")
        for tile in sorted(scenario.platform.tiles, key=lambda t: t.id):
            attrs = [f"id={_quote(tile.id)}"]
            if tile.kind != TileKind.PROCESSOR:
                attrs.append(f"kind={_quote(tile.kind.value)}")
            if tile.tdma_wheel:
                attrs.append(f'tdma-wheel="{tile.tdma_wheel}"')
            out.append(f"    <tile {' '.join(attrs)}/>")
        for conn in sorted(scenario.platform.connections, key=lambda c: c.id):
            attrs = [f"id={_quote(conn.id)}",
                     f"src-tile={_quote(conn.src_tile)}",
                     f"dst-tile={_quote(conn.dst_tile)}"]
            if conn.latency:
                attrs.append(f'latency="{conn.latency}"')
            attrs.append(f"bandwidth={_quote(format_rational(conn.bandwidth))}")
            out.append(f"    <connection {' '.join(attrs)}/>")
        out.append("  </platform>")

    if scenario.mapping is not None:
        out.append("  <mapping>")
        mapping = scenario.mapping
        for actor_id in sorted(mapping.actor_tile):
            attrs = [f"actor={_quote(actor_id)}",
                     f"tile={_quote(mapping.actor_tile[actor_id])}"]
            if actor_id in mapping.tdma_slice:
                attrs.append(f'tdma-slice="{mapping.tdma_slice[actor_id]}"')
            out.append(f"    <place {' '.join(attrs)}/>")
        for channel_id in sorted(mapping.channel_binding):
            binding = mapping.channel_binding[channel_id]
            attrs = [f"channel={_quote(channel_id)}"]
            if binding.kind == BindingKind.PREFETCH:
                attrs.append('prefetch="true"')
            if binding.kind != BindingKind.LOCAL:
                attrs.append(f"connection={_quote(binding.connection)}")
            for label, value in (("buffer-tokens", binding.buffer_tokens),
                                 ("alpha-src", binding.alpha_src),
                                 ("alpha-dst", binding.alpha_dst),
                                 ("latency-bound", binding.latency_bound),
                                 ("prefetch-time", binding.prefetch_time)):
                if value is not None:
                    attrs.append(f'{label}="{value}"')
            out.append(f"    <bind {' '.join(attrs)}/>")
        out.append("  </mapping>")

    defaults, base = scenario.defaults, MigrationSpec()
    attrs = []
    if defaults.speedup != base.speedup:
        attrs.append(f"speedup={_quote(format_rational(defaults.speedup))}")
    if defaults.prefetch_time != base.prefetch_time:
        attrs.append(f'prefetch-time="{defaults.prefetch_time}"')
    if defaults.hw_connection is not None:
        attrs.append(f"hw-connection={_quote(defaults.hw_connection)}")
    if defaults.hw_buffer_tokens is not None:
        attrs.append(f'hw-buffer-tokens="{defaults.hw_buffer_tokens}"')
    if defaults.alpha_src != base.alpha_src:
        attrs.append(f'alpha-src="{defaults.alpha_src}"')
    if defaults.alpha_dst != base.alpha_dst:
        attrs.append(f'alpha-dst="{defaults.alpha_dst}"')
    if attrs:
        out.append(f"  <defaults {' '.join(attrs)}/>")
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
