import random
import re
from fractions import Fraction
from xml.sax.saxutils import escape, quoteattr

import pytest

from helpers import SDF3_APP, random_scenario
from sdfmig.errors import (
    InvalidBindingError,
    InvalidMigrationSpecError,
    ScenarioParseError,
    ScenarioValidationError,
    SdfmigError,
    UnknownReportFormatError,
)
from sdfmig.graph import SDFG, Actor, ActorKind, Channel
from sdfmig.mpsoc import (
    BindingKind,
    ChannelBinding,
    NocConnection,
    Platform,
    PlatformMapping,
    Tile,
    TileKind,
)
from sdfmig.migration import MigrationCandidate, MigrationSpec, migrate_task
from sdfmig.analysis import self_timed_throughput
from sdfmig.scenario import (
    _ACTOR,
    _BIND,
    _CHANNEL,
    _CONNECTION,
    _DEFAULTS,
    _PLACE,
    _TILE,
    ExplorationReport,
    Scenario,
    _escape,
    _quote,
    bundled_scenario_path,
    emit_report,
    list_bundled_scenarios,
    load_scenario,
    save_scenario,
    scenario_to_text,
)
from sdfmig.transforms import build_bound_graph


def load_mjpeg():
    return load_scenario(bundled_scenario_path("mjpeg_base"))


def test_bundled_scenarios_present():
    assert "mjpeg_base" in list_bundled_scenarios()
    assert "two_stage_demo" in list_bundled_scenarios()


def test_load_mjpeg_base_structure():
    s = load_mjpeg()
    assert s.name == "mjpeg_base"
    assert len(s.graph.actors) == 6
    assert len(s.graph.channels) == 5
    assert len(s.platform.tiles) == 3
    assert len(s.platform.connections) == 2
    assert s.clock_hz == Fraction(100_000_000)
    assert s.platform.connection("n1").bandwidth == Fraction("0.00406278")
    assert s.graph.channel_map["vld_izz"].prod_rate == 12
    assert s.mapping.channel_binding["izz_iq"].alpha_dst == 1


def test_round_trip_bundled_fixtures(tmp_path):
    for name in list_bundled_scenarios():
        original = load_scenario(bundled_scenario_path(name))
        target = tmp_path / f"{name}.xml"
        save_scenario(original, target)
        assert load_scenario(target) == original
        again = tmp_path / f"{name}2.xml"
        save_scenario(load_scenario(target), again)
        assert target.read_bytes() == again.read_bytes()


def test_round_trip_random_scenarios(tmp_path):
    rng = random.Random(31)
    for i in range(20):
        graph, platform, mapping = random_scenario(rng)
        scenario = Scenario(name=f"random{i}", graph=graph, platform=platform,
                            mapping=mapping,
                            defaults=MigrationSpec(prefetch_time=rng.randint(0, 99)))
        target = tmp_path / "s.xml"
        save_scenario(scenario, target)
        assert load_scenario(target) == scenario


def test_round_trip_post_migration_scenario(tmp_path):
    s = load_mjpeg()
    migrated = migrate_task(s.graph, s.platform, s.mapping,
                            MigrationSpec(actor="IDCT"))
    after = Scenario(name="mjpeg_idct", graph=migrated.graph,
                     platform=migrated.platform)
    target = tmp_path / "m.xml"
    save_scenario(after, target)
    reloaded = load_scenario(target)
    assert reloaded == after
    kinds = {a.kind for a in reloaded.graph.actors}
    assert ActorKind.INFRASTRUCTURE in kinds and ActorKind.HARDWARE in kinds
    # the reloaded analysis graph behaves identically
    assert self_timed_throughput(reloaded.graph) == self_timed_throughput(migrated.graph)


def test_load_rejects_negative_tokens(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("""<scenario name="bad">
  <application>
    <actor id="A" exec-time="1"/>
    <channel id="c" src="A" dst="A" initial-tokens="-1"/>
  </application>
</scenario>""")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(bad)
    assert any(d.code == "NegativeTokens" for d in err.value.diagnostics)


def test_load_rejects_unknown_element_with_position(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("""<scenario name="bad">
  <application>
    <actor id="A" exec-time="1"/>
    <mystery/>
  </application>
</scenario>""")
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(bad)
    assert "mystery" in str(err.value)
    assert err.value.line == 4


def test_load_rejects_unknown_attribute(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text('<scenario name="bad" speed="11">\n'
                   '  <application><actor id="A" exec-time="1"/></application>\n'
                   '</scenario>')
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(bad)
    assert "speed" in str(err.value)


def test_load_reports_malformed_xml_position(tmp_path):
    # Columns count from 1, as for every element error, and the position is
    # printed once: a mismatched tag used to read "mismatched tag: line 4,
    # column 5 (line 4, column 5)". A document without a root element is
    # refused by the parser itself.
    bad = tmp_path / "bad.xml"
    for text, line, column, message in [
            ("<scenario name='x'>\n  <application>\n", 3, 1, "no element found"),
            ("<scenario name='x'>\n  <application>\n  </application>\n   </platform>\n",
             4, 6, "mismatched tag"),
            ("", 1, 1, "no element found"),
            (" \n  ", 2, 3, "no element found"),
            ('<?xml version="1.0"?>', 1, 22, "no element found"),
            ("<!-- x -->", 1, 11, "no element found")]:
        bad.write_text(text)
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(bad)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"{message} (line {line}, column {column})"


@pytest.mark.parametrize("attribute, value", [
    ("speedup", "0"),
    ("prefetch-time", "-1"),
    ("hw-buffer-tokens", "-1"),
    ("alpha-src", "0"),
    ("alpha-dst", "0"),
])
def test_load_rejects_out_of_range_defaults(tmp_path, attribute, value):
    # The same ranges migrate_task enforces, reported where the value is.
    text = bundled_scenario_path("two_stage_demo").read_text()
    bad = tmp_path / "bad.xml"
    bad.write_text(text.replace('<defaults prefetch-time="20"/>',
                                f'<defaults {attribute}="{value}"/>'))
    with pytest.raises(ScenarioParseError, match=f"attribute '{attribute}'") as err:
        load_scenario(bad)
    assert (err.value.line, err.value.column) == (20, 3)


@pytest.mark.parametrize("attribute, original, line", [
    ("tdma-slice", 'tdma-slice="50000"', 40),
    ("tdma-wheel", 'tdma-wheel="100000"', 33),
    ("latency", 'latency="3"', 36),
    ("latency-bound", 'latency-bound="100000"', 47),
    ("token-size", 'token-size="1024"', 26),
    ("buffer-tokens", 'buffer-tokens="13"', 46),
    ("prefetch-time", 'buffer-tokens="2"', 48),
])
def test_load_rejects_negative_integer_attributes(tmp_path, attribute, original, line):
    # Each of these ends up as a cycle count, a byte count or a token count.
    # A negative one used to give a wrong figure (tdma-slice) or an error
    # naming a generated actor, not the attribute.
    text = bundled_scenario_path("mjpeg_base").read_text()
    assert original in text
    edited = tmp_path / "edited.xml"
    for value in ("0", "-1"):
        # Only a prefetch bind reads prefetch-time, so that case turns the
        # local iq_idct bind into one.
        replacement = (f'prefetch="true" connection="n1" {original} prefetch-time="{value}"'
                       if attribute == "prefetch-time" else f'{attribute}="{value}"')
        edited.write_text(text.replace(original, replacement, 1))
        if value == "0":
            try:
                load_scenario(edited)
            except ScenarioValidationError:
                # In range. A zero wheel is then too small for its slices, and
                # n1 does not join the tiles of iq_idct.
                pass
            continue
        with pytest.raises(ScenarioParseError,
                           match=f"attribute '{attribute}' must be at least 0, got -1"
                           ) as err:
            load_scenario(edited)
        assert (err.value.line, err.value.column) == (line, 5)


@pytest.mark.parametrize("attribute, original", [
    pytest.param("alpha-src", 'alpha-src="2"', id="alpha-src"),
    pytest.param("alpha-dst", 'alpha-dst="1"', id="alpha-dst"),
])
def test_load_rejects_bind_alpha_below_one(tmp_path, attribute, original):
    # A chain with no buffer space used to load and then deadlock.
    text = bundled_scenario_path("mjpeg_base").read_text()
    assert original in text  # first on the izz_iq binding, line 47
    edited = tmp_path / "edited.xml"
    for value in ("1", "0", "-1"):
        edited.write_text(text.replace(original, f'{attribute}="{value}"', 1))
        if value == "1":
            load_scenario(edited)
            continue
        with pytest.raises(ScenarioParseError,
                           match=f"attribute '{attribute}' must be at least 1, got {value}"
                           ) as err:
            load_scenario(edited)
        assert (err.value.line, err.value.column) == (47, 5)


@pytest.mark.parametrize("original, edited, message, line", [
    pytest.param('buffer-tokens="13"', 'buffer-tokens="13" alpha-src="2"',
                 "attribute 'alpha-src' is not read by a local binding", 46,
                 id="alpha-src-on-local"),
    pytest.param('latency-bound="100000"', 'latency-bound="100000" buffer-tokens="4"',
                 "attribute 'buffer-tokens' is not read by a remote binding", 47,
                 id="buffer-tokens-on-remote"),
    pytest.param('connection="n1"', 'prefetch="true"',
                 "attribute 'connection' is required by a prefetch binding", 47,
                 id="prefetch-without-connection"),
    pytest.param('connection="n1"', 'prefetch="yes" connection="n1"',
                 "prefetch must be 'true' or 'false'", 47, id="prefetch-not-a-bool"),
])
def test_load_rejects_bind_attribute_its_kind_never_reads(tmp_path, original, edited,
                                                          message, line):
    # Such attributes used to load and then change nothing.
    text = bundled_scenario_path("mjpeg_base").read_text()
    assert original in text
    bad = tmp_path / "bad.xml"
    bad.write_text(text.replace(original, edited, 1))
    with pytest.raises(ScenarioParseError, match=message) as err:
        load_scenario(bad)
    assert (err.value.line, err.value.column) == (line, 5)


@pytest.mark.parametrize("kwargs, field", [
    pytest.param({"kind": BindingKind.REMOTE}, "connection", id="remote-no-connection"),
    pytest.param({"kind": BindingKind.PREFETCH}, "connection", id="prefetch-no-connection"),
    pytest.param({"connection": "n1"}, "connection", id="local-with-connection"),
    pytest.param({"alpha_src": 2}, "alpha_src", id="local-with-alpha"),
    pytest.param({"kind": BindingKind.REMOTE, "connection": "n1", "prefetch_time": 5},
                 "prefetch_time", id="remote-with-prefetch-time"),
    pytest.param({"kind": BindingKind.PREFETCH, "connection": "n1", "latency_bound": 5},
                 "latency_bound", id="prefetch-with-latency-bound"),
    pytest.param({"kind": "remote", "connection": "n1"}, "kind", id="kind-not-enum"),
])
def test_channel_binding_rejects_fields_its_kind_does_not_take(kwargs, field):
    with pytest.raises(InvalidBindingError) as err:
        ChannelBinding(**kwargs)
    assert err.value.field == field


SDF3_A_TIME = """<processor type="arm" default="true">
          <executionTime time="100"/>
        </processor>"""
SDF3_DSP = """
        <processor type="dsp">
          <executionTime time="50"/>
        </processor>"""


def _without(element):
    """mjpeg_base without its ``<element>`` block."""
    text = bundled_scenario_path("mjpeg_base").read_text()
    return re.sub(f"  <{element}.*</{element}>\n", "", text, flags=re.S)


def _twice(element):
    """mjpeg_base with its ``<element>`` block written twice in a row."""
    text = bundled_scenario_path("mjpeg_base").read_text()
    block = re.search(f"  <{element}.*</{element}>\n", text, flags=re.S).group()
    return text.replace(block, block * 2)


def _edited(old, new):
    """mjpeg_base with ``old`` replaced by ``new``."""
    return bundled_scenario_path("mjpeg_base").read_text().replace(old, new)


@pytest.mark.parametrize("text, message, line, column", [
    pytest.param(bundled_scenario_path("mjpeg_base").read_text().replace(
                     '<tile id="T2"', '<tile id="T2" kind="fpga"'),
                 "<tile>: unknown tile kind 'fpga'", 34, 5, id="tile-kind"),
    pytest.param(bundled_scenario_path("mjpeg_base").read_text().replace(
                     '<actor id="IQ"', '<actor id="IQ" kind="firmware"'),
                 "<actor>: unknown actor kind 'firmware'", 22, 5, id="actor-kind"),
    pytest.param(bundled_scenario_path("mjpeg_base").read_text().replace(
                     'bandwidth="0.00406278"', 'bandwidth="0"'),
                 "<connection>: bandwidth must be positive", 36, 5, id="bandwidth-zero"),
    pytest.param("<platform/>", "expected <scenario> root, got <platform>", 1, 1,
                 id="root"),
    pytest.param(_without("application"), "scenario has no <application>", 1, 1,
                 id="no-application"),
    pytest.param(_without("platform"), "scenario has a <mapping> but no <platform>", 1, 1,
                 id="mapping-without-platform"),
    pytest.param(SDF3_APP.replace('<actor name="B" type="b">', '<actor type="b">'),
                 "actor without name", 8, 7, id="sdf3-actor-without-name"),
    # A second singleton element used to replace the first without a word.
    *[pytest.param(_twice(element), f"second <{element}> inside <scenario>", line, 3,
                   id=f"second-{element}")
      for element, line in [("description", 19), ("application", 32), ("platform", 39),
                            ("mapping", 52)]],
    pytest.param(_edited("</scenario>", "  <defaults/>\n  <defaults/>\n</scenario>"),
                 "second <defaults> inside <scenario>", 53, 3, id="second-defaults"),
    pytest.param(_edited("  </mapping>", "    <x/>\n  </mapping>"),
                 "unknown element <x> inside <mapping>", 51, 5, id="unknown-in-mapping"),
    pytest.param(_edited("</scenario>", "  <defaults><x/></defaults>\n</scenario>"),
                 "unknown element <x> inside <defaults>", 52, 13, id="unknown-in-defaults"),
    # Two processors and none marked default leave A no one execution time.
    pytest.param(SDF3_APP.replace(SDF3_A_TIME, SDF3_A_TIME.replace(' default="true"', "")
                                  + SDF3_DSP),
                 "actor 'A': expected one <processor> or one marked default, got 2 with "
                 "0 marked", 16, 7, id="sdf3-no-default-processor"),
])
def test_load_refuses_a_malformed_structure(tmp_path, text, message, line, column):
    bad = tmp_path / "bad.xml"
    bad.write_text(text)
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(bad)
    assert str(err.value) == f"{message} (line {line}, column {column})"


def test_load_rejects_tile_clock_attribute(tmp_path):
    # Nothing reads a tile clock; the scenario's clock-hz sets the frame rate.
    text = bundled_scenario_path("mjpeg_base").read_text()
    bad = tmp_path / "bad.xml"
    bad.write_text(text.replace('<tile id="T2" tdma-wheel="100000"/>',
                                '<tile id="T2" tdma-wheel="100000" clock-hz="50e6"/>'))
    with pytest.raises(ScenarioParseError, match="unknown attribute 'clock-hz'") as err:
        load_scenario(bad)
    assert (err.value.line, err.value.column) == (34, 5)


def test_load_rejects_auto_concurrency_attribute(tmp_path):
    # Nothing reads it, so it is an unknown attribute like any other.
    bad = tmp_path / "bad.xml"
    bad.write_text('<scenario name="bad" auto-concurrency="bogus">\n'
                   '  <application><actor id="A" exec-time="1"/></application>\n'
                   '</scenario>')
    with pytest.raises(ScenarioParseError, match="unknown attribute 'auto-concurrency'"):
        load_scenario(bad)


def test_load_rejects_binding_mismatch(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("""<scenario name="bad">
  <application>
    <actor id="A" exec-time="1"/>
    <actor id="B" exec-time="1"/>
    <channel id="c" src="A" dst="B"/>
  </application>
  <platform>
    <tile id="T1" tdma-wheel="100"/>
    <tile id="T2" tdma-wheel="100"/>
    <connection id="n" src-tile="T1" dst-tile="T2" bandwidth="1"/>
  </platform>
  <mapping>
    <place actor="A" tile="T1" tdma-slice="10"/>
    <place actor="B" tile="T1" tdma-slice="10"/>
    <bind channel="c" connection="n"/>
  </mapping>
</scenario>""")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(bad)
    assert any(d.code == "BindingMismatch" for d in err.value.diagnostics)


@pytest.mark.parametrize("original, repeated, message, line", [
    pytest.param('<place actor="IZZ" tile="T1" tdma-slice="50000"/>',
                 '<place actor="IZZ" tile="T2" tdma-slice="10"/>',
                 "<place>: actor 'IZZ' is placed twice", 42, id="place"),
    pytest.param('<bind channel="vld_izz" buffer-tokens="13"/>',
                 '<bind channel="vld_izz" buffer-tokens="12"/>',
                 "<bind>: channel 'vld_izz' is bound twice", 47, id="bind"),
])
def test_load_rejects_repeated_mapping_entry(tmp_path, original, repeated, message, line):
    # The last entry used to win: a second vld_izz bind of 12 tokens gave
    # 12.87 f/s.
    text = bundled_scenario_path("mjpeg_base").read_text()
    assert original in text
    bad = tmp_path / "bad.xml"
    bad.write_text(text.replace(original, f"{original}\n    {repeated}"))
    with pytest.raises(ScenarioParseError, match=re.escape(message)) as err:
        load_scenario(bad)
    assert (err.value.line, err.value.column) == (line, 5)


@pytest.mark.parametrize("element, subject", [
    pytest.param('<tile id="T1" tdma-wheel="200000"/>', "T1", id="tile"),
    pytest.param('<connection id="n1" src-tile="T1" dst-tile="T2" latency="900000" '
                 'bandwidth="0.00001"/>', "n1", id="connection"),
])
def test_load_rejects_repeated_platform_id(tmp_path, element, subject):
    # The last one used to replace the first without a word: a second n1 gave
    # 0.08 f/s, a second T1 13.91 f/s.
    text = bundled_scenario_path("mjpeg_base").read_text()
    bad = tmp_path / "bad.xml"
    bad.write_text(text.replace("</platform>", f"  {element}\n  </platform>"))
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(bad)
    assert [(d.code, d.subject) for d in err.value.diagnostics] == [("DuplicateId", subject)]




def test_sdf3_import_shim(tmp_path):
    sdf3 = tmp_path / "app.xml"
    sdf3.write_text(SDF3_APP)
    scenario = load_scenario(sdf3)
    g = scenario.graph
    assert g.actor_map["A"].exec_time == 100
    assert g.actor_map["B"].exec_time == 70
    assert g.channel_map["ch1"].prod_rate == 2
    assert g.channel_map["ch1"].cons_rate == 3
    assert g.channel_map["ch1"].token_size == 512
    assert g.channel_map["ch2"].initial_tokens == 3
    assert scenario.platform is None and scenario.mapping is None


def test_sdf3_reads_the_default_processor(tmp_path):
    # The shim used to keep the last time it found: A loaded with 50.
    assert SDF3_A_TIME in SDF3_APP
    sdf3 = tmp_path / "app.xml"
    sdf3.write_text(SDF3_APP.replace(SDF3_A_TIME, SDF3_A_TIME + SDF3_DSP))
    assert load_scenario(sdf3).graph.actor_map["A"].exec_time == 100


def test_sdf3_rejects_non_integer_token_size(tmp_path):
    sdf3 = tmp_path / "app.xml"
    sdf3.write_text(SDF3_APP.replace('<tokenSize sz="512"/>', '<tokenSize sz="big"/>'))
    with pytest.raises(ScenarioParseError, match="tokenSize must be an integer") as err:
        load_scenario(sdf3)
    assert (err.value.line, err.value.column) == (27, 9)


def test_sdf3_rejects_negative_token_size(tmp_path):
    # The native form refuses a negative token-size, so a negative SDF3 size
    # would load but never load again once saved.
    sdf3 = tmp_path / "app.xml"
    sdf3.write_text(SDF3_APP.replace('<tokenSize sz="512"/>', '<tokenSize sz="-1"/>'))
    with pytest.raises(ScenarioParseError, match="tokenSize must be at least 0") as err:
        load_scenario(sdf3)
    assert (err.value.line, err.value.column) == (27, 9)


def test_sdf3_graph_faults_are_validation_errors(tmp_path):
    # ch2 consumes 3 tokens per firing of A, so the balance equations fail.
    sdf3 = tmp_path / "app.xml"
    sdf3.write_text(SDF3_APP.replace('<port name="in0" type="in" rate="2"/>',
                                     '<port name="in0" type="in" rate="3"/>'))
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(sdf3)
    assert [(d.code, d.subject) for d in err.value.diagnostics] == [("Inconsistent", "ch2")]
    assert str(err.value) == "; ".join(str(d) for d in err.value.diagnostics)


def unplain_forms(value: str) -> list[str]:
    """Forms of a decimal integer that ``int`` takes but a scenario does not:
    surrounding white space, a plus sign, a digit separator and non-ASCII
    digits."""
    return [f" {value} ", f"+{value}", f"0_{value}",
            value.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))]


@pytest.mark.parametrize("original, attribute, line", [
    pytest.param('exec-time="24791"', "exec-time", 21, id="actor"),
    pytest.param('prod-rate="12" token-size="1024"', "token-size", 26, id="channel"),
    pytest.param('alpha-src="2"', "alpha-src", 47, id="bind"),
])
def test_load_accepts_only_plain_integers(tmp_path, original, attribute, line):
    text = bundled_scenario_path("mjpeg_base").read_text()
    assert original in text
    value = original.rsplit('"', 2)[1]
    edited = tmp_path / "edited.xml"
    for form in unplain_forms(value):
        assert int(form) == int(value)
        edited.write_text(text.replace(original, original.replace(value, form), 1))
        with pytest.raises(ScenarioParseError,
                           match=f"attribute '{attribute}' must be an integer, got") as err:
            load_scenario(edited)
        assert (err.value.line, err.value.column) == (line, 5)


def test_sdf3_accepts_only_plain_integers(tmp_path):
    sdf3 = tmp_path / "app.xml"
    for original, message, line in [('<port name="out0" type="out" rate="3"/>',
                                      "port rate", 10),
                                     ('<executionTime time="100"/>', "executionTime", 18),
                                     ('<tokenSize sz="512"/>', "tokenSize", 27)]:
        assert original in SDF3_APP
        value = original.rsplit('"', 2)[1]
        for form in unplain_forms(value):
            sdf3.write_text(SDF3_APP.replace(original, original.replace(value, form)))
            with pytest.raises(ScenarioParseError, match=f"{message} must be an integer") as err:
                load_scenario(sdf3)
            assert err.value.line == line


QUOTING_SAMPLES = ["", "plain", "a b", 'say "hi"', "it's", """both ' and \"""",
                   "&", "a&b;", "<tag>", "x > y", "line\nbreak", "cr\rlf", "tab\tstop",
                   "&\"'<>\n\r\t", "\"'", "'\"", "naïve Ünïcödé", "漢字 \"引用\"",
                   "&amp;", "\u2028", "€'"]


@pytest.mark.parametrize("value", QUOTING_SAMPLES)
def test_quoting_matches_saxutils(value):
    assert _quote(value) == quoteattr(value)
    # Text escaping adds one entity, so a carriage return survives a reload.
    assert _escape(value) == escape(value, {"\r": "&#13;"})


def test_save_escapes_special_characters(tmp_path):
    for value in QUOTING_SAMPLES[1:]:
        scenario = Scenario(name=value, graph=load_mjpeg().graph)
        target = tmp_path / "s.xml"
        save_scenario(scenario, target)
        assert load_scenario(target) == scenario


@pytest.mark.parametrize("change, message", [
    # Save used to write alpha-src="True", which load refused.
    ({"defaults": {"alpha_src": True}},
     "<defaults>: attribute 'alpha-src' must be an int, got True"),
    ({"name": "bell\x07"}, "character '\\x07' cannot be written to a scenario file"),
    ({"clock_hz": Fraction(0)}, "<scenario>: attribute 'clock-hz' must be positive, got"),
    ({"mapping": load_mjpeg().mapping}, "a scenario with a mapping needs a platform"),
    ({"defaults": {"actor": "IQ"}}, "<defaults> cannot name an actor, got 'IQ'"),
    ({"description": 5}, "<description> must be a string, got 5"),
])
def test_save_refuses_what_load_refuses(change, message):
    # The spec (its fields given here) and the clock are refused where they
    # are built; save refuses only the text it cannot write. A spec field's
    # rule reads as the reader positions it.
    with pytest.raises(SdfmigError) as raised:
        if "defaults" in change:
            change = {**change, "defaults": MigrationSpec(**change["defaults"])}
        scenario_to_text(Scenario(**{"name": "s", "graph": load_mjpeg().graph, **change}))
    error = raised.value
    if isinstance(error, InvalidMigrationSpecError):
        error = f"<defaults>: attribute {error.field.replace('_', '-')!r} {error.rule}"
    else:
        assert isinstance(error, ScenarioValidationError)
    assert str(error).startswith(message)


@pytest.mark.parametrize("description", ["cr\rlf", " x ", "\r\n", "a\r\nb \t",
                                         "\t&<>\r\n\"'\n", "naïve\u2028"])
def test_description_save_load_save_is_byte_identical(tmp_path, description):
    # Saving writes the description stripped, as loading reads it.
    scenario = Scenario(name="d", graph=load_mjpeg().graph, description=description)
    target = tmp_path / "s.xml"
    save_scenario(scenario, target)
    loaded = load_scenario(target)
    assert loaded.description == description.strip()
    assert scenario_to_text(loaded) == scenario_to_text(scenario)


def every_row_scenario():
    """A valid scenario that sets every attribute of every table away from
    its default, plus a zero-time actor and a tdma-slice of 0."""
    graph = SDFG(
        actors=[Actor("A", 0), Actor("B", 5, name="Beta"),
                Actor("G", 3, ActorKind.INFRASTRUCTURE),
                Actor("H", 7, ActorKind.HARDWARE)],
        channels=[Channel("ab", "A", "B", 2, 2, 0, 8), Channel("ba", "B", "A", 1, 1, 2),
                  Channel("bh", "B", "H"), Channel("ha", "H", "A", 1, 1, 1, 16)])
    platform = Platform(
        tiles=[Tile("T1", tdma_wheel=100), Tile("M", TileKind.MEMORY),
               Tile("HW", TileKind.HARDWARE_BLOCK)],
        connections=[NocConnection("n1", "T1", "HW", 3, Fraction(1, 3)),
                     NocConnection("n2", "HW", "T1", bandwidth=Fraction("0.5"))])
    mapping = PlatformMapping(
        actor_tile={"A": "T1", "B": "T1", "H": "HW"}, tdma_slice={"A": 10, "B": 0},
        channel_binding={
            "ab": ChannelBinding(buffer_tokens=4),
            "bh": ChannelBinding(BindingKind.REMOTE, "n1", alpha_src=3, alpha_dst=1,
                                 latency_bound=50),
            "ha": ChannelBinding(BindingKind.PREFETCH, "n2", buffer_tokens=2,
                                 prefetch_time=20)})
    defaults = MigrationSpec(speedup=Fraction(3, 2), prefetch_time=500, hw_connection="n1",
                             hw_buffer_tokens=4, alpha_src=3, alpha_dst=1)
    return Scenario(name="every_row", graph=graph, platform=platform, mapping=mapping,
                    defaults=defaults, clock_hz=Fraction(50_000_000))


def test_every_attribute_round_trips_byte_identically(tmp_path):
    scenario = every_row_scenario()
    saved = scenario_to_text(scenario)
    target = tmp_path / "s.xml"
    target.write_text(saved, encoding="utf-8")
    loaded = load_scenario(target)
    assert loaded == scenario
    assert scenario_to_text(loaded) == saved
    # Every attribute of every table is written somewhere, so each row took
    # part in the round trip.
    for tag, table in [("actor", _ACTOR), ("channel", _CHANNEL), ("tile", _TILE),
                       ("connection", _CONNECTION), ("place", _PLACE), ("bind", _BIND),
                       ("defaults", _DEFAULTS)]:
        written = {name for line in saved.splitlines()
                   if line.lstrip().startswith(f"<{tag} ")
                   for name in re.findall(r' ([\w-]+)=', line)}
        assert written == set(table), tag
    # Two exceptions to leaving defaults out: a zero exec-time is written,
    # and a name only when it differs from the id.
    assert '<actor id="A" exec-time="0"/>' in saved
    assert '<actor id="B" exec-time="5" name="Beta"/>' in saved
    assert '<place actor="B" tile="T1" tdma-slice="0"/>' in saved
    assert '<defaults speedup="1.5" prefetch-time="500" hw-connection="n1"' in saved


def test_save_is_deterministic():
    s = load_mjpeg()
    assert scenario_to_text(s) == scenario_to_text(s)


def report_for_tests(error=False):
    s = load_mjpeg()
    base = self_timed_throughput(build_bound_graph(s.graph, s.platform, s.mapping))
    from decimal import Decimal
    candidates = (
        MigrationCandidate(actor="IDCT", result=base,
                           fps_after=Decimal("17.40"), gain_fps=Decimal("3.49")),
        MigrationCandidate(actor="VLD", result=base,
                           fps_after=Decimal("14.33"), gain_fps=Decimal("0.42")),
    )
    if error:
        candidates += (MigrationCandidate(actor="IZZ", error="deadlock"),)
    return ExplorationReport(scenario=s.name, clock_hz=s.clock_hz,
                             baseline=base, candidates=candidates)


def test_emit_report_csv():
    data = emit_report(report_for_tests(), format="csv").decode()
    lines = data.strip().split("\n")
    assert lines[0] == "actor,fps_before,fps_after,gain_fps"
    assert lines[1] == "IDCT,13.91,17.40,3.49"
    assert lines[2] == "VLD,13.91,14.33,0.42"
    assert len(lines) == 3


def test_emit_report_csv_row_count_includes_failures():
    data = emit_report(report_for_tests(error=True), format="csv").decode()
    assert len(data.strip().split("\n")) == 4


def test_emit_report_text():
    data = emit_report(report_for_tests(), format="text").decode()
    assert "throughput without migration (f/s): 13.91" in data
    assert "IDCT" in data and "3.49" in data


def test_emit_report_baseline_only():
    report = ExplorationReport(scenario="x", clock_hz=Fraction(10),
                               baseline=report_for_tests().baseline)
    text = emit_report(report, format="text").decode()
    assert "without migration" in text
    csv = emit_report(report, format="csv").decode()
    assert csv.strip() == "actor,fps_before,fps_after,gain_fps"


def test_emit_report_rejects_unknown_format():
    # This used to be a ValueError, outside the package's error hierarchy.
    with pytest.raises(UnknownReportFormatError, match="'json'"):
        emit_report(report_for_tests(), "json")


def test_emit_report_deterministic_bytes():
    report = report_for_tests()
    assert emit_report(report, "csv") == emit_report(report, "csv")
    assert emit_report(report, "text") == emit_report(report, "text")


def test_empty_graph_scenario_round_trips(tmp_path):
    from sdfmig.graph import SDFG
    empty = Scenario(name="empty", graph=SDFG())
    target = tmp_path / "empty.xml"
    save_scenario(empty, target)
    assert load_scenario(target) == empty


def test_load_rejects_defaults_naming_unknown_connection(tmp_path):
    # Such a scenario used to load clean and end explore and migrate in a
    # KeyError traceback.
    text = bundled_scenario_path("mjpeg_base").read_text()
    bad = tmp_path / "bad.xml"
    bad.write_text(text.replace("</mapping>", '</mapping>\n  <defaults hw-connection="nope"/>'))
    with pytest.raises(ScenarioParseError, match="'hw-connection'.*'nope'") as err:
        load_scenario(bad)
    assert (err.value.line, err.value.column) == (52, 3)
    good = tmp_path / "good.xml"
    good.write_text(text.replace("</mapping>", '</mapping>\n  <defaults hw-connection="n2"/>'))
    assert load_scenario(good).defaults.hw_connection == "n2"


def test_load_rejects_connection_without_bandwidth(tmp_path):
    # It used to load at bandwidth 1 and analyse n2 at that silent value.
    text = bundled_scenario_path("mjpeg_base").read_text()
    original = ' bandwidth="0.00203139"'
    assert text.count(original) == 1
    bad = tmp_path / "bad.xml"
    bad.write_text(text.replace(original, ""))
    with pytest.raises(ScenarioParseError,
                       match="<connection>: missing attribute 'bandwidth'") as err:
        load_scenario(bad)
    assert (err.value.line, err.value.column) == (37, 5)


@pytest.mark.parametrize("clock", ["0", "-5", "0/7"])
def test_load_rejects_non_positive_clock(tmp_path, clock):
    # Such a scenario used to load clean; reporting frames per second then
    # ended in a ValueError traceback.
    text = bundled_scenario_path("two_stage_demo").read_text()
    assert '<scenario name="two_stage_demo">' in text
    bad = tmp_path / "bad.xml"
    bad.write_text(text.replace('<scenario name="two_stage_demo">',
                                f'<scenario name="two_stage_demo" clock-hz="{clock}">'))
    with pytest.raises(ScenarioParseError, match="'clock-hz' must be positive") as err:
        load_scenario(bad)
    assert (err.value.line, err.value.column) == (1, 1)
