import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdfmig
from sdfmig.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_throughput_bundled_scenario(capsys):
    code, out, _ = run_cli(capsys, "throughput", "mjpeg_base")
    assert code == 0
    assert "scenario: mjpeg_base" in out
    assert "throughput: 13.91 f/s" in out


def test_throughput_freq_flag(capsys):
    code, out, _ = run_cli(capsys, "throughput", "mjpeg_base", "--freq", "200e6")
    assert code == 0
    assert "throughput: 27.83 f/s" in out


def test_check_ok(capsys):
    code, out, _ = run_cli(capsys, "check", "mjpeg_base")
    assert code == 0
    assert "validation: ok" in out


def test_check_deadlocked_scenario(tmp_path, capsys):
    bad = tmp_path / "dead.xml"
    bad.write_text("""<scenario name="dead">
  <application>
    <actor id="A" exec-time="2"/>
    <actor id="B" exec-time="3"/>
    <channel id="f" src="A" dst="B"/>
    <channel id="b" src="B" dst="A"/>
  </application>
</scenario>""")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "analysis failed" in err


def test_check_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text("""<scenario name="bad">
  <application>
    <actor id="A" exec-time="1"/>
    <channel id="c" src="A" dst="ghost"/>
  </application>
</scenario>""")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "invalid scenario" in err


def test_check_out_of_range_defaults(tmp_path, capsys):
    from sdfmig.scenario import bundled_scenario_path

    text = bundled_scenario_path("two_stage_demo").read_text()
    bad = tmp_path / "bad.xml"
    bad.write_text(text.replace('<defaults prefetch-time="20"/>',
                                '<defaults prefetch-time="20" alpha-src="0"/>'))
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "alpha-src" in err and "line 20" in err


def test_check_negative_tdma_slice(tmp_path, capsys):
    # Before it was rejected, a slice of -1 on VLD gave 14.11 f/s, not 13.91.
    from sdfmig.scenario import bundled_scenario_path

    text = bundled_scenario_path("mjpeg_base").read_text()
    bad = tmp_path / "bad.xml"
    bad.write_text(text.replace('<place actor="VLD" tile="T1" tdma-slice="50000"/>',
                                '<place actor="VLD" tile="T1" tdma-slice="-1"/>'))
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "tdma-slice" in err and "line 40" in err


def test_check_bind_alpha_below_one(tmp_path, capsys):
    # Before it was rejected, alpha-src="0" on izz_iq ended as a deadlock (exit 2).
    from sdfmig.scenario import bundled_scenario_path

    text = bundled_scenario_path("mjpeg_base").read_text()
    bad = tmp_path / "bad.xml"
    bad.write_text(text.replace('channel="izz_iq" connection="n1" alpha-src="2"',
                                'channel="izz_iq" connection="n1" alpha-src="0"'))
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "alpha-src" in err and "line 47" in err


def test_migrate_reports_gain(capsys):
    code, out, _ = run_cli(capsys, "migrate", "mjpeg_base", "--task", "IDCT")
    assert code == 0
    assert "throughput without migration (f/s): 13.91" in out
    assert "17.40" in out
    assert "3.49" in out


def test_migrate_csv(capsys):
    code, out, _ = run_cli(capsys, "migrate", "mjpeg_base", "--task", "IDCT",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "actor,fps_before,fps_after,gain_fps"
    assert lines[1] == "IDCT,13.91,17.40,3.49"


def test_migrate_unknown_task(capsys):
    code, _, err = run_cli(capsys, "migrate", "mjpeg_base", "--task", "nope")
    assert code == 3
    assert "nope" in err


def test_explore_ranking_and_determinism(capsys):
    code, out, _ = run_cli(capsys, "explore", "mjpeg_base", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "actor,fps_before,fps_after,gain_fps"
    assert len(lines) == 7  # 6 software actors + header
    gains = [float(line.split(",")[3]) for line in lines[1:]]
    assert gains == sorted(gains, reverse=True)
    actors = [line.split(",")[0] for line in lines[1:]]
    assert actors.index("IDCT") < actors.index("VLD")
    code2, out2, _ = run_cli(capsys, "explore", "mjpeg_base", "--format", "csv")
    assert out2 == out


def test_explore_text_orders_idct_before_vld(capsys):
    code, out, _ = run_cli(capsys, "explore", "mjpeg_base")
    assert code == 0
    assert out.index("IDCT") < out.index("VLD")


def test_usage_errors(capsys):
    assert run_cli(capsys, "migrate", "mjpeg_base")[0] == 3   # missing --task
    assert run_cli(capsys, "throughput", "no_such_scenario")[0] == 3
    assert run_cli(capsys, "throughput", "mjpeg_base", "--freq", "abc")[0] == 3


@pytest.mark.parametrize("argv", [
    ("migrate", "mjpeg_base", "--task", "IQ", "--speedup", "0"),
    ("migrate", "mjpeg_base", "--task", "IQ", "--speedup", "-2"),
    ("explore", "mjpeg_base", "--speedup", "0"),
    ("throughput", "mjpeg_base", "--freq", "0"),
    ("migrate", "mjpeg_base", "--task", "IQ", "--freq", "-100e6"),
    ("migrate", "mjpeg_base", "--task", "IQ", "--prefetch", "-1"),
    ("explore", "mjpeg_base", "--prefetch", "-10000"),
    ("explore", "mjpeg_base", "--prefetch", "1.5"),
    ("throughput", "mjpeg_base", "--state-budget", "0"),
    ("explore", "mjpeg_base", "--state-budget", "-5"),
    ("check", "mjpeg_base", "--state-budget", "1.5"),
])
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: argument --")


@pytest.mark.parametrize("flag", ["--prefetch", "--state-budget"])
@pytest.mark.parametrize("value", ["1_000", "+5", " 7 ", "٣"])
def test_integer_flags_accept_only_plain_integers(capsys, flag, value):
    # The rule of scenario files: an optional minus sign and ASCII digits,
    # not the white space, sign, separator or other digits int() takes.
    assert int(value) > 0
    code, out, err = run_cli(capsys, "explore", "mjpeg_base", flag, value)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: argument {flag}: not an integer: ")
    assert err.count("\n") == 1


def test_explore_demo_scenario(capsys):
    code, out, _ = run_cli(capsys, "explore", "two_stage_demo", "--format", "csv")
    assert code == 0
    assert len(out.strip().split("\n")) == 3


GRAPH_ONLY = """<scenario name="solo">
  <application>
    <actor id="A" exec-time="10"/>
    <channel id="loop" src="A" dst="A" initial-tokens="1"/>
  </application>
</scenario>"""


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["check"], "scenario: solo\nvalidation: ok\nperiodic phase: 10 cycles, "
                            "1 firing(s) of A\n", id="check"),
    pytest.param(["throughput"], "scenario: solo\nthroughput: 10000000.00 f/s\n",
                 id="throughput"),
])
def test_graph_only_scenario_is_analyzed_as_is(tmp_path, capsys, argv, expected):
    scenario = tmp_path / "solo.xml"
    scenario.write_text(GRAPH_ONLY)
    assert run_cli(capsys, *argv, str(scenario)) == (0, expected, "")


@pytest.mark.parametrize("argv, question", [
    pytest.param(["migrate", "--task", "A"], "migration", id="migrate"),
    pytest.param(["explore"], "exploration", id="explore"),
])
def test_graph_only_scenario_cannot_migrate(tmp_path, capsys, argv, question):
    scenario = tmp_path / "solo.xml"
    scenario.write_text(GRAPH_ONLY)
    assert run_cli(capsys, *argv, str(scenario)) == (
        1, "", f"invalid scenario: {question} needs a scenario with a platform "
               "and a mapping\n")


def test_every_exported_name_resolves():
    assert [name for name in sdfmig.__all__ if not hasattr(sdfmig, name)] == []


def test_cli_import_stays_light():
    # xml.sax.saxutils imports urllib.request, and with it http.client, email
    # and ssl: megabytes of memory and tens of milliseconds per process.
    probe = ("import sys, sdfmig.cli; "
             "print([m for m in ('xml.sax.saxutils', 'urllib.request') if m in sys.modules])")
    src = str(Path(sdfmig.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def mjpeg_variant(tmp_path, old, new):
    """mjpeg_base with every ``old`` replaced by ``new``."""
    from sdfmig.scenario import bundled_scenario_path

    text = bundled_scenario_path("mjpeg_base").read_text()
    assert old in text
    variant = tmp_path / "variant.xml"
    variant.write_text(text.replace(old, new))
    return str(variant)


def test_connection_named_local_explores_like_mjpeg_base(tmp_path, capsys):
    # A connection id used to double as the local binding kind, so this
    # variant failed check with a false BindingMismatch.
    variant = mjpeg_variant(tmp_path, '"n1"', '"local"')
    code, expected, _ = run_cli(capsys, "explore", "mjpeg_base")
    assert code == 0
    assert run_cli(capsys, "explore", variant) == (0, expected, "")


def test_connection_named_prefetch_loads(tmp_path, capsys):
    # This variant used to end in a KeyError traceback.
    variant = mjpeg_variant(tmp_path, '"n1"', '"prefetch"')
    code, out, _ = run_cli(capsys, "throughput", variant)
    assert code == 0
    assert "throughput: 13.91 f/s" in out


IZZ_IQ_REMOTE = 'connection="n1" alpha-src="2" alpha-dst="1" latency-bound="100000"'


def test_check_prefetch_bind_unknown_connection(tmp_path, capsys):
    variant = mjpeg_variant(tmp_path, IZZ_IQ_REMOTE, 'prefetch="true" connection="nope"')
    code, _, err = run_cli(capsys, "check", variant)
    assert code == 1
    assert "[UnknownConnection] izz_iq" in err


def test_check_prefetch_bind_connection_not_joining_endpoints(tmp_path, capsys):
    # n2 joins T2->T3; izz_iq runs from T1 to T2.
    variant = mjpeg_variant(tmp_path, IZZ_IQ_REMOTE, 'prefetch="true" connection="n2"')
    code, _, err = run_cli(capsys, "check", variant)
    assert code == 1
    assert "[BindingMismatch] izz_iq" in err


HARDWARE_VLD_UNPLACED = [
    ('<actor id="VLD" exec-time="2082463"/>',
     '<actor id="VLD" exec-time="2082463" kind="hardware"/>'),
    ('    <place actor="VLD" tile="T1" tdma-slice="50000"/>\n', ""),
]
VLD_IZZ_OVER_LOOP = [
    ("</platform>",
     '  <connection id="loop" src-tile="T1" dst-tile="T1" latency="3" '
     'bandwidth="0.00406278"/>\n  </platform>'),
    ('<bind channel="vld_izz" buffer-tokens="13"/>',
     '<bind channel="vld_izz" connection="loop"/>'),
]


@pytest.mark.parametrize("edits", [HARDWARE_VLD_UNPLACED, VLD_IZZ_OVER_LOOP],
                         ids=["local-unplaced-endpoint", "remote-inside-one-tile"])
def test_check_binding_against_tiles_is_invalid_scenario(tmp_path, capsys, edits):
    # Both used to load clean and exit 2 at binding.
    from sdfmig.scenario import bundled_scenario_path

    text = bundled_scenario_path("mjpeg_base").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    variant = tmp_path / "variant.xml"
    variant.write_text(text)
    code, out, err = run_cli(capsys, "check", str(variant))
    assert (code, out) == (1, "")
    assert err.startswith("invalid scenario: [BindingMismatch] vld_izz: ")
    assert "Traceback" not in err


SECOND_MAPPING = """  <mapping>
    <place actor="VLD" tile="T1" tdma-slice="50000"/>
    <place actor="IZZ" tile="T1" tdma-slice="50000"/>
    <place actor="IQ" tile="T2" tdma-slice="10000"/>
    <place actor="IDCT" tile="T2" tdma-slice="90000"/>
    <place actor="CC" tile="T3" tdma-slice="20000"/>
    <place actor="RE" tile="T3" tdma-slice="80000"/>
    <bind channel="vld_izz" buffer-tokens="26"/>
    <bind channel="izz_iq" connection="n1" alpha-src="2" alpha-dst="1" latency-bound="100000"/>
    <bind channel="iq_idct" buffer-tokens="2"/>
    <bind channel="idct_cc" connection="n2" alpha-src="2" alpha-dst="2" latency-bound="100000"/>
    <bind channel="cc_re" buffer-tokens="24"/>
  </mapping>
"""


@pytest.mark.parametrize("old, new", [
    pytest.param("</platform>", '  <connection id="n1" src-tile="T1" dst-tile="T2" '
                 'latency="900000" bandwidth="0.00001"/>\n  </platform>', id="connection"),
    pytest.param("</platform>", '  <tile id="T1" tdma-wheel="200000"/>\n  </platform>',
                 id="tile"),
    pytest.param('<bind channel="vld_izz" buffer-tokens="13"/>',
                 '<bind channel="vld_izz" buffer-tokens="13"/>\n'
                 '    <bind channel="vld_izz" buffer-tokens="12"/>', id="bind"),
    pytest.param('<place actor="VLD" tile="T1" tdma-slice="50000"/>',
                 '<place actor="VLD" tile="T1" tdma-slice="50000"/>\n'
                 '    <place actor="VLD" tile="T1" tdma-slice="40000"/>', id="place"),
    pytest.param("</scenario>", SECOND_MAPPING + "</scenario>", id="mapping"),
    pytest.param("</scenario>", '  <defaults speedup="4"/>\n  <defaults speedup="1"/>\n'
                 "</scenario>", id="defaults"),
])
def test_repeated_platform_or_mapping_entry_is_invalid_scenario(tmp_path, capsys, old, new):
    # Each used to keep the last entry and exit 0: 0.08, 13.91, 12.87 f/s,
    # and 14.33 f/s for the second <mapping>, whose vld_izz buffer is 26;
    # explore ranked the <defaults> pair with speedup 1 (IQ 17.40, not 18.35).
    code, out, err = run_cli(capsys, "throughput", mjpeg_variant(tmp_path, old, new))
    assert (code, out) == (1, "")
    assert err.startswith("invalid scenario: ") and err.count("\n") == 1


# src and sink joined by two parallel channels: migrating src makes both a
# prefetch into sink.
PARALLEL = """<scenario name="parallel">
  <application reference-actor="src">
    <actor id="src" exec-time="400"/>
    <actor id="sink" exec-time="900"/>
    <channel id="data" src="src" dst="sink" token-size="64"/>
    <channel id="more" src="src" dst="sink" token-size="64"/>
  </application>
  <platform>
    <tile id="T1" tdma-wheel="1000"/>
    <tile id="T2" tdma-wheel="1000"/>
    <connection id="link" src-tile="T1" dst-tile="T2" latency="4" bandwidth="0.5"/>
  </platform>
  <mapping>
    <place actor="src" tile="T1" tdma-slice="600"/>
    <place actor="sink" tile="T2" tdma-slice="700"/>
    <bind channel="data" connection="link" alpha-src="2" alpha-dst="2"/>
    <bind channel="more" connection="link" alpha-src="2" alpha-dst="2"/>
  </mapping>
</scenario>"""
SECOND_PREFETCH = ("prefetch on channel 'more' is a second one into 'sink', "
                   "after channel 'data'")


def test_second_prefetch_into_one_consumer_is_invalid_scenario(tmp_path, capsys):
    # This used to load clean; check then printed "error: no actor 'sink' in
    # graph" and exited 3.
    text = (PARALLEL.replace('<actor id="src" exec-time="400"/>',
                             '<actor id="src" exec-time="400" kind="hardware"/>')
            .replace('tdma-wheel="1000"/>', 'kind="hardware_block"/>', 1)
            .replace(' tdma-slice="600"', "")
            .replace('alpha-src="2" alpha-dst="2"', 'prefetch="true"'))
    scenario = tmp_path / "two_prefetch.xml"
    scenario.write_text(text)
    assert run_cli(capsys, "check", str(scenario)) == (
        1, "", f"invalid scenario: [BindingMismatch] more: {SECOND_PREFETCH}\n")


def test_migration_into_two_prefetches_is_an_analysis_error(tmp_path, capsys):
    # Migrating src used to fail with "no actor 'sink' in graph": a failed
    # explore row, and exit 3 from migrate.
    scenario = tmp_path / "parallel.xml"
    scenario.write_text(PARALLEL)
    code, out, _ = run_cli(capsys, "explore", str(scenario))
    assert code == 0
    assert f"\nsrc    failed: kind {SECOND_PREFETCH}\n" in out
    assert run_cli(capsys, "migrate", str(scenario), "--task", "src") == (
        2, "", f"analysis failed: kind {SECOND_PREFETCH}\n")


@pytest.mark.parametrize("command", ["check", "explore"])
def test_defaults_naming_unknown_connection_is_invalid_scenario(tmp_path, capsys, command):
    variant = mjpeg_variant(tmp_path, "</mapping>",
                            '</mapping>\n  <defaults hw-connection="nope"/>')
    code, out, err = run_cli(capsys, command, variant)
    assert (code, out) == (1, "")
    assert err.startswith("invalid scenario: <defaults>: attribute 'hw-connection'")


@pytest.mark.parametrize("flags, src_row", [
    ((), "src               110987.79     -123.32"),
    (("--prefetch", "10000"), "src                 4967.22  -106143.89"),
])
def test_explore_reads_scenario_defaults_unless_flag_given(capsys, flags, src_row):
    # two_stage_demo sets prefetch-time="20"; the flag used to override it
    # even when not given.
    code, out, _ = run_cli(capsys, "explore", "two_stage_demo", *flags)
    assert code == 0
    assert src_row in out.splitlines()


@pytest.mark.parametrize("clock", ["0", "-5"])
@pytest.mark.parametrize("command", ["check", "throughput"])
def test_non_positive_clock_is_invalid_scenario(tmp_path, capsys, command, clock):
    # check used to print "validation: ok" and throughput to end in a
    # ValueError traceback.
    text = sdfmig.bundled_scenario_path("two_stage_demo").read_text()
    variant = tmp_path / "variant.xml"
    variant.write_text(text.replace('<scenario name="two_stage_demo">',
                                    f'<scenario name="two_stage_demo" clock-hz="{clock}">'))
    code, out, err = run_cli(capsys, command, str(variant))
    assert (code, out) == (1, "")
    assert err.startswith("invalid scenario: <scenario>: attribute 'clock-hz' must be positive")


ACCEPTANCE_TEXT = """\
scenario: mjpeg_base
throughput without migration (f/s): 13.91

actor  with migration (f/s)  gain (f/s)
IZZ                   28.42       14.51
IQ                    18.02        4.11
IDCT                  17.40        3.49
VLD                   14.33        0.42
CC                    13.91        0.00
RE                    13.91        0.00
"""

PREFETCH_20000_CSV = """\
actor,fps_before,fps_after,gain_fps
IZZ,13.91,28.42,14.51
IQ,13.91,18.02,4.11
IDCT,13.91,17.40,3.49
VLD,13.91,14.33,0.42
CC,13.91,13.91,0.00
RE,13.91,13.91,0.00
"""


def test_parser_built_once_carries_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process; a report, a usage error and
    # a bad scenario in between must not change what the next call parses.
    assert sdfmig.cli.build_parser() is sdfmig.cli.build_parser()
    bad = tmp_path / "bad.xml"
    bad.write_text('<scenario name="bad"><application><actor id="A" exec-time="1"/>'
                   '<channel id="c" src="A" dst="ghost"/></application></scenario>')
    assert run_cli(capsys, "explore", "mjpeg_base", "--format", "csv",
                   "--prefetch", "20000") == (0, PREFETCH_20000_CSV, "")
    assert run_cli(capsys, "explore", "mjpeg_base", "--speedup", "0") == (
        3, "", "error: argument --speedup: must be positive, got '0'\n")
    assert run_cli(capsys, "explore", str(bad)) == (
        1, "", "invalid scenario: [DanglingEndpoint] c: channel 'c' names actor "
               "'ghost', which is not in the graph\n")
    assert run_cli(capsys, "explore", "mjpeg_base") == (0, ACCEPTANCE_TEXT, "")
