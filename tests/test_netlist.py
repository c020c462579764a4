"""Netlist grammar, error reporting, and round-trip serialization."""

import math

import pytest

from mona.errors import NetlistError
from mona.netlist import parse_netlist
from mona.sources import Waveform


class TestGrammar:
    def test_resistor_stored_as_conductance(self):
        parsed = parse_netlist("R load 2 0 10")
        el = parsed.elements[0]
        assert el.kind == "R"
        assert el.value == pytest.approx(0.1)

    def test_sinusoidal_source(self):
        parsed = parse_netlist("V src 1 0 SIN(160 60)")
        w = parsed.elements[0].waveform
        assert w.kind == "sin"
        assert (w.amplitude, w.frequency, w.phase) == (160.0, 60.0, 0.0)
        assert w(1.0 / 240.0) == pytest.approx(160.0 * math.sin(math.pi / 2))

    def test_sin_with_phase_and_spaces(self):
        parsed = parse_netlist("i inj a 0 sin( 2.5  100  0.75 )")
        w = parsed.elements[0].waveform
        assert (w.amplitude, w.frequency, w.phase) == (2.5, 100.0, 0.75)

    def test_dc_source(self):
        parsed = parse_netlist("I bias 1 0 DC 1e-3")
        assert parsed.elements[0].waveform(123.0) == 1e-3

    @pytest.mark.parametrize("card", ["V src 1 0 SIN(1e154 60)", "V src 1 0 SIN(-1e154 60)",
                                      "I bias 1 0 DC 1e154"])
    def test_largest_source_values_accepted(self, card):
        # 1e154 squares to 1e308, within binary64 (1.4e154 does not)
        assert abs(parse_netlist(card).elements[0].waveform.amplitude) == 1e154

    def test_diode_parameters(self):
        parsed = parse_netlist("D d1 3 4 IS=1e-14 VT=0.025 RP=1e12")
        d = parsed.elements[0].diode
        assert d.saturation_current == 1e-14
        assert d.thermal_voltage == 0.025
        assert d.parallel_resistance == 1e12

    def test_device_with_two_windings(self):
        parsed = parse_netlist("M xfmr 1 0 2 3 FIELD=builtin")
        el = parsed.elements[0]
        assert el.nodes == (1, 0, 2, 3)
        assert el.field_ref == "builtin"

    def test_node_allocation_order(self):
        parsed = parse_netlist("R a n1 n2 1\nR b n2 gnd 1\nR c n3 0 1")
        assert parsed.node_ids == {"n1": 1, "n2": 2, "n3": 3}
        assert parsed.n_nodes == 3

    def test_ground_aliases(self):
        parsed = parse_netlist("R a 1 GND 1\nR b 1 0 1")
        assert all(el.nodes[1] == 0 for el in parsed.elements)

    def test_comments_and_case(self):
        parsed = parse_netlist("""
# comment line
r LOAD 1 0 10  # trailing comment

v SRC 1 0 sin(1 50)
""")
        assert [el.kind for el in parsed.elements] == ["R", "V"]


class TestErrors:
    @pytest.mark.parametrize("line, pattern, lineno", [
        ("R r1 1 0 ten", "not a number", 1),
        ("R r1 1 0 -5", "positive", 1),
        ("R r1 1 0 inf", "resistance: not a finite number: 'inf'", 1),
        ("V src 1 0 SIN(nan 60)", "amplitude: not a finite number: 'nan'", 1),
        ("V src 1 0 SIN(inf 60)", "amplitude: not a finite number: 'inf'", 1),
        ("V src 1 0 SIN(1 60 nan)", "phase: not a finite number: 'nan'", 1),
        ("I bias 1 0 DC -inf", "DC value: not a finite number: '-inf'", 1),
        # a source power is its value times a current: a value whose square
        # is not finite in binary64 would overflow the audit
        ("V src 1 0 SIN(1e200 50)", r"amplitude 1e\+200: its square is not finite", 1),
        ("V src 1 0 SIN(-1.4e154 60)", r"amplitude -1\.4e\+154: its square is not finite", 1),
        ("R r 1 0 1\nI bias 1 0 DC 1.4e154", r"DC value 1\.4e\+154: its square", 2),
        ("D d1 1 0 IS=nan VT=0.025 RP=1e12", "IS: not a finite number: 'nan'", 1),
        # a value whose reciprocal is not finite would reach the solver as inf
        ("V a 1 0 SIN(1 50)\nR r1 1 0 1e-320", "r1: conductance inf or its reciprocal", 2),
        ("L l1 1 0 1e-320", "l1: inductance 1e-320 or its reciprocal is not finite", 1),
        ("C c1 1 0 1e-320", "c1: capacitance 1e-320 or its reciprocal is not finite", 1),
        ("D d1 1 0 IS=1e-14 VT=0.025 RP=1e-320", r"diode 1/RP = inf is not finite", 1),
        ("D d1 1 0 IS=1e-14 VT=1e-320 RP=1e12", r"diode 1/VT = inf is not finite", 1),
        ("D d1 1 0 IS=1e300 VT=1e-10 RP=1e12", r"diode IS/VT = inf is not finite", 1),
        ("Q q1 1 0 5", "unknown element kind", 1),
        ("R r1 1 0 1\nR r1 2 0 1", "duplicate", 2),
        ("V v1 1 0 160", "SIN", 1),
        ("D d1 1 0 IS=1e-14 VT=0.025", "missing parameters", 1),
        ("D d1 1 0 IS=1e-14 VT=0.025 XX=1", "unknown diode parameter", 1),
        ("M m1 1 0 2 FIELD=x", "two terminals per winding", 1),
        ("M m1 1 0 2 0", "FIELD", 1),
        ("R r1 1 1 5", "itself", 1),
        ("", "no elements", None),
    ])
    def test_messages_carry_line_numbers(self, line, pattern, lineno):
        with pytest.raises(NetlistError, match=pattern) as excinfo:
            parse_netlist(line)
        if lineno is not None:
            assert f"line {lineno}" in str(excinfo.value)

    @pytest.mark.parametrize("make", [Waveform.dc, lambda a: Waveform.sine(a, 60.0)])
    def test_waveform_value_must_square_finitely(self, make):
        assert make(1e154)(0.25 / 60.0) == pytest.approx(1e154)
        for amplitude in (1.4e154, -1.4e154, math.inf, math.nan):
            with pytest.raises(ValueError, match="its square is not finite"):
                make(amplitude)

    def test_sine_frequency_must_have_a_finite_angular_frequency(self):
        # 2*pi*f past binary64 would make the phase NaN at t = 0
        assert math.isfinite(Waveform.sine(1.0, 2.8e307)(0.0))
        for frequency in (2.9e307, 1e308, math.inf, math.nan):
            with pytest.raises(ValueError, match="2\\*pi\\*frequency is not finite"):
                Waveform.sine(1.0, frequency)
        with pytest.raises(NetlistError, match=r"^line 1: frequency 1e\+308: 2\*pi\*frequency "
                                               r"is not finite in binary64"):
            parse_netlist("V a 1 0 SIN(1 1e308)\nR r 1 0 1\n")
