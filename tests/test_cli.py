"""Command-line interface: subcommands, CSV outputs, exit codes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mona.cli as cli
import mona.stepping
from mona.cli import run_cli
from mona.demo import DEMO_NETLIST, DEMO_PROBES
from mona.errors import SolverError

from conftest import LINEAR_COUPLED_NETLIST, SOURCE_CAPACITOR_NETLISTS

RLC = """
V src 1 0 SIN(10 50)
R r1 1 2 2
L l1 2 3 0.01
C c1 3 0 0.001
"""

VLOOP = """
V v1 1 0 SIN(10 50)
V v2 1 0 SIN(20 50)
R r1 1 0 1
"""


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture
def rlc_net(tmp_path):
    path = tmp_path / "rlc.net"
    path.write_text(RLC)
    return path


# a valid one-triangle mesh file, one line per entry
MESH_LINES = ("depth 1.0", "vertices 3", "0 0", "1 0", "0 1", "triangles 1",
              "0 1 2 0", "regions 1", "0 1.0 0.0 0 1", "windings 1", "0 10")


def header_lineno(header):
    """1-based line number of a section header in ``MESH_LINES``."""
    return next(k for k, line in enumerate(MESH_LINES, start=1)
                if line.split()[0] == header)


def run_with_mesh(tmp_path, lines, capsys):
    """``run --mesh`` on the given mesh lines, which must fail with exit code
    1 and no traceback; returns standard error."""
    mesh = tmp_path / "cut.mesh"
    mesh.write_text("\n".join(lines) + "\n")
    net = tmp_path / "xfmr.net"
    net.write_text(LINEAR_COUPLED_NETLIST)
    argv = ["run", "--netlist", str(net), "--mesh", str(mesh), "--tau", "1e-3",
            "--t-end", "2e-3", "--out", str(tmp_path / "out")]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


class TestCheck:
    def test_valid_netlist_passes(self, rlc_net, capsys):
        before = rlc_net.read_bytes()
        assert run_cli(["check", "--netlist", str(rlc_net)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert rlc_net.read_bytes() == before  # check never mutates files

    def test_voltage_loop_fails_with_names(self, tmp_path, capsys):
        path = tmp_path / "loop.net"
        path.write_text(VLOOP)
        assert run_cli(["check", "--netlist", str(path)]) == 1
        out = capsys.readouterr().out
        assert "v1" in out and "v2" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.net"
        path.write_text("R r1 1 0 ten\n")
        assert run_cli(["check", "--netlist", str(path)]) == 1
        assert "line 1" in capsys.readouterr().out

    @pytest.mark.parametrize("card, token", [
        ("V src 1 0 SIN(nan 60)", "nan"),
        ("V src 1 0 SIN(1 60 nan)", "nan"),
        ("R r 1 0 inf", "inf"),
    ])
    @pytest.mark.parametrize("command", ["check", "run"])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, card, token, command):
        path = tmp_path / "bad.net"
        path.write_text(f"{card}\nR load 1 0 10\n")
        argv = [command, "--netlist", str(path)]
        if command == "run":
            argv += ["--tau", "1e-3", "--t-end", "0.01", "--out", str(tmp_path)]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        # check reports on standard output, run on standard error
        stream = captured.out if command == "check" else captured.err
        assert f"not a finite number: '{token}'" in stream

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_source_power_overflow_named(self, tmp_path, capsys, command):
        # 1e200 V squares past binary64: rejected at its line before any
        # power is formed, under check and run alike
        path = tmp_path / "huge.net"
        path.write_text("V a 1 0 SIN(1e200 50)\nR r 1 0 1\n")
        argv = [command, "--netlist", str(path)]
        if command == "run":
            argv += ["--tau", "5e-4", "--t-end", "0.005", "--out", str(tmp_path / "out")]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        stream = captured.out if command == "check" else captured.err
        assert stream == ("error: line 1: amplitude 1e+200: its square is not finite "
                          "in binary64, so the source's power would overflow\n")
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(["check", "--netlist", str(tmp_path / "nope.net")]) == 1

    def test_floating_nodes_named(self, tmp_path, capsys):
        # reported like voltage loops: an error line of the report on stdout
        path = tmp_path / "float.net"
        path.write_text("V src 1 0 SIN(10 50)\nR load 1 0 10\nR r2 2 3 1\n")
        assert run_cli(["check", "--netlist", str(path)]) == 1
        out = capsys.readouterr().out
        assert "error: nodes [2, 3] are not connected to ground" in out and "r2" in out

    def test_field_winding_count_checked(self, tmp_path, capsys):
        # one winding on the two-winding built-in mesh: run fails on it, so
        # check must too
        path = tmp_path / "one.net"
        path.write_text("V src 1 0 SIN(1 60)\nM x 1 0 FIELD=builtin\n")
        assert run_cli(["check", "--netlist", str(path)]) == 1
        out = capsys.readouterr().out
        assert "error: device branch count (1) does not match winding count (2)" in out
        assert ": ok" not in out

    def test_missing_mesh_named(self, tmp_path, capsys):
        path = tmp_path / "xfmr.net"
        path.write_text(LINEAR_COUPLED_NETLIST)
        missing = tmp_path / "nope.mesh"
        assert run_cli(["check", "--netlist", str(path), "--mesh", str(missing)]) == 1
        out = capsys.readouterr().out
        assert "error:" in out and str(missing) in out

    @pytest.mark.parametrize("card", ["V src 1 0 DC 5", "V src 1 0 SIN(10 50 0.5)"])
    def test_source_not_at_rest_fails(self, tmp_path, capsys, card):
        # run rejects a source that does not vanish at t = 0, so check must too
        path = tmp_path / "dc.net"
        path.write_text(f"{card}\nR r 1 0 10\n")
        assert run_cli(["check", "--netlist", str(path)]) == 1
        out = capsys.readouterr().out
        assert "error: zero initial state violates the algebraic constraints" in out
        assert "sources must vanish at t0" in out
        assert ": ok" not in out

    def test_demo_netlist_passes(self, tmp_path, capsys):
        path = tmp_path / "demo.net"
        path.write_text(DEMO_NETLIST)
        assert run_cli(["check", "--netlist", str(path), "--mesh-density", "0.025"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "7 elements, 4 nodes: ok"


# bad netlists of the tests above: (file content, or None for a directory;
# extra options; the cause that check and run both name)
BAD_NETLISTS = {
    "parse-error": ("R r1 1 0 ten\n", [], "line 1: resistance: not a number: 'ten'"),
    "non-finite-value": ("V src 1 0 SIN(nan 60)\nR load 1 0 10\n", [],
                         "line 1: amplitude: not a finite number: 'nan'"),
    "overflowing-source": ("V a 1 0 SIN(1e200 50)\nR r 1 0 1\n", [],
                           "line 1: amplitude 1e+200: its square is not finite in binary64"),
    "overflowing-frequency": ("V a 1 0 SIN(1 1e308)\nR r 1 0 1\n", [],
                              "line 1: frequency 1e+308: 2*pi*frequency is not finite "
                              "in binary64"),
    "voltage-loop": (VLOOP, [], "loop of ideal voltage sources: {v1, v2}"),
    # several topology problems: one error: line each
    "loop-and-cutset": ("V a 1 0 SIN(1 50)\nV b 1 0 SIN(2 50)\nI i1 2 0 SIN(1 50)\n"
                        "R r 1 0 1\n", [], "loop of ideal voltage sources: {a, b}\n"
                        "error: current sources form a cutset: {i1}"),
    "floating-nodes": ("V src 1 0 SIN(10 50)\nR load 1 0 10\nR r2 2 3 1\n", [],
                       "nodes [2, 3] are not connected to ground (elements: r2)"),
    "winding-count": ("V src 1 0 SIN(1 60)\nM x 1 0 FIELD=builtin\n", [],
                      "device branch count (1) does not match winding count (2)"),
    "missing-mesh": (LINEAR_COUPLED_NETLIST, ["--mesh", "nope.mesh"],
                     "[Errno 2] No such file or directory: "),
    "source-not-at-rest": ("V src 1 0 DC 5\nR r 1 0 10\n", [],
                           "zero initial state violates the algebraic constraints"),
    "directory-as-netlist": (None, [], "[Errno 21] Is a directory: "),
    "mixed-field-refs": ("V src 1 0 SIN(1 60)\nM x 1 0 2 0 FIELD=builtin\n"
                         "M y 3 0 4 0 FIELD=other.mesh\nR r1 2 0 1\nR r2 4 0 1\n", [],
                         "all devices must share one FIELD reference, "
                         "got ['builtin', 'other.mesh']"),
    # a value whose reciprocal overflows would reach the solver as inf
    "tiny-resistance": ("V a 1 0 SIN(1 50)\nR r1 1 0 1e-320\nR rx 1 0 1\n", [],
                        "line 2: r1: conductance inf or its reciprocal is not finite"),
    "tiny-inductance": ("V a 1 0 SIN(1 50)\nL l1 1 0 1e-320\nR rx 1 0 1\n", [],
                        "line 2: l1: inductance 1e-320 or its reciprocal is not finite"),
    "tiny-capacitance": ("V a 1 0 SIN(1 50)\nC c1 1 0 1e-320\nR rx 1 0 1\n", [],
                         "line 2: c1: capacitance 1e-320 or its reciprocal is not finite"),
    "tiny-diode-rp": ("V a 1 0 SIN(1 50)\nD d1 1 0 IS=1e-14 VT=0.025 RP=1e-320\n"
                      "R rx 1 0 1\n", [], "line 2: diode 1/RP = inf is not finite"),
    "tiny-diode-vt": ("V a 1 0 SIN(1 50)\nD d1 1 0 IS=1e-14 VT=1e-320 RP=1e12\n"
                      "R rx 1 0 1\n", [], "line 2: diode 1/VT = inf is not finite"),
    # a diode whose critical voltage VT*ln(VT/(sqrt(2)*IS)) overflows would
    # reach the limiter as inf, with numpy's overflow warning
    "overflowing-diode-vt": ("V a 1 0 SIN(1 50)\nR rs 1 2 1\n"
                             "D d1 2 0 IS=1e-300 VT=1e300 RP=1e12\n", [],
                             "line 3: diode critical voltage VT*ln(VT/(sqrt(2)*IS)) = inf "
                             "is not finite"),
    "tiny-diode-is": ("V a 1 0 SIN(1 50)\nR rs 1 2 1\nD d1 2 0 IS=5e-324 VT=0.025 RP=1e12\n",
                      [], "line 3: diode critical voltage VT*ln(VT/(sqrt(2)*IS)) = inf "
                      "is not finite"),
}


@pytest.mark.parametrize("name", BAD_NETLISTS)
def test_check_and_run_name_the_same_cause(tmp_path, capsys, monkeypatch, name):
    # check is run without the transient: it fails on every netlist run fails
    # on, with the same error: lines, on standard output where run writes
    # them to standard error
    text, options, cause = BAD_NETLISTS[name]
    monkeypatch.chdir(tmp_path)
    netlist = tmp_path
    if text is not None:
        netlist = tmp_path / "bad.net"
        netlist.write_text(text)
    argv = ["--netlist", str(netlist), "--mesh-density", "0.025", *options]
    assert run_cli(["check", *argv]) == 1
    check = capsys.readouterr()
    assert run_cli(["run", *argv, "--tau", "1e-3", "--t-end", "0.01",
                    "--out", str(tmp_path / "out")]) == 1
    run = capsys.readouterr()
    assert check.err == run.out == ""
    assert check.out == run.err
    assert check.out.startswith(f"error: {cause}")
    assert len(check.out.splitlines()) == 1 + cause.count("\n")
    assert "error: error:" not in check.out


class TestBadInput:
    """Bad option values and unusable paths exit with code 1 and a cause."""

    @pytest.mark.parametrize("option, value, cause", [
        ("--t-end", "inf", "t_end must be finite"),
        ("--t-end", "nan", "t_end must be finite"),
        # Newton's tolerance is no option: NEWTON_TOL is the one value
        ("--newton-tol", "1e-12", "unrecognized arguments: --newton-tol 1e-12"),
    ])
    def test_bad_value(self, rlc_net, tmp_path, capsys, option, value, cause):
        argv = ["run", "--netlist", str(rlc_net), "--tau", "1e-3", "--t-end", "0.01",
                "--out", str(tmp_path), option, value]
        assert run_cli(argv) == 1
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "demo-rectifier"])
    def test_zero_mesh_density(self, tmp_path, capsys, command):
        argv = [command, "--mesh-density", "0", "--tau", "1e-3", "--t-end", "2e-3",
                "--out", str(tmp_path / "out")]
        if command == "run":
            path = tmp_path / "xfmr.net"
            path.write_text(LINEAR_COUPLED_NETLIST)
            argv += ["--netlist", str(path)]
        assert run_cli(argv) == 1
        assert "mesh density must be positive" in capsys.readouterr().err

    # each is rejected before its mesh is allocated: 1e-9 asks for 1.6e17
    # vertices, 1e-300 for more than a float holds, and 1e-320 for a cell
    # count that overflows to inf
    @pytest.mark.parametrize("command", ["check", "demo-rectifier"])
    @pytest.mark.parametrize("density", ["1e-9", "1e-300", "1e-320"])
    def test_too_fine_mesh_density(self, tmp_path, capsys, command, density):
        argv = [command, "--mesh-density", density]
        if command == "check":
            path = tmp_path / "demo.net"
            path.write_text(DEMO_NETLIST)
            argv += ["--netlist", str(path)]
        else:
            argv += ["--tau", "1e-3", "--t-end", "2e-3", "--out", str(tmp_path / "out")]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert f"error: mesh density h={float(density)!r} too fine: " in text
        assert "vertices" in text and "int32 indices" in text
        assert "Traceback" not in text

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_directory_as_netlist(self, tmp_path, capsys, command):
        argv = [command, "--netlist", str(tmp_path)]
        if command == "run":
            argv += ["--tau", "1e-3", "--t-end", "0.01", "--out", str(tmp_path / "out")]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        stream = captured.out if command == "check" else captured.err
        assert "Is a directory" in stream

    def test_file_as_out(self, rlc_net, capsys, monkeypatch):
        # the output directory is made before the transient starts
        def never(*args, **kwargs):
            raise AssertionError("the transient started")

        monkeypatch.setattr(cli, "run_transient", never)
        monkeypatch.setattr(cli, "convergence_study", never)
        for command in ("run", "converge", "demo-rectifier"):
            argv = [command, "--tau", "1e-3", "--t-end", "0.01", "--out", str(rlc_net)]
            if command == "demo-rectifier":
                argv += ["--mesh-density", "0.025"]
            else:
                argv += ["--netlist", str(rlc_net)]
            assert run_cli(argv) == 1, command
            assert "File exists" in capsys.readouterr().err

    def test_trace_path_is_a_directory(self, rlc_net, tmp_path, capsys):
        # the transient runs, and writing its trace fails with the path named
        out = tmp_path / "out"
        (out / "trace.csv").mkdir(parents=True)
        argv = ["run", "--netlist", str(rlc_net), "--tau", "1e-3", "--t-end", "0.004",
                "--out", str(out)]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: cannot write {out / 'trace.csv'}: [Errno 21] Is a directory")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("command", ["run", "converge"])
    def test_probe_of_unknown_element(self, rlc_net, tmp_path, capsys, command):
        argv = [command, "--netlist", str(rlc_net), "--tau", "1e-3", "--t-end", "0.004",
                "--out", str(tmp_path / "out"), "--probes", "x=v(nope)"]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown element 'nope'\n"
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("command", ["run", "converge"])
    def test_probe_of_a_two_winding_device(self, tmp_path, capsys, command):
        # v() of the demo's transformer once read its primary's voltage
        # without a word; a device of two windings has no one branch
        net = tmp_path / "demo.net"
        net.write_text(DEMO_NETLIST)
        argv = [command, "--netlist", str(net), "--mesh-density", "0.025", "--tau", "5e-3",
                "--t-end", "0.01", "--out", str(tmp_path / "out"), "--probes", "a=v(xfmr)"]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: probe 'v(xfmr)': element 'xfmr' has 2 windings; "
                                "v() reads a device of a single winding\n")
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["t", "H", "eps_H"])
    def test_probe_named_like_a_trace_column(self, rlc_net, tmp_path, capsys, name):
        # trace.csv writes t, H and eps_H itself: a probe of the same name
        # would give the header two columns of one name
        out = tmp_path / "out"
        argv = ["run", "--netlist", str(rlc_net), "--tau", "1e-3", "--t-end", "0.004",
                "--out", str(out), "--probes", f"v=v(r1),{name}=u(1)"]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: probe name {name!r} is reserved: trace.csv has "
                                f"its own column {name!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("header", ["depth", "vertices", "triangles", "regions",
                                        "windings"])
    def test_mesh_header_without_value(self, tmp_path, capsys, header):
        lines = list(MESH_LINES)
        lineno = header_lineno(header)
        lines[lineno - 1] = header
        err = run_with_mesh(tmp_path, lines, capsys)
        assert f"line {lineno}: '{header}' needs a value" in err

    @pytest.mark.parametrize("header", ["depth", "vertices", "triangles", "regions",
                                        "windings"])
    def test_mesh_header_with_extra_tokens(self, tmp_path, capsys, header):
        lines = list(MESH_LINES)
        lineno = header_lineno(header)
        lines[lineno - 1] += " 7 junk"
        err = run_with_mesh(tmp_path, lines, capsys)
        assert f"line {lineno}: '{header}' takes exactly one value, got 3" in err

    @pytest.mark.parametrize("header", ["vertices", "triangles", "regions", "windings"])
    def test_mesh_negative_count(self, tmp_path, capsys, header):
        lines = list(MESH_LINES)
        lineno = header_lineno(header)
        lines[lineno - 1] = f"{header} -1"
        err = run_with_mesh(tmp_path, lines, capsys)
        assert f"line {lineno}: '{header}' count must be non-negative, got -1" in err

    @pytest.mark.parametrize("lines, message", [
        (MESH_LINES[:6] + ("0 1 99999999999999999999 0",) + MESH_LINES[7:],
         "line 7: '0 1 99999999999999999999 0' has an integer out of the int64 range"),
        # checked before the 1e12 vertices are allocated
        (("depth 1.0", "vertices 1000000000000", "0 0"),
         "line 2: 'vertices' count 1000000000000 exceeds the 1 line(s) after it"),
        # a winding's orientation past what a float holds
        (MESH_LINES[:8] + ("0 1.0 0.0 0 1" + "0" * 400,) + MESH_LINES[9:],
         "winding 'w0': orientation entries must be +1 or -1"),
    ])
    def test_mesh_out_of_range_named(self, tmp_path, capsys, lines, message):
        mesh = tmp_path / "big.mesh"
        mesh.write_text("\n".join(lines) + "\n")
        net = tmp_path / "xfmr.net"
        net.write_text(LINEAR_COUPLED_NETLIST)
        assert run_cli(["check", "--netlist", str(net), "--mesh", str(mesh)]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.out + out.err
        assert f"error: {message}\n" in out.out

    @pytest.mark.parametrize("trailing", ["garbage 1 2 3", "vertices 5"])
    def test_mesh_content_after_windings(self, tmp_path, capsys, trailing):
        # the file ends after the windings section; more content is an error
        mesh = tmp_path / "long.mesh"
        mesh.write_text("\n".join(MESH_LINES + (trailing,)) + "\n")
        net = tmp_path / "xfmr.net"
        net.write_text(LINEAR_COUPLED_NETLIST)
        assert run_cli(["check", "--netlist", str(net), "--mesh", str(mesh)]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        assert (f"error: line {len(MESH_LINES) + 1}: expected the end of the file after the "
                f"windings, got '{trailing.split()[0]}'") in out.out


class TestRun:
    def test_writes_trace_and_audit(self, rlc_net, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["run", "--netlist", str(rlc_net), "--tau", "5e-4",
                        "--t-end", "0.02", "--out", str(out),
                        "--probes", "v_r=v(r1),u1=u(1)"])
        assert code == 0
        header, rows = read_csv(out / "trace.csv")
        assert header == ["t", "v_r", "u1", "H", "eps_H"]
        assert len(rows) == 40
        times = [float(r[0]) for r in rows]
        assert all(b > a for a, b in zip(times, times[1:]))
        header, rows = read_csv(out / "audit.csv")
        assert header[:3] == ["t", "d_tau_H", "resistive_loss"]
        assert header[-1] == "eps_H_rel"
        assert max(abs(float(r[6])) for r in rows) <= 1e-10

    @pytest.mark.parametrize("text", SOURCE_CAPACITOR_NETLISTS)
    def test_sources_and_capacitors_only(self, tmp_path, text):
        path = tmp_path / "c.net"
        path.write_text(text)
        out = tmp_path / "out"
        assert run_cli(["run", "--netlist", str(path), "--t-end", "0.005",
                        "--out", str(out)]) == 0
        header, rows = read_csv(out / "audit.csv")
        eps_h = [abs(float(r[header.index("eps_H")])) for r in rows]
        assert len(rows) == 8 and max(eps_h) <= 1e-12

    def test_empty_probe_list_columns(self, rlc_net, tmp_path):
        out = tmp_path / "out"
        run_cli(["run", "--netlist", str(rlc_net), "--tau", "1e-3",
                 "--t-end", "0.01", "--out", str(out)])
        header, _rows = read_csv(out / "trace.csv")
        assert header == ["t", "H", "eps_H"]

    def test_csv_round_trip_is_exact(self, rlc_net, tmp_path):
        from mona.circuit import build_incidence
        from mona.coupling import assemble_coupled
        from mona.netlist import parse_netlist
        from mona.probes import compile_probe
        from mona.stepping import TimeGrid, run_transient

        out = tmp_path / "out"
        run_cli(["run", "--netlist", str(rlc_net), "--tau", "5e-4",
                 "--t-end", "0.02", "--out", str(out), "--probes", "psi3=psi(3)"])
        _header, rows = read_csv(out / "trace.csv")
        parsed = parse_netlist(RLC)
        graph = build_incidence(parsed.elements, parsed.n_nodes)
        system = assemble_coupled(graph)
        probes = {"psi3": compile_probe(system, "psi(3)", parsed.node_ids)}
        result = run_transient(system, TimeGrid(0.0, 0.02, 5e-4), probes=probes)
        series = result.probe("psi3")
        for row, expected in zip(rows, series):
            assert float(row[1]) == expected  # bit-exact after %.17g round trip

    def test_deterministic_outputs(self, rlc_net, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            run_cli(["run", "--netlist", str(rlc_net), "--tau", "1e-3",
                     "--t-end", "0.01", "--out", str(out)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "audit.csv").read_bytes() == (out2 / "audit.csv").read_bytes()

    def test_inconsistent_source_exit_code(self, tmp_path, capsys):
        path = tmp_path / "dc.net"
        path.write_text("V src 1 0 DC 5\nR r1 1 0 1\n")
        code = run_cli(["run", "--netlist", str(path), "--tau", "1e-3",
                        "--t-end", "0.01", "--out", str(tmp_path)])
        assert code == 1
        assert "vanish at t0" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, rlc_net, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "run_transient", boom)
        code = run_cli(["run", "--netlist", str(rlc_net), "--tau", "1e-3",
                        "--t-end", "0.01", "--out", str(tmp_path)])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err

    def test_failed_run_leaves_partial_traces(self, rlc_net, tmp_path, monkeypatch,
                                              capsys):
        argv = ["run", "--netlist", str(rlc_net), "--tau", "1e-3", "--t-end", "0.01",
                "--probes", "v_r=v(r1)"]
        assert run_cli([*argv, "--out", str(tmp_path / "full")]) == 0
        step = mona.stepping.midpoint_step

        def fail_at_step_5(*args, index, **kwargs):
            if index == 5:
                raise SolverError("synthetic failure")
            return step(*args, index=index, **kwargs)

        monkeypatch.setattr(mona.stepping, "midpoint_step", fail_at_step_5)
        capsys.readouterr()
        assert run_cli([*argv, "--out", str(tmp_path / "cut")]) == 2
        assert "solver failure: synthetic failure" in capsys.readouterr().err
        full = (tmp_path / "full" / "trace.csv").read_text().splitlines()
        cut = (tmp_path / "cut" / "trace.csv").read_text().splitlines()
        assert cut == full[:5]  # the header and the 4 accepted steps
        header, rows = read_csv(tmp_path / "cut" / "audit.csv")
        full_header, full_rows = read_csv(tmp_path / "full" / "audit.csv")
        assert header == full_header and len(rows) == 4
        # eps_H_rel is relative to the peak supplied power of the rows written
        rel = header.index("eps_H_rel")
        assert ([row[:rel] + row[rel + 1:] for row in rows]
                == [row[:rel] + row[rel + 1:] for row in full_rows[:4]])


class TestConverge:
    def test_rlc_eoc_table(self, rlc_net, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["converge", "--netlist", str(rlc_net), "--tau", "1e-3",
                        "--t-end", "0.04", "--halvings", "2", "--out", str(out),
                        "--probes", "p=psi(3)"])
        assert code == 0
        header, rows = read_csv(out / "eoc.csv")
        assert header == ["tau", "eps_tau", "eoc", "max_eps_H"]
        assert len(rows) == 3
        assert rows[0][2] == ""
        for row in rows[1:]:
            assert 1.9 <= float(row[2]) <= 2.1

    def test_probe_that_never_moves(self, tmp_path, capsys):
        # every error is zero, so no order can be observed
        path = tmp_path / "still.net"
        path.write_text("V src 1 0 SIN(0 60)\nR load 1 0 10\n")
        out = tmp_path / "out"
        code = run_cli(["converge", "--netlist", str(path), "--tau", "1e-3",
                        "--t-end", "0.004", "--halvings", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        _header, rows = read_csv(out / "eoc.csv")
        assert [(float(r[1]), r[2]) for r in rows] == [(0.0, "")] * 3
        assert captured.out.count("eoc=--") == 3

    @pytest.mark.parametrize("spec", [",", " ", " , "])
    def test_probe_spec_that_names_no_probe(self, rlc_net, tmp_path, capsys, spec):
        out = tmp_path / "out"
        code = run_cli(["converge", "--netlist", str(rlc_net), "--tau", "1e-3",
                        "--t-end", "0.004", "--halvings", "1", "--out", str(out),
                        "--probes", spec])
        err = capsys.readouterr().err
        assert code == 1
        assert f"--probes {spec!r} names no probe" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_more_than_one_probe_rejected(self, rlc_net, tmp_path, capsys):
        # a study has one probe: the second is not dropped silently
        out = tmp_path / "out"
        spec = "a=v(r1),b=u(1)"
        code = run_cli(["converge", "--netlist", str(rlc_net), "--tau", "1e-3",
                        "--t-end", "0.004", "--halvings", "1", "--out", str(out),
                        "--probes", spec])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (f"error: --probes {spec!r} names 2 probes; converge "
                                f"studies exactly one\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("halvings", ["0", "-2"])
    def test_bad_halvings_fail_before_assembly(self, rlc_net, tmp_path, capsys,
                                               monkeypatch, halvings):
        def never(*args, **kwargs):
            raise AssertionError("the system was assembled")

        monkeypatch.setattr(cli, "assemble_netlist", never)
        out = tmp_path / "out"
        code = run_cli(["converge", "--netlist", str(rlc_net), "--tau", "1e-3",
                        "--t-end", "0.004", "--halvings", halvings, "--out", str(out)])
        assert code == 1
        assert f"--halvings must be at least 1, got {halvings}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, options", [
        ("run", ["--tau", "1e-300", "--t-end", "1e10"]),
        ("converge", ["--mesh-density", "0.025", "--tau", "5e-3", "--t-end", "0.01",
                      "--halvings", "2000"]),
    ])
    def test_overflowing_step_count_named(self, rlc_net, tmp_path, capsys, command, options):
        # run's step count, and converge's after 1023 of its halvings, is
        # past binary64: a named error before any step is taken
        argv = [command, *options, "--out", str(tmp_path / "out")]
        if command == "run":
            argv += ["--netlist", str(rlc_net)]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: (t_end - t0)/tau = inf is not a finite number of steps\n"

    def test_broken_certificate_warns_per_leg(self, tmp_path, capsys):
        # at h = 0.004 and tau = 5e-3 both studied legs break the balance
        # certificate: each prints run's warning line with its tau after
        # "warning:", and eoc.csv and standard output are as without them
        out = tmp_path / "out"
        code = run_cli(["converge", "--mesh-density", "0.004", "--tau", "5e-3",
                        "--t-end", "0.05", "--halvings", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" not in captured.out
        _header, rows = read_csv(out / "eoc.csv")
        lines = captured.err.splitlines()
        assert len(lines) == len(rows) == 2
        for line, row, steps in zip(lines, rows, (10, 20)):
            match = re.fullmatch(rf"warning: tau={float(row[0]):.6g}: (\d+) of {steps} steps "
                                 r"break the balance certificate \(\|eps_H\| > 1e-10 W or > "
                                 r"1e-12 of the peak supplied power\); worst \|eps_H\| = (\S+) W "
                                 r"at t = \S+ s", line)
            assert match, line
            assert 0 < int(match[1]) <= steps
            assert match[2] == f"{float(row[3]):.3e}"

    def test_demo_default_netlist(self, tmp_path, capsys):
        # no --netlist: the built-in rectifier is studied with the default
        # load-node state probe
        out = tmp_path / "out"
        code = run_cli(["converge", "--mesh-density", "0.025", "--tau", "2.5e-3",
                        "--t-end", "0.025", "--halvings", "1", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "eoc.csv")
        assert len(rows) == 2
        assert float(rows[1][2]) > 1.0
        assert capsys.readouterr().err == ""  # no leg breaks the certificate


class TestDemoRectifier:
    def test_demo_outputs(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = run_cli(["demo-rectifier", "--mesh-density", "0.025",
                        "--tau", "1.25e-3", "--t-end", "0.025", "--out", str(out)])
        assert code == 0
        assert (out / "demo.net").exists()
        assert (out / "transformer.mesh").exists()
        header, rows = read_csv(out / "trace.csv")
        assert header[:3] == ["t", "v_src", "v_R"]
        v_r = np.array([float(r[2]) for r in rows])
        assert v_r.min() >= -1.0
        assert v_r.max() > 10.0
        # the dumped netlist and mesh reproduce the run
        from mona.fem import load_mesh
        mesh, _mats, winds = load_mesh(out / "transformer.mesh")
        assert mesh.n_triangles == 512
        assert len(winds) == 2

    def test_broken_certificate_warns(self, tmp_path, capsys):
        # at h = 0.004 and tau = 5e-3 the demo's steps break the balance
        # certificate: the run still exits 0 and writes its outputs, and one
        # line on standard error names the steps over the bounds and the worst
        out = tmp_path / "broken"
        code = run_cli(["demo-rectifier", "--mesh-density", "0.004", "--tau", "5e-3",
                        "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" not in captured.out
        assert len(captured.err.splitlines()) == 1
        match = re.fullmatch(r"warning: (\d+) of 10 steps break the balance certificate "
                             r"\(\|eps_H\| > 1e-10 W or > 1e-12 of the peak supplied power\); "
                             r"worst \|eps_H\| = (\S+) W at t = (\S+) s", captured.err.strip())
        assert match, captured.err
        header, rows = read_csv(out / "audit.csv")
        eps = np.array([float(r[header.index("eps_H")]) for r in rows])
        rel = np.array([float(r[header.index("eps_H_rel")]) for r in rows])
        over = (np.abs(eps) > 1e-10) | (np.abs(rel) > 1e-12)
        assert int(match[1]) == np.count_nonzero(over) > 0
        worst = int(np.argmax(np.abs(eps)))
        assert match[2] == f"{abs(eps[worst]):.3e}"
        assert match[3] == f"{float(rows[worst][0]):.6g}"

        assert run_cli(["demo-rectifier", "--mesh-density", "0.025", "--t-end", "0.005",
                        "--out", str(tmp_path / "passing")]) == 0
        assert capsys.readouterr().err == ""

    def test_nan_certificate_warns(self, tmp_path, capsys):
        # a 1e154 V (or A) source is accepted, but through a 1e-6 (1e6) ohm
        # load its power overflows to inf and eps_H to NaN on every step; the
        # run exits 0, its one warning names the NaN, and numpy warns of no
        # overflow (a warning is an error under this suite's filterwarnings)
        for kind, load, column in (("V", "1e-6", "source_power_V"),
                                   ("I", "1e6", "source_power_I")):
            path = tmp_path / f"{kind}.net"
            path.write_text(f"{kind} a 1 0 SIN(1e154 50)\nR r 1 0 {load}\n")
            out = tmp_path / kind
            assert run_cli(["run", "--netlist", str(path), "--tau", "5e-4",
                            "--t-end", "0.005", "--out", str(out)]) == 0
            err = capsys.readouterr().err
            assert re.fullmatch(r"warning: 10 of 10 steps break the balance certificate "
                                r".*; worst \|eps_H\| = nan W at t = \S+ s\n", err), err
            header, rows = read_csv(out / "audit.csv")
            assert len(rows) == 10
            for row in rows:
                assert row[header.index("resistive_loss")] == "inf"
                assert row[header.index(column)] == "-inf"
                assert row[header.index("eps_H")] == row[header.index("eps_H_rel")] == "nan"

    def test_dumped_mesh_reproduces_builtin(self, tmp_path):
        # the demo is a run of its dumped netlist with the demo probes, and
        # the dumped mesh stands in for the built-in one
        demo_out = tmp_path / "demo"
        run_cli(["demo-rectifier", "--mesh-density", "0.025",
                 "--tau", "1.25e-3", "--t-end", "0.0125", "--out", str(demo_out)])
        args = ["--tau", "1.25e-3", "--t-end", "0.0125",
                "--probes", DEMO_PROBES, "--netlist", str(demo_out / "demo.net")]
        via_builtin = tmp_path / "builtin"
        via_file = tmp_path / "file"
        run_cli(["run", *args, "--mesh-density", "0.025", "--out", str(via_builtin)])
        run_cli(["run", *args, "--mesh", str(demo_out / "transformer.mesh"),
                 "--out", str(via_file)])
        for name in ("trace.csv", "audit.csv"):
            assert (via_builtin / name).read_bytes() == (demo_out / name).read_bytes()
        assert (via_builtin / "trace.csv").read_bytes() == \
            (via_file / "trace.csv").read_bytes()

    def test_field_mesh_file_beside_the_netlist(self, tmp_path, monkeypatch, capsys):
        # FIELD=transformer.mesh names a file in the netlist's directory,
        # not in the working directory: the dumped netlist rewritten to it
        # runs from elsewhere as with --mesh on that file
        demo = tmp_path / "demo"
        assert run_cli(["demo-rectifier", "--mesh-density", "0.025", "--tau", "1.25e-3",
                        "--t-end", "0.005", "--out", str(demo)]) == 0
        text = (demo / "demo.net").read_text()
        assert "FIELD=builtin" in text
        netlist = demo / "mesh.net"
        netlist.write_text(text.replace("FIELD=builtin", "FIELD=transformer.mesh"))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        args = ["--netlist", str(netlist), "--tau", "1.25e-3", "--t-end", "0.005"]
        assert run_cli(["check", "--netlist", str(netlist)]) == 0
        assert run_cli(["run", *args, "--out", "via_ref"]) == 0
        assert run_cli(["run", *args, "--mesh", str(demo / "transformer.mesh"),
                        "--out", "via_mesh"]) == 0
        assert "error" not in capsys.readouterr().err
        for name in ("trace.csv", "audit.csv"):
            assert (elsewhere / "via_ref" / name).read_bytes() == \
                (elsewhere / "via_mesh" / name).read_bytes()
        assert not (elsewhere / "transformer.mesh").exists()


def test_tables_and_their_checks(tmp_path):
    from mona.circuit import build_incidence
    from mona.cli import CsvTrace, eoc_table, trace_table
    from mona.coupling import assemble_coupled
    from mona.netlist import parse_netlist
    from mona.stepping import TimeGrid, convergence_study, run_transient
    from mona.probes import compile_probe

    parsed = parse_netlist(RLC)
    graph = build_incidence(parsed.elements, parsed.n_nodes)
    system = assemble_coupled(graph)
    result = run_transient(system, TimeGrid(0.0, 0.01, 1e-3))
    trace_table(result, []).write(tmp_path / "a.csv")
    assert (tmp_path / "a.csv").read_text().startswith("t,H,eps_H")

    rows = convergence_study(system, TimeGrid(0.0, 0.02, 1e-3), halvings=1,
                             probe=compile_probe(system, "psi(3)", parsed.node_ids))
    eoc_table(rows).write(tmp_path / "b.csv")
    assert (tmp_path / "b.csv").read_text().startswith("tau,eps_tau")

    with pytest.raises(ValueError, match="strictly increasing"):
        CsvTrace(header=["t", "x"], rows=[[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="width"):
        CsvTrace(header=["t", "x"], rows=[[1.0]])


def test_unknown_subcommand_exit_code():
    assert run_cli(["frobnicate"]) == 1


def test_console_entry_exit_status(rlc_net, tmp_path):
    # the installed ``mona`` script calls mona.cli:main
    loop = tmp_path / "loop.net"
    loop.write_text(VLOOP)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for netlist, status in ((rlc_net, 0), (loop, 1), (tmp_path, 1)):
        done = subprocess.run(
            [sys.executable, "-c", "from mona.cli import main; main()",
             "check", "--netlist", str(netlist)],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == status, done.stderr
        assert "Traceback" not in done.stderr


def test_module_entry_point(tmp_path):
    # ``python -m mona.cli`` runs the CLI and passes its exit status on
    one = tmp_path / "one.net"
    one.write_text("V src 1 0 SIN(1 60)\nM x 1 0 FIELD=builtin\n")
    demo = tmp_path / "demo.net"
    demo.write_text(DEMO_NETLIST)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for netlist, status, line in (
            (one, 1, "error: device branch count (1) does not match winding count (2)"),
            (demo, 0, "7 elements, 4 nodes: ok")):
        done = subprocess.run(
            [sys.executable, "-m", "mona.cli", "check", "--netlist", str(netlist),
             "--mesh-density", "0.025"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == status, done.stderr
        assert line in done.stdout.splitlines()


def test_log_level_from_environment(rlc_net, monkeypatch):
    import logging

    monkeypatch.setenv("MONA_LOG", "debug")
    run_cli(["check", "--netlist", str(rlc_net)])
    assert logging.getLogger("mona").level == logging.DEBUG
    monkeypatch.setenv("MONA_LOG", "error")
    run_cli(["check", "--netlist", str(rlc_net)])
    assert logging.getLogger("mona").level == logging.ERROR
