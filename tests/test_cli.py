"""Tests for the WebTassili shell (python -m repro)."""

import io

import pytest

from repro.apps.healthcare import topology as topo
from repro import cli
from repro.cli import Shell, main


@pytest.fixture()
def shell(healthcare):
    output = io.StringIO()
    return Shell(healthcare, topo.QUT, output=output), output


class TestShell:
    def test_statement_executes(self, shell):
        repl, output = shell
        assert repl.handle("Find Coalitions With Information Medical Research")
        assert "Research" in output.getvalue()

    def test_error_reported_not_raised(self, shell):
        repl, output = shell
        assert repl.handle("Display Instances of Class Nonexistent")
        assert "error: UnknownCoalition" in output.getvalue()

    def test_syntax_error_reported(self, shell):
        repl, output = shell
        assert repl.handle("Destroy Everything")
        assert "error: WebTassiliSyntaxError" in output.getvalue()

    def test_blank_line_ignored(self, shell):
        repl, output = shell
        assert repl.handle("   ")
        assert output.getvalue() == ""

    def test_quit(self, shell):
        repl, __ = shell
        assert repl.handle("\\quit") is False
        assert repl.handle("\\q") is False

    def test_help(self, shell):
        repl, output = shell
        repl.handle("\\help")
        assert "Meta-commands" in output.getvalue()

    def test_tree(self, shell):
        repl, output = shell
        repl.handle("\\tree")
        assert "+ Research" in output.getvalue()

    def test_session_info(self, shell):
        repl, output = shell
        repl.handle("\\session")
        text = output.getvalue()
        assert f"home:      {topo.QUT}" in text

    def test_metrics(self, shell):
        repl, output = shell
        repl.handle("Find Coalitions With Information Medical")
        repl.handle("\\metrics")
        assert "GIOP messages:" in output.getvalue()

    def test_rehome(self, shell):
        repl, output = shell
        repl.handle("\\home Royal Brisbane Hospital")
        repl.handle("\\session")
        assert "home:      Royal Brisbane Hospital" in output.getvalue()

    def test_rehome_unknown(self, shell):
        repl, output = shell
        repl.handle("\\home Atlantis")
        assert "error" in output.getvalue()

    def test_unknown_meta(self, shell):
        repl, output = shell
        repl.handle("\\frobnicate")
        assert "unknown meta-command" in output.getvalue()

    def test_run_reads_until_quit(self, shell):
        repl, output = shell
        stream = io.StringIO("Find Coalitions With Information Medical\n"
                             "\\quit\n"
                             "Display Instances of Class Research\n")
        repl.run(stream, interactive=False)
        text = output.getvalue()
        assert "bye." in text
        assert "Instances of Class Research" not in text


class TestMain:
    def test_statement_mode(self):
        output = io.StringIO()
        code = main(["-s", "Find Coalitions With Information "
                           "Medical Research"], output=output)
        assert code == 0
        assert "Research" in output.getvalue()

    def test_custom_home(self):
        output = io.StringIO()
        main(["--home", "Royal Brisbane Hospital",
              "-s", "Display Instances of Class Medical"], output=output)
        assert "Prince Charles Hospital" in output.getvalue()

    def test_stream_mode(self):
        output = io.StringIO()
        stream = io.StringIO("\\session\n\\quit\n")
        code = main([], input_stream=stream, output=output)
        assert code == 0
        assert "bye." in output.getvalue()

    @pytest.mark.parametrize("flags, loop_enabled, pipelined", [
        (["--tcp"], False, False),
        (["--tcp", "--transport-loop"], True, "auto"),
        (["--tcp", "--stripes", "2"], True, True),
    ], ids=["tcp", "transport-loop", "stripes"])
    def test_tcp_spellings_build_the_transport_they_name(
            self, monkeypatch, flags, loop_enabled, pipelined):
        """Plain ``--tcp`` is the default ``TcpTransport()`` (serial,
        thread-per-connection); the event loop and pipelining are
        asked for, never implied."""
        monkeypatch.delenv("REPRO_TRANSPORT_LOOP", raising=False)
        built = []
        deploy = cli.build_healthcare_system

        def recording_deploy(**kwargs):
            built.append(kwargs["transport"])
            return deploy(**kwargs)

        monkeypatch.setattr(cli, "build_healthcare_system",
                            recording_deploy)
        output = io.StringIO()
        code = main(flags + ["-s", "Find Coalitions With Information "
                                   "Medical Research"], output=output)
        assert code == 0
        assert "Research" in output.getvalue()
        (transport,) = built
        assert transport.loop_enabled is loop_enabled
        assert transport.pipelined == pipelined
