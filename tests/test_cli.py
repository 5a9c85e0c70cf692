"""Tests for the WebTassili shell (python -m repro)."""

import io

import pytest

from repro.apps.healthcare import build_healthcare_system
from repro.apps.healthcare import topology as topo
from repro import cli
from repro.cli import Shell, main
from repro.orb import TcpTransport


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

    @pytest.mark.parametrize("literal", ["1.2.3", "\u00b2"])
    def test_malformed_number_reported_and_shell_keeps_reading(
            self, shell, literal):
        repl, output = shell
        assert repl.handle(f"Invoke Funding Of Type ResearchProjects "
                           f"On '{topo.RBH}' With ({literal})")
        assert "error: WebTassiliSyntaxError: malformed number" \
            in output.getvalue()
        assert repl.handle("\\session")
        assert f"home:      {topo.QUT}" in output.getvalue()

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

    @pytest.mark.parametrize("flags, loop_workers", [
        (["--tcp"], 6),
        (["--tcp", "--loop-workers", "3"], 3),
    ], ids=["tcp", "loop-workers"])
    def test_tcp_spellings_build_the_transport_they_name(
            self, monkeypatch, flags, loop_workers):
        """``--tcp`` builds a ``TcpTransport`` (one server, one pooled
        serial client); ``--loop-workers`` sizes its event loop."""
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
        assert isinstance(transport, TcpTransport)
        assert transport.loop_workers == loop_workers

    @pytest.mark.parametrize("flags", [["--stripes", "2"],
                                       ["--pipeline-depth", "8"]],
                             ids=["stripes", "pipeline-depth"])
    def test_there_is_no_client_mode_flag(self, flags, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--tcp", *flags, "-s", "Find Coalitions With "
                                         "Information Medical Research"])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReplicas:
    """``\\replicas [name]``: one line per replica, and in quorum mode
    the lease holder and fence epoch the registry reports."""

    def test_default_deployment_has_no_replicas(self):
        output = io.StringIO()
        assert main(["-s", "\\replicas"], output=output) == 0
        assert "no replicated co-databases" in output.getvalue()

    def test_one_line_per_replica(self):
        output = io.StringIO()
        main(["--replicas", "3", "-s", f"\\replicas {topo.MEDIBANK}"],
             output=output)
        lines = output.getvalue().splitlines()
        assert lines[0].startswith(f"  {topo.MEDIBANK} (epoch ")
        replicas = [line.split(":")[0].strip() for line in lines[1:]]
        assert replicas == ["r0", "r1", "r2"]
        assert all(": up, epoch " in line for line in lines[1:])
        assert "lease" not in output.getvalue()

    def test_every_source_listed_without_a_name(self):
        output = io.StringIO()
        main(["--replicas", "3", "-s", "\\replicas"], output=output)
        text = output.getvalue()
        assert all(f"  {name} (epoch " in text
                   for name in topo.ALL_DATABASES)

    def test_quorum_prints_lease_holder_and_fence(self):
        deployment = build_healthcare_system(replication_factor=3,
                                             quorum=True)
        output = io.StringIO()
        repl = Shell(deployment, topo.QUT, output=output)
        repl.handle(f"\\replicas {topo.MEDIBANK}")
        lease = deployment.system.registry.leases()[topo.MEDIBANK]
        epoch = deployment.system.replica_status(topo.MEDIBANK)["epoch"]
        lines = output.getvalue().splitlines()
        assert lines[0] == (f"  {topo.MEDIBANK} (epoch {epoch}, quorum 2/3, "
                            f"lease {lease['holder']} "
                            f"@ fence {lease['fence']}):")
        assert len(lines) == 4
        assert all(line.endswith(f"promised fence {lease['fence']}")
                   for line in lines[1:])

    def test_unknown_name_is_an_error_line(self):
        output = io.StringIO()
        main(["--replicas", "3", "-s", "\\replicas Atlantis"],
             output=output)
        assert output.getvalue().startswith("error: ")
        assert "Atlantis" in output.getvalue()
