"""Tests for the command-line figure runner."""

import pytest

from repro import cli


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out
        assert "ext_starvation" in out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_runs_a_cheap_figure(self, capsys):
        assert cli.main(["fig02"]) == 0
        out = capsys.readouterr().out
        assert "Workload characterisation" in out

    def test_out_writes_file(self, tmp_path, capsys):
        assert cli.main(["fig02", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        written = tmp_path / "fig02.txt"
        assert written.exists()
        assert "top 10%" in written.read_text()

    def test_every_registered_runner_is_callable(self):
        for name, runner in cli.RUNNERS.items():
            assert callable(runner), name


def test_out_json_writes_json(tmp_path, capsys):
    import json

    from repro import cli

    assert cli.main(["fig02", "--out", str(tmp_path), "--json"]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "fig02.json").read_text())
    assert payload["name"] == "fig02"
    assert payload["rows"]


class TestTopologySubcommand:
    """`repro topology` dumps the TopologyBuilder's wiring plan as JSON."""

    ARGS = ["topology", "--ls", "1", "--ba", "1", "--nodes", "2",
            "--placement", "round_robin"]

    def _dump(self, capsys):
        import json

        assert cli.main(list(self.ARGS)) == 0
        return json.loads(capsys.readouterr().out)

    def test_dump_shape(self, capsys):
        dump = self._dump(capsys)
        assert set(dump) == {"operators", "placements", "channels",
                             "reply_routes", "contexts_enabled"}
        assert dump["contexts_enabled"] is True
        operators = dump["operators"]
        assert operators, "plan must list operators"
        entry = operators[0]
        for field in ("address", "job", "stage", "index", "kind", "node",
                      "built_on_node", "migrations", "is_source", "is_sink",
                      "has_converter", "input_channels"):
            assert field in entry, field

    def test_placements_cover_every_operator(self, capsys):
        dump = self._dump(capsys)
        placements = dump["placements"]
        assert set(placements) == {o["address"] for o in dump["operators"]}
        assert all(0 <= node < 2 for node in placements.values())
        # round-robin over two nodes uses both
        assert set(placements.values()) == {0, 1}

    def test_channels_connect_known_operators(self, capsys):
        dump = self._dump(capsys)
        known = {o["address"] for o in dump["operators"]}
        for channel in dump["channels"]:
            assert channel["dst"] in known
            src = channel["src"]
            assert src in known or src.startswith("client:")

    def test_dump_is_deterministic(self, capsys):
        assert self._dump(capsys) == self._dump(capsys)

    def test_out_writes_file(self, tmp_path, capsys):
        import json

        target = tmp_path / "plan.json"
        assert cli.main(list(self.ARGS) + ["--out", str(target)]) == 0
        capsys.readouterr()
        assert json.loads(target.read_text())["operators"]

    def test_rejects_empty_mix(self):
        with pytest.raises(SystemExit):
            cli.main(["topology", "--ls", "0", "--ba", "0"])


class TestTraceSubcommand:
    """`repro trace` runs a traced scenario and exports both trace files."""

    def _run(self, tmp_path, capsys, *extra):
        import json

        args = ["trace", "mix", "--ls", "1", "--ba", "1", "--duration", "2",
                "--out", str(tmp_path), *extra]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        summary = json.loads(out.split("\n\n")[0])
        return summary, out

    def test_writes_validated_trace_files(self, tmp_path, capsys):
        import json

        from repro.obs.schema import validate_chrome_trace

        summary, _ = self._run(tmp_path, capsys)
        chrome = tmp_path / "trace_mix_cameo.json"
        jsonl = tmp_path / "trace_mix_cameo.jsonl"
        assert chrome.exists() and jsonl.exists()
        payload = json.loads(chrome.read_text())
        assert validate_chrome_trace(payload) == []
        assert summary["trace"]["spans"] > 0
        assert summary["trace"]["outputs"] > 0
        lines = jsonl.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        assert len(lines) == 1 + summary["trace"]["spans"] + \
            summary["trace"]["sched_samples"]

    def test_attribution_flag_prints_table(self, tmp_path, capsys):
        _, out = self._run(tmp_path, capsys, "--attribution")
        # every traced job gets a header line, missed or not
        assert "outputs missed the" in out
        assert "ls0" in out and "ba0" in out

    def test_ext_faults_scenario_reports_backoff(self, tmp_path, capsys):
        import json

        args = ["trace", "ext_faults", "--ls", "1", "--ba", "1",
                "--duration", "4", "--out", str(tmp_path), "--seed", "2"]
        assert cli.main(args) == 0
        summary = json.loads(capsys.readouterr().out.split("\n\n")[0])
        assert "backoff_by_channel" in summary
        assert summary["retransmit_backoff_time"] >= 0.0
        assert (tmp_path / "trace_ext_faults_cameo.json").exists()

    def test_schema_cli_validates_written_trace(self, tmp_path, capsys):
        from repro.obs import schema

        self._run(tmp_path, capsys)
        path = str(tmp_path / "trace_mix_cameo.json")
        assert schema.main([path]) == 0
        out = capsys.readouterr().out
        assert "ok (" in out

    def test_sim_only_scenario_on_mp_returns_2(self, tmp_path, capsys):
        args = ["trace", "ext_checkpoint", "--backend", "mp",
                "--out", str(tmp_path)]
        assert cli.main(args) == 2
        assert "no mp realization" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


FAULT_KEYS = {"scenario", "scheduler", "shed_expired", "schedule",
              "fault_report", "detection_latencies", "timeline"}


class TestReportSubcommands:
    """`repro faults|state|checkpoint` print one JSON report each."""

    @pytest.mark.parametrize("argv,keys", [
        (["faults", "--duration", "10"], FAULT_KEYS),
        (["faults", "--scenario", "ext_partition", "--duration", "6"],
         FAULT_KEYS | {"invariant"}),
        (["state", "--duration", "3"], {"operators", "totals"}),
        (["checkpoint", "--duration", "10"],
         {"mode", "scheduler", "fault_report", "checkpoints", "unacked_peak",
          "unacked_final", "timeline"}),
    ], ids=["faults", "faults-ext_partition", "state", "checkpoint"])
    def test_report_keys_and_out_file(self, argv, keys, tmp_path, capsys):
        import json

        out_file = tmp_path / "report.json"
        args = [*argv, "--ls", "1", "--ba", "1", "--out", str(out_file)]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert set(json.loads(out)) == keys
        assert out_file.read_text() == out

    def test_reports_reflect_the_run(self, capsys):
        import json

        assert cli.main(["faults", "--ls", "1", "--ba", "1", "--duration", "10",
                         "--shed"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["shed_expired"] is True
        assert report["fault_report"]["crashes"] == 2  # t=8 and t=10
        assert cli.main(["checkpoint", "--ls", "1", "--ba", "1", "--duration",
                         "10", "--mode", "replay"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "replay"
        assert report["fault_report"]["checkpoints_taken"] == 0

    @pytest.mark.parametrize("scenario,key", [
        ("ext_faults", "crashes"), ("ext_partition", "partitions"),
    ])
    def test_describe_runs_nothing(self, scenario, key, capsys, monkeypatch):
        import json

        def no_build(*args, **kwargs):
            raise AssertionError("--describe must not build an engine")

        monkeypatch.setattr(cli, "build_tenant_mix", no_build)
        assert cli.main(["faults", "--scenario", scenario, "--describe"]) == 0
        described = json.loads(capsys.readouterr().out)
        assert described["enabled"] and described[key]

    @pytest.mark.parametrize("argv,message", [
        (["faults", "--nodes", "2"],
         "crash window targets node 2 but the cluster has 2 nodes"),
        (["faults", "--scenario", "ext_partition", "--nodes", "2"],
         "partition group references node 2 but the cluster has 2 nodes"),
        (["checkpoint", "--nodes", "1"],
         "crash window targets node 1 but the cluster has 1 nodes"),
        (["trace", "ext_partition", "--nodes", "2"],
         "partition group references node 2 but the cluster has 2 nodes"),
    ], ids=["faults", "faults-ext_partition", "checkpoint", "trace"])
    def test_too_small_cluster_is_a_usage_error(self, argv, message, capsys):
        # used to escape as a ValueError traceback from EngineConfig
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
