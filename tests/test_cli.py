"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "catfish"
        assert args.fabric == "ib-100g"
        assert args.clients == 16

    def test_run_custom(self):
        args = build_parser().parse_args([
            "run", "--scheme", "tcp", "--fabric", "eth-1g",
            "--clients", "4", "--requests", "10", "--scale", "0.01",
        ])
        assert args.scheme == "tcp"
        assert args.fabric == "eth-1g"
        assert args.clients == 4

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "quic"])

    def test_unknown_fabric_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fabric", "token-ring"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    SMALL = ["--clients", "2", "--requests", "5",
             "--dataset-size", "500", "--server-cores", "2"]

    def test_schemes_lists_all(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for scheme in ("catfish", "tcp", "fast-messaging",
                       "rdma-offloading"):
            assert scheme in out

    def test_run_prints_result_row(self, capsys):
        code = main(["run", "--scheme", "catfish"] + self.SMALL)
        assert code == 0
        out = capsys.readouterr().out
        assert "catfish" in out
        assert "Kops" in out

    def test_run_verbose(self, capsys):
        code = main(["run", "--scheme", "catfish", "-v"] + self.SMALL)
        assert code == 0
        out = capsys.readouterr().out
        assert "heartbeats" in out
        assert "p50/p99" in out

    def test_run_rejects_rdma_scheme_on_ethernet(self, capsys):
        code = main(["run", "--scheme", "catfish",
                     "--fabric", "eth-1g"] + self.SMALL)
        assert code == 2
        assert "RDMA fabric" in capsys.readouterr().err

    def test_run_tcp_on_ethernet(self, capsys):
        code = main(["run", "--scheme", "tcp",
                     "--fabric", "eth-1g"] + self.SMALL)
        assert code == 0
        assert "tcp" in capsys.readouterr().out

    def test_compare_default_four(self, capsys):
        code = main(["compare"] + self.SMALL)
        assert code == 0
        out = capsys.readouterr().out
        for scheme in ("tcp", "fast-messaging", "rdma-offloading",
                       "catfish"):
            assert scheme in out

    def test_compare_custom_schemes(self, capsys):
        code = main(["compare", "--schemes", "catfish",
                     "fast-messaging-event"] + self.SMALL)
        assert code == 0
        out = capsys.readouterr().out
        assert "fast-messaging-event" in out

    def test_compare_unknown_scheme(self, capsys):
        code = main(["compare", "--schemes", "quic"] + self.SMALL)
        assert code == 2

    def test_hybrid_workload(self, capsys):
        code = main(["run", "--scheme", "catfish",
                     "--workload", "hybrid"] + self.SMALL)
        assert code == 0

    def test_kv_btree(self, capsys):
        code = main(["run", "--index", "btree", "--scheme", "catfish",
                     "--clients", "2", "--requests", "10",
                     "--dataset-size", "500", "--server-cores", "2"])
        assert code == 0
        assert "btree:catfish" in capsys.readouterr().out

    def test_kv_cuckoo_bandit(self, capsys):
        code = main(["run", "--index", "cuckoo",
                     "--scheme", "catfish-bandit",
                     "--clients", "2", "--requests", "10",
                     "--dataset-size", "500", "--server-cores", "2"])
        assert code == 0
        assert "cuckoo:catfish-bandit" in capsys.readouterr().out

    def test_kv_rejects_non_rdma_fabric(self, capsys):
        # The flag used to be dropped: the run silently used ib-100g.
        code = main(["run", "--index", "btree", "--fabric", "eth-1g",
                     "--clients", "2", "--requests", "5",
                     "--dataset-size", "200"])
        assert code == 2
        assert "needs an RDMA fabric" in capsys.readouterr().err

    def test_kv_honours_trace(self, tmp_path, capsys):
        import json
        out = tmp_path / "kv.json"
        code = main(["run", "--index", "cuckoo", "--clients", "2",
                     "--requests", "10", "--dataset-size", "500",
                     "--server-cores", "2", "--trace",
                     "--metrics-out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["trace"]["events"]

    def test_kv_rejects_cuckoo_scans(self, capsys):
        code = main(["run", "--index", "cuckoo", "--scan-fraction", "0.2",
                     "--clients", "2", "--requests", "5",
                     "--dataset-size", "200"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_kv_subcommand_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kv"])

    def test_timeline_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--timeline"] + self.SMALL)
        assert exc.value.code == 2
        assert "--timeline" in capsys.readouterr().err


class TestChaosSubcommand:
    FAST = ["--clients", "2", "--requests", "120", "--dataset-size", "1000"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.scenario is None
        assert args.seed == 0
        assert args.list is False

    def test_scenario_is_repeatable(self):
        args = build_parser().parse_args(
            ["chaos", "--scenario", "link-loss",
             "--scenario", "worker-crash"])
        assert args.scenario == ["link-loss", "worker-crash"]

    def test_list_prints_all_scenarios(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        from repro.chaos import SCENARIOS
        for name in SCENARIOS:
            assert name in out

    def test_unknown_scenario_exits_2(self, capsys):
        code = main(["chaos", "--scenario", "meteor-strike"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_single_scenario_green(self, capsys):
        code = main(["chaos", "--scenario", "worker-crash"] + self.FAST)
        assert code == 0
        out = capsys.readouterr().out
        assert "worker-crash" in out
        assert "PASS" in out
        assert "1 scenario(s) passed" in out

    def test_verbose_prints_invariants(self, capsys):
        code = main(["chaos", "--scenario", "heartbeat-blackout",
                     "-v"] + self.FAST)
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle-match" in out
        assert "fingerprint:" in out


class TestShardSubcommand:
    SMALL = ["--clients", "2", "--requests", "20",
             "--dataset-size", "600", "--server-cores", "2",
             "--scale", "0.02"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["shard"])
        assert args.shards == 4
        assert args.workload == "mixed"
        assert args.no_verify is False

    def test_shard_verifies_against_oracle(self, capsys):
        code = main(["shard", "--shards", "3"] + self.SMALL)
        assert code == 0
        out = capsys.readouterr().out
        assert "shard map (3 shards)" in out
        assert "identical to the single-server oracle" in out

    def test_shard_rejects_non_rdma_fabric(self, capsys):
        code = main(["shard", "--fabric", "eth-1g"] + self.SMALL)
        assert code == 2
        assert "RDMA" in capsys.readouterr().err

    def test_no_verify_skips_oracle(self, capsys):
        code = main(["shard", "--no-verify"] + self.SMALL)
        assert code == 0
        out = capsys.readouterr().out
        assert "verification skipped" in out
        assert "oracle" not in out.split("skipped")[1]

    def test_run_accepts_shards_flag(self, capsys):
        code = main(["run", "--scheme", "catfish",
                     "--shards", "2"] + self.SMALL)
        assert code == 0
        assert "catfish" in capsys.readouterr().out

    def test_run_sharded_scheme(self, capsys):
        code = main(["run", "--scheme", "catfish-sharded"] + self.SMALL)
        assert code == 0
        assert "catfish-sharded" in capsys.readouterr().out

    def test_mixed_workload_single_server(self, capsys):
        code = main(["run", "--scheme", "catfish",
                     "--workload", "mixed"] + self.SMALL)
        assert code == 0

    def test_chaos_shard_loss_listed(self, capsys):
        assert main(["chaos", "--list"]) == 0
        assert "shard-loss" in capsys.readouterr().out
