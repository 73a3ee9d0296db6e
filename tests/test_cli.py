"""Tests for the mt4g command-line interface."""

import csv
import json

import pytest

from repro.core.cli import (
    build_fleet_parser,
    build_graph_parser,
    build_parser,
    build_serve_parser,
    fleet_main,
    main,
)
from repro.core.report import ATTRIBUTES


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.gpu == "H100-80"
        assert args.seed == 0
        assert args.json is None

    def test_flag_with_default_filename(self):
        args = build_parser().parse_args(["-j"])
        assert args.json == ""

    def test_flag_with_explicit_filename(self):
        args = build_parser().parse_args(["-j", "out.json"])
        assert args.json == "out.json"

    def test_mem_repeatable(self):
        args = build_parser().parse_args(["--mem", "L1", "--mem", "L2"])
        assert args.mem == ["L1", "L2"]

    def test_cache_config_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--cache-config", "PreferChaos"])


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "H100-80" in out and "TestGPU-NV" in out

    def test_unknown_gpu_fails(self, capsys):
        assert main(["--gpu", "B200"]) == 1
        assert "error" in capsys.readouterr().err

    def test_quiet_json_run(self, capsys):
        rc = main(["--gpu", "TestGPU-AMD", "--mem", "LDS", "--mem",
                   "DeviceMemory", "-q", "--seed", "5"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["general"]["vendor"] == "AMD"
        assert set(report["memory"]) == {"LDS", "DeviceMemory"}

    def test_bad_mem_element(self, capsys):
        with pytest.raises(SystemExit):
            main(["--gpu", "TestGPU-NV", "--mem", "vL1", "-q"])

    def test_output_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "--gpu", "TestGPU-NV", "--mem", "SharedMem", "-q",
            "-j", "r.json", "-p", "r.md", "--csv", "r.csv", "-o", "r_raw.json",
        ])
        assert rc == 0
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "r.md").exists()
        assert (tmp_path / "r.csv").exists()
        raw = json.loads((tmp_path / "r_raw.json").read_text())
        assert raw["benchmarks_executed"] >= 1

    def test_default_filenames(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["--gpu", "TestGPU-NV", "--mem", "SharedMem", "-q", "-j"])
        assert rc == 0
        assert (tmp_path / "TestGPU-NV.json").exists()


class TestOutputRoundTrips:
    """main() artifacts parsed back: each writer's output is consistent."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli_roundtrip")
        import contextlib
        import io
        import os

        stdout = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout):
                rc = main([
                    "--gpu", "TestGPU-NV", "--mem", "L1", "--mem", "SharedMem",
                    "--seed", "7", "-q",
                    "-j", "r.json", "-p", "r.md", "--csv", "r.csv", "-o", "r_raw.json",
                ])
        finally:
            os.chdir(cwd)
        assert rc == 0
        return tmp, stdout.getvalue()

    def test_stdout_json_matches_file(self, artifacts):
        tmp, stdout = artifacts
        from_stdout = json.loads(stdout)
        from_file = json.loads((tmp / "r.json").read_text())
        assert from_stdout == from_file
        assert from_stdout["seed"] == 7

    def test_mem_filtering_round_trip(self, artifacts):
        tmp, _ = artifacts
        report = json.loads((tmp / "r.json").read_text())
        assert set(report["memory"]) == {"L1", "SharedMem"}

    def test_markdown_round_trip(self, artifacts):
        tmp, _ = artifacts
        md = (tmp / "r.md").read_text()
        assert md.startswith("# MT4G Topology Report")
        for element in ("| L1 |", "| SharedMem |"):
            assert element in md

    def test_csv_round_trip(self, artifacts):
        tmp, _ = artifacts
        all_rows = list(csv.DictReader((tmp / "r.csv").read_text().splitlines()))
        # The CLI runs with its (default) discovery cache, so the legacy
        # attribute rows are followed by one __meta__ provenance row.
        rows = [r for r in all_rows if r["element"] != "__meta__"]
        assert len(rows) == 2 * len(ATTRIBUTES)
        assert any(
            r["element"] == "__meta__" and r["attribute"] == "cache"
            for r in all_rows
        )
        report = json.loads((tmp / "r.json").read_text())
        l1_size_csv = next(
            r for r in rows if r["element"] == "L1" and r["attribute"] == "size"
        )
        assert int(l1_size_csv["value"]) == report["memory"]["L1"]["attributes"]["size"]["value"]

    def test_raw_contains_sweep_artifacts(self, artifacts):
        tmp, _ = artifacts
        raw = json.loads((tmp / "r_raw.json").read_text())
        assert raw["schema"] == "mt4g-repro-raw/1"
        assert raw["gpu"] == "TestGPU-NV" and raw["seed"] == 7
        assert raw["benchmarks_executed"] >= 1
        # the promised artefacts: the size benchmark's grid and reduced
        # latency vector, and the latency benchmark's per-run statistics
        size_raw = raw["sweeps"]["L1"]["size"]
        assert len(size_raw["sizes"]) == len(size_raw["reduced"]) > 0
        assert all(isinstance(s, int) for s in size_raw["sizes"])
        assert "stats" in raw["sweeps"]["L1"]["load_latency"]

    def test_quiet_emits_json_only(self, capsys):
        rc = main(["--gpu", "TestGPU-AMD", "--mem", "LDS", "-q"])
        assert rc == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # the whole stdout is one JSON document
        assert captured.err == ""

    def test_validate_flag_adds_section(self, capsys):
        rc = main(["--gpu", "TestGPU-AMD", "--validate", "-q"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["validation"]["verdict"] == "pass"

    def test_validate_failure_exits_2(self, capsys, monkeypatch):
        from repro.core import cli as cli_mod
        from repro.validate import ValidationReport

        real_discover = cli_mod.MT4G.discover

        def failing_discover(self, validate=False):
            report = real_discover(self)
            report.validation = ValidationReport(verdict="fail")
            return report

        monkeypatch.setattr(cli_mod.MT4G, "discover", failing_discover)
        rc = main(["--gpu", "TestGPU-AMD", "--mem", "LDS", "--validate", "-q"])
        assert rc == 2


class TestFleetCLI:
    def test_fleet_parser_defaults(self):
        args = build_fleet_parser().parse_args([])
        assert args.gpu is None and args.seed == 0 and args.jobs is None

    def test_fleet_quiet_json(self, capsys):
        rc = main([
            "fleet", "--gpu", "TestGPU-AMD", "--gpu", "TestGPU-AMD-L3",
            "--sequential", "-q",
        ])
        assert rc == 0
        fleet = json.loads(capsys.readouterr().out)
        assert fleet["schema"] == "mt4g-repro-fleet/1"
        assert [r["preset"] for r in fleet["matrix"]] == [
            "TestGPU-AMD", "TestGPU-AMD-L3",
        ]
        assert all(r["verdict"] == "pass" for r in fleet["matrix"])

    def test_fleet_concurrent_via_cli(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = fleet_main([
            "--gpu", "TestGPU-AMD", "--gpu", "TestGPU-AMD-L3",
            "--jobs", "2", "-j", "-p",
        ])
        assert rc == 0
        fleet = json.loads((tmp_path / "fleet.json").read_text())
        assert set(fleet["reports"]) == {"TestGPU-AMD", "TestGPU-AMD-L3"}
        md = (tmp_path / "fleet.md").read_text()
        assert "# MT4G Fleet Report" in md
        out = capsys.readouterr().out
        assert "| TestGPU-AMD |" in out

    def test_fleet_unknown_preset(self, capsys):
        rc = main(["fleet", "--gpu", "NoSuchGPU", "--sequential", "-q"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_fleet_json_includes_fleet_validation(self, capsys):
        rc = main([
            "fleet", "--gpu", "TestGPU-NV", "--gpu", "TestGPU-NV-2SEG",
            "--sequential", "-q",
        ])
        assert rc == 0
        fleet = json.loads(capsys.readouterr().out)
        assert fleet["fleet_validation"]["verdict"] == "pass"
        assert fleet["fleet_validation"]["groups"] == {
            "NVIDIA/Hopper": ["TestGPU-NV", "TestGPU-NV-2SEG"]
        }

    def test_fleet_exit_2_on_cross_device_disagreement(self, capsys, monkeypatch):
        import repro.validate.fleet as fleet_mod

        real = fleet_mod.discover_fleet

        def rigged(*args, **kwargs):
            result = real(*args, **kwargs)
            # forge a cross-device disagreement: one preset's measured
            # cache line dissents from the microarchitecture consensus
            entry = result.entry("TestGPU-NV-2SEG")
            entry.report.memory["L1"].get("cache_line_size").value = 128
            result.validate()
            return result

        monkeypatch.setattr(fleet_mod, "discover_fleet", rigged)
        rc = fleet_main([
            "--gpu", "TestGPU-NV", "--gpu", "TestGPU-NV-2SEG", "--sequential",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        # every per-preset verdict still passes: the non-zero exit comes
        # from the fleet-level judge alone
        assert "fleet validation FAILED" in captured.err
        assert "NVIDIA/Hopper:L1.cache_line_size" in captured.err
        assert "Verdict: **fail**" in captured.out


class TestGraphCLI:
    def test_graph_parser_defaults(self):
        args = build_graph_parser().parse_args([])
        assert args.gpu == "H100-80" and args.format == "json"
        assert not args.host and args.output is None

    def test_graph_quiet_json(self, capsys):
        rc = main(["graph", "--gpu", "TestGPU-NV", "--no-cache", "-q"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "mt4g-repro-graph/1"
        assert payload["meta"]["preset"] == "TestGPU-NV"
        kinds = {n["kind"] for n in payload["nodes"]}
        assert {"gpu", "cluster", "sm", "cache", "scratchpad", "memory"} <= kinds

    def test_graph_bytes_stable_across_cache_hit(self, tmp_path, capsys):
        argv = ["graph", "--gpu", "TestGPU-NV", "-q",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        hit = capsys.readouterr().out
        assert main(["graph", "--gpu", "TestGPU-NV", "-q", "--no-cache"]) == 0
        uncached = capsys.readouterr().out
        assert cold == hit == uncached

    def test_graph_dot_output_file(self, tmp_path, capsys):
        out = tmp_path / "g.dot"
        rc = main(["graph", "--gpu", "TestGPU-NV", "--no-cache", "-q",
                   "--format", "dot", "-o", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("digraph mt4g {") and text.endswith("}\n")

    def test_graph_host_flag_never_fails(self, capsys):
        # Wherever this runs — bare metal, container, sandbox — host
        # collectors degrade silently; the command still exits 0 and
        # renders a valid graph with the degradation recorded.
        rc = main(["graph", "--gpu", "TestGPU-NV", "--no-cache", "-q", "--host"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload["meta"]["host_degraded"], dict)

    def test_graph_unknown_gpu_fails(self, capsys):
        assert main(["graph", "--gpu", "B200", "--no-cache"]) == 1
        assert "error" in capsys.readouterr().err


class TestServeCLI:
    """mt4g serve argument round-trips (mirrors the fleet parser tests)."""

    def test_serve_parser_defaults(self):
        import os

        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1" and args.port == 8734
        assert args.no_discover is False and args.jobs is None
        assert args.quiet is False and args.cache_config == "PreferL1"
        # the cache dir honours $MT4G_CACHE_DIR exactly like the
        # discover/fleet parsers (the conftest fixture sets it)
        assert args.cache_dir == os.environ["MT4G_CACHE_DIR"]

    def test_serve_parser_round_trip(self):
        args = build_serve_parser().parse_args([
            "--host", "0.0.0.0", "--port", "0", "--cache-dir", "/tmp/x",
            "--no-discover", "--jobs", "3", "-q",
            "--cache-config", "PreferShared",
        ])
        assert args.host == "0.0.0.0" and args.port == 0
        assert args.cache_dir == "/tmp/x"
        assert args.no_discover is True and args.jobs == 3
        assert args.quiet is True and args.cache_config == "PreferShared"

    def test_serve_cache_config_choices(self):
        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--cache-config", "PreferChaos"])

    def test_serve_port_must_be_int(self):
        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--port", "http"])

    def test_main_dispatches_serve_subcommand(self, monkeypatch):
        from repro.core import cli as cli_mod

        seen = {}

        def fake_serve_main(argv):
            seen["argv"] = argv
            return 0

        monkeypatch.setattr(cli_mod, "serve_main", fake_serve_main)
        assert main(["serve", "--port", "0", "-q"]) == 0
        assert seen["argv"] == ["--port", "0", "-q"]

    def test_serve_main_reports_bind_failure(self, capsys):
        from repro.core.cli import serve_main

        # An unresolvable bind address must become exit 1 + a readable
        # error, not a traceback (and must never start serving).
        rc = serve_main(["--host", "999.invalid.example.", "-q"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_serve_parser_tiering_flags(self):
        args = build_serve_parser().parse_args([
            "--peers", "http://a:1,http://b:2", "--peers", "http://c:3",
            "--advertise", "http://me:8734",
            "--cache-limit", "2097152",
        ])
        # repeatable AND comma-separated (serve_main flattens the chunks)
        assert args.peers == ["http://a:1,http://b:2", "http://c:3"]
        assert args.advertise == "http://me:8734"
        assert args.cache_limit == 2097152
        defaults = build_serve_parser().parse_args([])
        assert defaults.peers is None and defaults.advertise is None
        assert defaults.cache_limit is None

    def test_serve_parser_hot_path_flags(self):
        args = build_serve_parser().parse_args([
            "--keep-alive-timeout", "0", "--hot-cache-bytes", "1048576",
            "--pool", "lazy", "--catalog-ttl", "0.5",
        ])
        assert args.keep_alive_timeout == 0.0
        assert args.hot_cache_bytes == 1048576
        assert args.pool == "lazy" and args.catalog_ttl == 0.5
        defaults = build_serve_parser().parse_args([])
        # the entry point defaults the whole hot path ON
        assert defaults.keep_alive_timeout == 60.0
        assert defaults.hot_cache_bytes == 64 << 20
        assert defaults.pool == "warm" and defaults.catalog_ttl == 2.0
        with pytest.raises(SystemExit):
            build_serve_parser().parse_args(["--pool", "tepid"])

    def test_serve_main_rejects_unusable_peer_urls(self, capsys):
        from repro.core.cli import serve_main

        rc = serve_main(["--port", "0", "-q", "--peers", "http://"])
        assert rc == 1
        assert "--peers" in capsys.readouterr().err


class TestCacheLimitPrecedence:
    """--cache-limit > $MT4G_CACHE_LIMIT_BYTES > the 2 GiB default."""

    def _resolve(self, argv):
        from repro.core.cli import resolve_cache_limit

        return resolve_cache_limit(build_parser().parse_args(argv))

    def test_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("MT4G_CACHE_LIMIT_BYTES", "111")
        assert self._resolve(["--cache-limit", "222"]) == 222

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("MT4G_CACHE_LIMIT_BYTES", "333")
        assert self._resolve([]) == 333

    def test_default_is_two_gib(self, monkeypatch):
        from repro.cache.store import DEFAULT_PRUNE_BYTES

        monkeypatch.delenv("MT4G_CACHE_LIMIT_BYTES", raising=False)
        assert self._resolve([]) == DEFAULT_PRUNE_BYTES == 2 << 30

    def test_unparseable_env_falls_back_to_default(self, monkeypatch):
        from repro.cache.store import DEFAULT_PRUNE_BYTES

        monkeypatch.setenv("MT4G_CACHE_LIMIT_BYTES", "a lot")
        assert self._resolve([]) == DEFAULT_PRUNE_BYTES

    def test_all_parsers_carry_the_flag(self):
        for build in (build_parser, build_fleet_parser, build_serve_parser):
            args = build().parse_args(["--cache-limit", "444"])
            assert args.cache_limit == 444

    def test_prune_honours_the_flag(self, tmp_path, capsys):
        # Two single-device runs with different seeds under a 1-byte
        # budget: the post-run prune must leave at most one entry.
        from repro.cache.store import DiscoveryCache

        cache_dir = str(tmp_path / "cache")
        for seed in ("0", "1"):
            assert main([
                "--gpu", "TestGPU-NV", "--seed", seed, "-q",
                "--cache-dir", cache_dir, "--cache-limit", "1",
            ]) == 0
        capsys.readouterr()
        assert DiscoveryCache(tmp_path / "cache").entry_count() <= 1
