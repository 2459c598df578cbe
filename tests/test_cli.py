"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_methods_command_parses(self):
        args = build_parser().parse_args(["methods"])
        assert args.command == "methods"

    def test_sanitize_defaults(self):
        args = build_parser().parse_args(["sanitize"])
        assert args.method == "daf_entropy"
        assert args.epsilon == 0.1

    def test_figure_validates_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "figure99"])

    def test_figure_n_shards_flag(self):
        # Experiments run under the default engine config: figure has
        # no shard flag and no --engine-config.
        for flags in (["--n-shards", "3"], ["--engine-config", "n_shards=3"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["figure", "table3"] + flags)

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.engine_config == ""
        with pytest.raises(SystemExit):  # serve simulates no clients
            build_parser().parse_args(["serve", "--clients", "8"])
        with pytest.raises(SystemExit):  # and serves only sanitized data
            build_parser().parse_args(["serve", "--bench-substrate", "8"])

    def test_serve_network_flags(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "8080", "--no-off-loop"]
        )
        assert args.host == "0.0.0.0"
        assert args.port == 8080
        assert args.off_loop is False
        defaults = build_parser().parse_args(["serve"])
        assert defaults.port == 8000
        assert defaults.off_loop is True
        assert defaults.max_pending == 1024
        assert defaults.request_timeout == 30.0

    def test_engine_config_flag_only_on_serve(self):
        flag = ["--engine-config", "plan=dense"]
        args = build_parser().parse_args(["serve"] + flag)
        assert args.engine_config == "plan=dense"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare"] + flag)


def test_import_loads_no_runner_or_evaluator():
    """``repro serve`` boots through ``repro.cli``: importing it must not
    load the experiment runner, the query evaluator or
    ``multiprocessing``, which only the offline commands use."""
    probe = (
        "import sys, repro.cli; print(sorted(m for m in sys.modules if m in "
        "('multiprocessing', 'repro.experiments', 'repro.queries')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestCommands:
    def test_methods_lists_all(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("identity", "ebp", "daf_entropy", "ag"):
            assert name in out

    def test_sanitize_city(self, capsys, tmp_path):
        out_file = tmp_path / "private.json"
        code = main([
            "sanitize", "--dataset", "denver", "--n-points", "5000",
            "--resolution", "32", "--method", "ebp", "--epsilon", "0.5",
            "--n-queries", "50", "--output", str(out_file),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "MRE=" in err
        payload = json.loads(out_file.read_text())
        assert payload["method"] == "ebp"

    def test_sanitize_gaussian(self, capsys):
        code = main([
            "sanitize", "--dataset", "gaussian", "--n-points", "4000",
            "--dims", "2", "--method", "identity", "--n-queries", "20",
        ])
        assert code == 0

    def test_sanitize_zipf(self, capsys):
        code = main([
            "sanitize", "--dataset", "zipf", "--n-points", "4000",
            "--dims", "2", "--method", "uniform", "--n-queries", "20",
        ])
        assert code == 0

    def test_compare_subset(self, capsys):
        code = main([
            "compare", "--dataset", "detroit", "--n-points", "5000",
            "--resolution", "32", "--methods", "identity", "ebp",
            "--n-queries", "30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "identity" in out and "ebp" in out

    def test_figure_table3(self, capsys):
        code = main(["figure", "table3", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "daf_entropy" in out

    def test_figure_with_forced_sharding(self, monkeypatch, capsys):
        # Offline commands answer under the default config; the old
        # environment route to a sharded figure stops the command,
        # naming the flag that replaced it, before any trial runs.
        monkeypatch.setenv("REPRO_ENGINE_SHARD_EXECUTOR", "serial")
        with pytest.raises(SystemExit, match="--engine-config"):
            main(["figure", "table3", "--scale", "tiny"])
        assert capsys.readouterr().out == ""

    def test_figure_with_engine_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "figure", "table3", "--scale", "tiny",
                "--engine-config", "n_shards=2",
            ])
        assert exc.value.code == 2  # an argparse usage error
        assert "--engine-config" in capsys.readouterr().err

    def test_sanitize_with_engine_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sanitize", "--dataset", "gaussian", "--n-points", "4000",
                "--dims", "2", "--method", "ebp", "--n-queries", "20",
                "--engine-config", "plan=broadcast",
            ])
        assert exc.value.code == 2
        assert "--engine-config" in capsys.readouterr().err

    def test_bad_engine_config_rejected(self):
        from repro.core import ValidationError

        # Parsed before any dataset is built or port bound.
        with pytest.raises(ValidationError, match="unknown engine-config"):
            main(["serve", "--port", "0", "--engine-config", "bogus=1"])

    def test_engine_env_var_refused(self, monkeypatch):
        # Engine settings are not read from the environment; a leftover
        # variable stops every command instead of being ignored.
        monkeypatch.setenv("REPRO_ENGINE_N_SHARDS", "4")
        for argv in (["methods"], ["serve", "--port", "0"]):
            with pytest.raises(SystemExit, match="--engine-config"):
                main(argv)
        monkeypatch.setenv("REPRO_ENGINE_N_SHARDS", "")
        assert main(["methods"]) == 0

    def test_serve_port_boots_live_http_server(self):
        # The real network path: `repro serve --port 0` in a subprocess,
        # queried over actual TCP, then drained via SIGINT.
        import os
        import re
        import signal
        import subprocess
        import sys
        from pathlib import Path

        from repro.engine import ServingClient

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--dataset", "gaussian", "--n-points", "2000",
                "--engine-config", "plan=broadcast",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            port = None
            for line in process.stdout:
                match = re.search(r"serving on http://[^:]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "server never reported its port"
            with ServingClient(port=port, timeout=10.0) as client:
                assert client.healthz()["status"] == "ok"
                answer = client.query([[0, 0], [3, 3]], [[9, 9], [30, 30]])
                assert answer.n_queries == 2
                assert answer.plan == "broadcast"
                stats = client.statz()
                assert stats["counters"]["answered_requests"] == 1
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        assert process.returncode == 0
