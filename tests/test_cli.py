"""Command line front end: parsing, config-file merging, exit codes, artifacts."""

import json
import os
from pathlib import Path

import pytest

import pipesgd
from pipesgd import harness
from pipesgd.cli import build_parser, main, options_from_args
from pipesgd.engine import TrainConfig, load_model
from pipesgd.errors import UsageError
from pipesgd.timeline import read_timeline_csv

FAST = [
    "--ranks", "2", "--iters", "2", "--batch", "8",
    "--layers", "4,6,3", "--dataset-size", "16", "--quiet",
]


def parse(argv):
    return options_from_args(build_parser().parse_args(argv))


# every option that sets a TrainConfig field: (key, flag value, config file value)
TRAIN_OPTIONS = [
    ("ranks", "8", 8),
    ("iters", "12", 12),
    ("batch", "32", 32),
    ("epsilon", "0.01", 0.01),
    ("seed", "9", 9),
    ("layers", "10,20,5", [10, 20, 5]),
    ("compute_inflation_ns", "1000", 1000),
    ("dataset_size", "99", 99),
    ("input_scale", "0.5", 0.5),
]


class TestParsing:
    def test_defaults(self):
        opts = parse([])
        assert opts.config.world_size == 4
        assert opts.config.iterations == 50
        assert opts.patterns == ("pipelined",)
        assert opts.transport == "inproc"
        assert opts.latency is None
        assert opts.verify_oracle is False

    def test_flags_land_in_config(self):
        opts = parse([
            "--ranks", "8", "--iters", "12", "--batch", "64", "--epsilon", "0.01",
            "--seed", "9", "--layers", "10,20,5",
            "--compute-inflation-ns", "1000", "--dataset-size", "99",
            "--input-scale", "0.5",
        ])
        cfg = opts.config
        assert cfg.world_size == 8
        assert cfg.iterations == 12
        assert cfg.batch_size == 64
        assert cfg.epsilon == 0.01
        assert cfg.seed == 9
        assert cfg.layer_dims == (10, 20, 5)
        assert cfg.compute_inflation_ns == 1000
        assert cfg.dataset_size == 99
        assert cfg.input_scale == 0.5

    def test_pattern_both_expands(self):
        assert parse(["--pattern", "both"]).patterns == ("pipelined", "barrier")

    def test_latency_flags_build_model(self):
        opts = parse(["--latency-fixed-ns", "5000", "--latency-per-byte-ns", "1.5"])
        assert opts.latency.fixed_ns == 5000
        assert opts.latency.per_byte_ns == 1.5

    def test_bad_layers_rejected(self):
        with pytest.raises(UsageError):
            parse(["--layers", "10,twenty"])
        with pytest.raises(UsageError):
            parse(["--layers", "10"])

    def test_unknown_flag_raises_usage_error(self):
        with pytest.raises(UsageError):
            build_parser().parse_args(["--warp-speed", "9"])


class TestConfigFile:
    def test_file_supplies_defaults(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"ranks": 2, "iters": 7, "pattern": "barrier"}))
        opts = parse(["--config", str(path)])
        assert opts.config.world_size == 2
        assert opts.config.iterations == 7
        assert opts.patterns == ("barrier",)

    def test_flag_overrides_file_with_warning(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"iters": 7}))
        opts = parse(["--config", str(path), "--iters", "3"])
        assert opts.config.iterations == 3
        err = capsys.readouterr().err
        assert "warning: --iters=3 overrides config file value 7" in err

    def test_matching_flag_and_file_stay_quiet(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"iters": 7}))
        parse(["--config", str(path), "--iters", "7"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("key,flag_value,file_value", TRAIN_OPTIONS)
    def test_flag_and_file_set_the_same_field(self, tmp_path, key, flag_value, file_value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: file_value}))
        from_flag = parse([f"--{key.replace('_', '-')}", flag_value]).config
        assert from_flag == parse(["--config", str(path)]).config
        assert from_flag != TrainConfig()

    def test_layers_accepted_as_json_list(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"layers": [5, 8, 2]}))
        assert parse(["--config", str(path)]).config.layer_dims == (5, 8, 2)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"wrap_speed": 9}))
        with pytest.raises(UsageError, match="wrap_speed"):
            parse(["--config", str(path)])

    def test_removed_hosts_option_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"hosts": "127.0.0.1,127.0.0.1"}))
        with pytest.raises(UsageError, match="'hosts'"):
            parse(["--config", str(path)])
        assert main(FAST + ["--hosts", "127.0.0.1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [{"iters": "3"}, {"iters": 2.5}, {"verify_oracle": "no"}],
        ids=["int-as-string", "int-as-float", "switch-as-string"],
    )
    def test_value_its_flag_would_reject_exits_one(self, tmp_path, capsys, bad):
        """A file value gets its flag's type and choices checks: a usage
        error (exit 1), not a traceback, a rank failure or a silent yes."""
        path = tmp_path / "run.json"
        small = {"ranks": 2, "batch": 8, "layers": "4,6,3", "dataset_size": 16}
        path.write_text(json.dumps({**small, **bad}))
        assert main(["--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_switch_takes_json_booleans(self, tmp_path):
        path = tmp_path / "run.json"
        for value in (True, False):
            path.write_text(json.dumps({"verify_oracle": value}))
            assert parse(["--config", str(path)]).verify_oracle is value

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1,2,3]")
        with pytest.raises(UsageError, match="JSON object"):
            parse(["--config", str(path)])

    def test_missing_file_rejected(self):
        with pytest.raises(UsageError, match="cannot read"):
            parse(["--config", "/nonexistent/run.json"])


class TestMain:
    def test_success_exit_zero(self):
        assert main(FAST) == 0

    def test_verified_run_prints_and_exits_zero(self, capsys):
        argv = [f for f in FAST if f != "--quiet"] + ["--verify-oracle"]
        assert main(argv) == 0
        assert "verified bit-identical" in capsys.readouterr().out

    def test_usage_error_exit_one(self, capsys):
        assert main(["--layers", "10"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_error_exit_one(self, capsys):
        # batch not divisible by ranks
        assert main(["--ranks", "3", "--batch", "8"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--latency-fixed-ns", "-5000000"],
            ["--latency-per-byte-ns", "nan"],
            ["--latency-per-byte-ns", "-1"],
            ["--input-scale", "nan"],
            ["--input-scale", "inf"],
            ["--epsilon", "inf", "--verify-oracle"],
        ],
    )
    def test_unrepresentable_values_exit_one(self, flags, capsys):
        assert main(FAST + flags) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_dataset_csv_exit_one(self, capsys):
        assert main(FAST + ["--dataset-csv", "/nonexistent/data.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_dataset_csv_exit_one(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("0.1,0.2,nan\n0.3,0.4,0.5\n")
        argv = [
            "--layers", "2,1", "--batch", "4", "--iters", "2", "--quiet",
            "--dataset-csv", str(path), "--verify-oracle",
        ]
        assert main(argv) == 1
        assert f"error: {path}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--timeline", "--checkpoint", "--metrics"])
    def test_missing_artifact_directory_fails_before_training(self, flag, tmp_path, capsys):
        argv = [f for f in FAST if f != "--quiet"] + [flag, str(tmp_path / "nodir" / "out")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "error:" in err
        assert "pipelined.wall_clock_ns" not in out

    @pytest.mark.parametrize("flag", ["--timeline", "--checkpoint", "--metrics"])
    def test_directory_artifact_fails_before_training(self, flag, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(
            harness.LAUNCHERS, "inproc", lambda *a, **kw: pytest.fail("training started")
        )
        assert main(FAST + [flag, str(tmp_path) + os.sep]) == 1
        assert "is a directory" in capsys.readouterr().err

    def test_artifacts_written(self, tmp_path, capsys):
        timeline = str(tmp_path / "timeline.csv")
        checkpoint = str(tmp_path / "model.bin")
        metrics = str(tmp_path / "metrics.txt")
        code = main(FAST + [
            "--pattern", "both", "--timeline", timeline,
            "--checkpoint", checkpoint, "--metrics", metrics,
        ])
        assert code == 0
        assert read_timeline_csv(str(tmp_path / "timeline.pipelined.csv"))
        assert read_timeline_csv(str(tmp_path / "timeline.barrier.csv"))
        assert load_model(str(tmp_path / "model.pipelined.bin")).layers
        text = (tmp_path / "metrics.txt").read_text()
        assert "pipelined_over_barrier_wall=" in text

    def test_tcp_run_exit_zero(self):
        assert main(FAST + ["--transport", "tcp", "--verify-oracle"]) == 0

    def test_console_script_entry_point(self):
        import subprocess
        import sys

        # the child imports the same package this process imported, also
        # when pytest put src/ on sys.path itself
        src = str(Path(pipesgd.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pipesgd.cli"] + FAST,
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
