"""Tests for the command-line interface."""

import csv
import dataclasses

import numpy as np
import pytest

from repro.cli import (
    BAND_FIELDS,
    SHARD_FIELDS,
    build_parser,
    build_serve_parser,
    build_shard_parser,
    config_from_args,
    main,
)
from repro.core import DetectorConfig, OnlineBagDetector
from repro.core.config import SCORES, SIGNATURE_METHODS, WEIGHTINGS
from repro.emd.ground_distance import GROUND_DISTANCES
from repro.emd.registry import PARALLEL_BACKENDS, POISON_POLICIES
from repro.service import BACKPRESSURE_POLICIES, STREAM_ERROR_POLICIES, SupervisorPolicy

#: The DetectorConfig fields the CLI deliberately does not expose.
OPTED_OUT = {"histogram_range", "estimator", "emd_backend"}
#: The SupervisorPolicy fields the CLI deliberately does not expose.
POLICY_OPTED_OUT = {"batch_drain"}
#: The fields whose flag is not --<field-name>.
RENAMED = {
    "signature_method": "--signature",
    "n_clusters": "--clusters",
    "parallel_backend": "--parallel",
    "n_workers": "--workers",
    "shard_retries": "--retries",
    "n_bootstrap": "--bootstrap",
    "random_state": "--seed",
}
#: The registry each choice field's flag must offer.
REGISTRIES = {
    "score": SCORES,
    "signature_method": SIGNATURE_METHODS,
    "weighting": WEIGHTINGS,
    "ground_distance": GROUND_DISTANCES,
    "parallel_backend": PARALLEL_BACKENDS,
    "on_poison_pair": POISON_POLICIES,
    "on_stream_error": STREAM_ERROR_POLICIES,
    "backpressure": BACKPRESSURE_POLICIES,
}


def cli_fields(cls):
    return [spec for spec in dataclasses.fields(cls) if spec.metadata.get("cli") is not False]


def assert_flag_matches_field(parser, spec):
    (action,) = [a for a in parser._actions if a.dest == spec.name]
    assert action.option_strings == [RENAMED.get(spec.name, "--" + spec.name.replace("_", "-"))]
    assert action.default == spec.default
    assert action.choices == REGISTRIES.get(spec.name)


@pytest.fixture
def npz_stream(tmp_path, rng):
    """An .npz file with a clear change after the 6th bag."""
    bags = {f"bag_{i:03d}": rng.normal(0, 1, size=(25, 2)) for i in range(6)}
    bags.update({f"bag_{i:03d}": rng.normal(5, 1, size=(25, 2)) for i in range(6, 12)})
    path = tmp_path / "bags.npz"
    np.savez(path, **bags)
    return path


@pytest.fixture
def csv_stream(tmp_path, rng):
    """A long-format CSV file with a mean shift half way through."""
    path = tmp_path / "bags.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "x", "y"])
        for t in range(12):
            offset = 0.0 if t < 6 else 5.0
            for _ in range(20):
                x, y = rng.normal(offset, 1.0, size=2)
                writer.writerow([t, x, y])
    return path


class TestParser:
    def test_defaults(self, tmp_path):
        args = build_parser().parse_args([str(tmp_path / "x.npz")])
        assert args.tau == 5
        assert args.score == "kl"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--emd-backend", "sinkhorn_batch"],
            ["--sinkhorn-epsilon", "0.1"],
            ["--emd-backend", "auto"],
            ["--parallel", "thread"],
            ["shard-build", "--mode", "thread"],
            ["shard-build", "--mode", "serial"],
            ["shard-build", "--checkpoint-dir", "ckpt"],
            ["shard-build", "--output", "band.npz"],
        ],
        ids=[
            "removed-backend",
            "removed-flag",
            "removed-emd-backend-flag",
            "removed-thread-pool",
            "removed-thread-shard-mode",
            "removed-shard-mode",
            "removed-shard-checkpoint-dir",
            "removed-shard-output",
        ],
    )
    def test_removed_options_are_rejected(self, tmp_path, flags):
        subcommand = flags[:1] if flags[0] == "shard-build" else []
        options = flags[len(subcommand):]
        with pytest.raises(SystemExit) as excinfo:
            main([*subcommand, str(tmp_path / "x.npz"), *options])
        assert excinfo.value.code == 2

    def test_custom_options(self, tmp_path):
        args = build_parser().parse_args(
            [str(tmp_path / "x.npz"), "--tau", "3", "--score", "lr", "--seed", "7"]
        )
        assert args.tau == 3
        assert args.score == "lr"
        assert args.random_state == 7  # dest is the DetectorConfig field


class TestConfigFlags:
    """Every config field reaches the CLI with its own default and choices."""

    def test_opt_out_set(self):
        exposed = {spec.name for spec in cli_fields(DetectorConfig)}
        all_fields = {spec.name for spec in dataclasses.fields(DetectorConfig)}
        assert all_fields - exposed == OPTED_OUT
        dests = {action.dest for action in build_parser()._actions}
        assert not dests & OPTED_OUT
        policy_fields = {spec.name for spec in dataclasses.fields(SupervisorPolicy)}
        exposed_policy = {spec.name for spec in cli_fields(SupervisorPolicy)}
        assert policy_fields - exposed_policy == POLICY_OPTED_OUT
        serve_dests = {action.dest for action in build_serve_parser()._actions}
        assert not serve_dests & POLICY_OPTED_OUT

    @pytest.mark.parametrize(
        "spec", cli_fields(DetectorConfig), ids=lambda spec: spec.name
    )
    def test_detect_flag_matches_field(self, spec):
        assert_flag_matches_field(build_parser(), spec)

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(spec, id=f"{cls.__name__}.{spec.name}")
            for cls in (DetectorConfig, SupervisorPolicy)
            for spec in cli_fields(cls)
            if spec.name not in SHARD_FIELDS
        ],
    )
    def test_serve_flag_matches_field(self, spec):
        assert_flag_matches_field(build_serve_parser(), spec)

    def test_serve_has_no_shard_flags(self):
        dests = {action.dest for action in build_serve_parser()._actions}
        assert not dests & set(SHARD_FIELDS)

    def test_shard_build_takes_the_band_flags(self):
        parser = build_shard_parser()
        dests = {action.dest for action in parser._actions}
        assert dests == {"help", "input", "time_column", *BAND_FIELDS}
        for spec in cli_fields(DetectorConfig):
            if spec.name in BAND_FIELDS and spec.name not in ("n_shards", "parallel_backend"):
                assert_flag_matches_field(parser, spec)

    def test_custom_values_reach_the_config(self, tmp_path):
        args = build_parser().parse_args(
            [str(tmp_path / "x.npz"), "--clusters", "3", "--retries", "5",
             "--parallel", "process", "--workers", "2", "--bootstrap", "30",
             "--seed", "9", "--signature", "histogram",
             "--shard-checkpoint-dir", str(tmp_path / "ckpt")]
        )
        config = config_from_args(DetectorConfig, args)
        assert config == DetectorConfig(
            n_clusters=3, shard_retries=5, parallel_backend="process", n_workers=2,
            n_bootstrap=30, random_state=9, signature_method="histogram",
            shard_checkpoint_dir=tmp_path / "ckpt",
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--tau", "1"], "tau must be at least 2"),
            (["serve-replay", "--alpha", "2"], "alpha must lie strictly between"),
            (["shard-build", "--retries", "-1"], "shard_retries must be >= 0"),
        ],
        ids=["detect-tau", "serve-alpha", "shard-retries"],
    )
    def test_invalid_value_is_a_usage_error(self, npz_stream, capsys, argv, message):
        subcommand = argv[:1] if not argv[0].startswith("--") else []
        with pytest.raises(SystemExit) as excinfo:
            main([*subcommand, str(npz_stream), *argv[len(subcommand):]])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestMain:
    def test_npz_input_stdout(self, npz_stream, capsys):
        exit_code = main(
            [str(npz_stream), "--tau", "3", "--tau-test", "3", "--signature", "exact",
             "--bootstrap", "40", "--seed", "0"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        lines = output.strip().splitlines()
        assert lines[0] == "time,score,lower,upper,gamma,alert"
        assert len(lines) > 1

    def test_process_pool_run_matches_serial(self, npz_stream, capsys):
        base = [str(npz_stream), "--tau", "3", "--tau-test", "3",
                "--signature", "histogram", "--bootstrap", "40", "--seed", "0"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert serial.splitlines()[0] == "time,score,lower,upper,gamma,alert"
        assert main(base + ["--parallel", "process", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_csv_input_with_output_file(self, csv_stream, tmp_path):
        out_path = tmp_path / "result.csv"
        exit_code = main(
            [str(csv_stream), "--tau", "3", "--tau-test", "3", "--signature", "exact",
             "--bootstrap", "40", "--seed", "0", "--output", str(out_path)]
        )
        assert exit_code == 0
        content = out_path.read_text().strip().splitlines()
        assert content[0].startswith("time,")
        # An alert should be raised somewhere (there is a strong change).
        assert any(line.endswith("True") for line in content[1:])

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main([str(tmp_path / "missing.npz")])

    @pytest.mark.parametrize("cut", [0, 0.5], ids=["empty", "truncated"])
    def test_unreadable_npz_is_a_usage_error(self, npz_stream, capsys, cut):
        content = npz_stream.read_bytes()
        npz_stream.write_bytes(content[: int(len(content) * cut)])
        with pytest.raises(SystemExit) as excinfo:
            main([str(npz_stream)])
        assert excinfo.value.code == 2
        assert "is not a readable .npz archive" in capsys.readouterr().err

    def test_unsupported_extension_errors(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("nope")
        with pytest.raises(SystemExit):
            main([str(path)])

    def test_csv_missing_time_column_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            main([str(path)])

    def test_sharded_detect_matches_plain(self, npz_stream, capsys):
        base = [str(npz_stream), "--tau", "3", "--tau-test", "3",
                "--signature", "exact", "--bootstrap", "40", "--seed", "0"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--n-shards", "3"]) == 0
        assert capsys.readouterr().out == plain


BAND_ARGS = ["--tau", "3", "--tau-test", "3", "--signature", "exact", "--seed", "0"]


def checkpoint_mtimes(directory):
    return {path.name: path.stat().st_mtime_ns for path in directory.glob("shard_*.npz")}


class TestShardBuild:
    def test_parser_defaults(self, tmp_path):
        args = build_shard_parser().parse_args([str(tmp_path / "x.npz")])
        assert args.n_shards == 4
        assert args.parallel_backend == "process"
        assert args.shard_checkpoint_dir is None

    def test_build_writes_checkpoints_and_resumes(self, npz_stream, tmp_path, capsys):
        argv = ["shard-build", str(npz_stream), *BAND_ARGS, "--n-shards", "3",
                "--parallel", "serial", "--shard-checkpoint-dir", str(tmp_path / "ckpt")]
        assert main(argv) == 0
        assert "computed 3, resumed 0" in capsys.readouterr().err
        assert len(checkpoint_mtimes(tmp_path / "ckpt")) == 3
        # Second run resumes every shard from the checkpoints.
        assert main(argv) == 0
        assert "computed 0, resumed 3" in capsys.readouterr().err

    def test_detect_resumes_shard_build_checkpoints(self, npz_stream, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["shard-build", str(npz_stream), *BAND_ARGS, "--n-shards", "3",
                     "--shard-checkpoint-dir", str(ckpt)]) == 0
        written = checkpoint_mtimes(ckpt)
        assert len(written) == 3
        detect = [str(npz_stream), *BAND_ARGS, "--bootstrap", "40"]
        assert main(detect) == 0
        plain = capsys.readouterr().out
        assert main([*detect, "--n-shards", "3", "--shard-checkpoint-dir", str(ckpt)]) == 0
        assert capsys.readouterr().out == plain
        assert checkpoint_mtimes(ckpt) == written  # no shard recomputed

    def test_reclaimed_straggler_is_reported(self, npz_stream, capsys):
        from repro.emd.sharding import ShardPlan
        from repro.testing import inject_worker_hang, match_first_row

        last_row = ShardPlan.build(12, 6, 6).shards[-1].row_start
        argv = ["shard-build", str(npz_stream), *BAND_ARGS, "--parallel", "serial",
                "--workers", "2", "--n-shards", "6", "--shard-timeout", "30"]
        with inject_worker_hang(times=1, match=match_first_row(last_row)) as log:
            assert main(argv) == 0
        assert log.count("hang") == 1
        err = capsys.readouterr().err
        assert "recovered faults:" in err
        assert "stragglers_redispatched=1" in err

    def test_checkpoints_of_other_data_are_not_resumed(self, npz_stream, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        other = tmp_path / "other.npz"
        rng = np.random.default_rng(3)
        np.savez(other, **{f"bag_{i:03d}": rng.normal(i % 2, 1, size=(25, 2))
                           for i in range(12)})
        assert main(["shard-build", str(other), *BAND_ARGS, "--n-shards", "3",
                     "--parallel", "serial", "--shard-checkpoint-dir", str(ckpt)]) == 0
        detect = [str(npz_stream), *BAND_ARGS, "--bootstrap", "40"]
        assert main(detect) == 0
        plain = capsys.readouterr().out
        with pytest.warns(RuntimeWarning, match="input data"):
            assert main([*detect, "--n-shards", "3", "--shard-checkpoint-dir", str(ckpt)]) == 0
        assert capsys.readouterr().out == plain


class TestServeReplay:
    def test_streams_are_seeded_per_stream(self, npz_stream, capsys):
        assert main(["serve-replay", str(npz_stream), "--tau", "2", "--tau-test", "2",
                     "--signature", "exact", "--bootstrap", "30", "--seed", "4"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "stream,time,score,lower,upper,gamma,alert"
        with np.load(npz_stream) as archive:
            bags = [archive[name] for name in sorted(archive.files)]
        for index in range(2):
            config = DetectorConfig(tau=2, tau_test=2, signature_method="exact",
                                    n_bootstrap=30, random_state=4 + index)
            with OnlineBagDetector(config) as detector:
                points = detector.push_many(bags[index::2])
            emitted = [row.split(",")[1:] for row in rows[1:]
                       if row.startswith(f"stream-{index:02d},")]
            assert emitted == [
                [str(p.time), str(p.score), str(p.interval.lower), str(p.interval.upper),
                 str(p.gamma), str(p.alert)]
                for p in points
            ]
