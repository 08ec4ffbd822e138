"""Tests for the command-line interface."""

import csv

import numpy as np
import pytest

from repro.cli import build_parser, build_shard_parser, main


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
        ],
        ids=[
            "removed-backend",
            "removed-flag",
            "removed-emd-backend-flag",
            "removed-thread-pool",
            "removed-thread-shard-mode",
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
        assert args.seed == 7


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


class TestShardBuild:
    def test_parser_defaults(self, tmp_path):
        args = build_shard_parser().parse_args([str(tmp_path / "x.npz")])
        assert args.n_shards == 4
        assert args.mode == "process"
        assert args.checkpoint_dir is None

    def test_build_writes_band_and_resumes(self, npz_stream, tmp_path, capsys):
        out_path = tmp_path / "band.npz"
        argv = ["shard-build", str(npz_stream), "--tau", "3", "--tau-test", "3",
                "--signature", "exact", "--n-shards", "3", "--mode", "serial",
                "--checkpoint-dir", str(tmp_path / "ckpt"), "--seed", "0",
                "--output", str(out_path)]
        assert main(argv) == 0
        archive = np.load(out_path)
        assert archive["band"].shape == (12, 5)
        assert int(archive["bandwidth"]) == 6
        assert len(list((tmp_path / "ckpt").glob("shard_*.npz"))) == 3
        capsys.readouterr()
        # Second run resumes every shard from the checkpoints.
        assert main(argv[:-2]) == 0
        assert "resumed 3" in capsys.readouterr().err

    def test_band_matches_detector_build(self, npz_stream, tmp_path):
        out_path = tmp_path / "band.npz"
        assert main(
            ["shard-build", str(npz_stream), "--tau", "3", "--tau-test", "3",
             "--signature", "exact", "--n-shards", "2", "--mode", "serial",
             "--seed", "0", "--output", str(out_path)]
        ) == 0
        from repro import BagChangePointDetector
        from repro.core import DetectorConfig

        archive = np.load(npz_stream)
        bags = [np.asarray(archive[name], dtype=float) for name in sorted(archive.files)]
        config = DetectorConfig(tau=3, tau_test=3, signature_method="exact", random_state=0)
        detector = BagChangePointDetector(config)
        signatures = detector.build_signatures(bags)
        reference = detector._engine.banded_matrix(signatures, config.window_span)
        band = np.load(out_path)["band"]
        assert np.nanmax(np.abs(band - reference.band)) <= 1e-12
