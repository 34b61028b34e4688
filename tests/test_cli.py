"""CLI tests: subcommands, outputs, and exit-code mapping."""

import json

import pytest

from dystress.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main

TINY_CONFIG = {
    "config_version": 1,
    "seed": 2,
    "synthetic": {
        "num_classes": 3,
        "samples_per_class": 8,
        "ambient_dim": 6,
        "intra_class_sigma": 0.2,
        "augment_sigma": 0.1,
    },
    "encoder": {"layer_widths": [6, 8, 4]},
    "batch_size": 8,
    "epochs": 2,
    "eval_every": 1,
    "knn_k": 2,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def with_value(payload, path, value):
    """Copy of `payload` with the dotted `path` set to `value`."""
    out = json.loads(json.dumps(payload))
    *sections, key = path.split(".")
    target = out
    for section in sections:
        target = target.setdefault(section, {})
    target[key] = value
    return out


def edited_dump(tmp_path, edit):
    """An embedding dump of 3 samples in 4 dimensions whose second line is `edit` of its record."""
    from conftest import random_batch
    from dystress.geometry import write_embedding_dump
    from dystress.numeric import Rng

    dump = tmp_path / "dump.jsonl"
    write_embedding_dump(dump, random_batch(Rng(4), 3, 4))
    lines = dump.read_text().splitlines()
    lines[1] = edit(json.loads(lines[1]))
    dump.write_text("\n".join(lines) + "\n")
    return dump


NAN, INF = float("nan"), float("inf")
TOO_BIG_FOR_A_DOUBLE = 10**400  # a JSON int of 401 digits; float() of it overflows
MALFORMED_BASE = {**TINY_CONFIG, "profile": {"variant": "exponential", "tau_min": 0.1, "tau_max": 0.2}}
MALFORMED_CONFIG_VALUES = [
    ("knn_weight_temperature", NAN),
    ("synthetic.intra_class_sigma", NAN),
    ("optimizer.weight_decay", NAN),
    ("optimizer.lr", NAN),
    ("synthetic.augment_sigma", NAN),
    ("profile.sharpness", NAN),
    ("encoder.init_scale", INF),
    ("profile.tau_max", INF),
    ("batch_size", 2.7),
    ("epochs", True),
    ("batch_size", "abc"),
    ("synthetic.num_classes", "3"),
    ("profile.tau_min", "0.1"),
    ("encoder.layer_widths", 5),
    ("synthetic", [1]),
    ("profile.sharpness", 800),
    ("profile.tau_min", 0.002),
    ("profile", {"variant": "constant", "tau_min": 0.1, "tau_max": 0.2}),
    ("profile", {"variant": "linear", "tau_min": 0.1}),
    ("config_version", True),
    ("config_version", 1.0),
    ("knn_weight_temperature", 1e-300),
    ("optimizer.lr", True),
    ("encoder.init_scale", True),
    ("profile.sharpness", True),
    ("synthetic.augment_sigma", True),
    ("optimizer.lr", TOO_BIG_FOR_A_DOUBLE),
    ("knn_weight_temperature", TOO_BIG_FOR_A_DOUBLE),
]
MALFORMED_SWEEP_VALUES = [
    ("overrides", {"seeds": ["a"]}),
    ("overrides", {"seeds": [0, 2**64]}),
    ("max_configs", "x"),
    ("config_version", True),
]


def value_id(value) -> str:
    """Test-id text for `value`, with the 401-digit int spelled 10**400."""
    return "10**400" if value == TOO_BIG_FOR_A_DOUBLE else repr(value)


def malformed_runs():
    for path, value in MALFORMED_CONFIG_VALUES:
        config = with_value(MALFORMED_BASE, path, value)
        yield pytest.param("simulate", config, id=f"simulate-{path}={value_id(value)}")
        sweep = {"config_version": 1, "base": config}
        yield pytest.param("sweep", sweep, id=f"sweep-base.{path}={value_id(value)}")
    for path, value in MALFORMED_SWEEP_VALUES:
        sweep = with_value({"config_version": 1, "base": MALFORMED_BASE}, path, value)
        yield pytest.param("sweep", sweep, id=f"sweep-{path}={value!r}")


@pytest.mark.parametrize("command, payload", list(malformed_runs()))
def test_malformed_config_value_exit_1(tmp_path, capsys, command, payload):
    config_path = write_config(tmp_path, payload)
    out_dir = tmp_path / "out"
    code = main([command, "--config", str(config_path), "--out-dir", str(out_dir)])
    assert code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize(
    "content",
    [b"{", b'{"config_version": 1, "seed": ' + b"1" * 4301 + b"}", b"[" * 100_000, b'{"seed": "\xff"}'],
    ids=["truncated", "int-of-4301-digits", "nested-too-deep", "not-utf-8"],
)
def test_malformed_json_exit_1(tmp_path, capsys, command, content):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(content)
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--out-dir", str(out_dir)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {config_path} is not valid JSON:")
    assert not out_dir.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("path", ["encoder.init_scale", "optimizer.lr"])
def test_diverging_run_exit_2(tmp_path, capsys, path):
    # the encoder's output norm overflows: a numeric failure, not a malformed config
    config_path = write_config(tmp_path, with_value(TINY_CONFIG, path, 1e300))
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "numeric failure:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "profile",
    [
        {"variant": "cosine_vanilla", "tau_min": 0.1, "tau_max": 0.2, "shift": 0.5},
        {"variant": "linear", "tau_min": 0.1, "tau_max": 0.2, "sharpness": 3.0},
        {"variant": "cosine_shifted", "tau_min": 0.1, "tau_max": 0.2, "shift": 0.2, "scale": 0.6,
         "sharpness": 2.0},
    ],
)
def test_profile_field_its_variant_ignores_exit_1(tmp_path, capsys, profile):
    config_path = write_config(tmp_path, {**TINY_CONFIG, "profile": profile})
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)]) == EXIT_VALIDATION
    assert "takes no" in capsys.readouterr().err
    assert not out_dir.exists()


class TestTempProfile:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = main(["temp-profile", "--profile", "cosine:0.1:0.2", "--samples", "5", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,tau"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == -1.0 and abs(float(first[1]) - 0.2) < 1e-12

    def test_shifted_arguments(self, tmp_path):
        from dystress.temperature import TemperatureProfile, write_profile_csv

        out, expected = tmp_path / "p.csv", tmp_path / "expected.csv"
        argv = ["temp-profile", "--profile", "shifted:0.1:0.2:-0.4:0.7", "--samples", "11", "--out", str(out)]
        assert main(argv) == EXIT_OK
        write_profile_csv(expected, TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=-0.4, scale=0.7), 11)
        assert out.read_bytes() == expected.read_bytes()

    def test_invalid_range_exit_1(self, tmp_path):
        code = main(
            ["temp-profile", "--profile", "cosine:0.3:0.2", "--samples", "5", "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("cosine:0.1:0.2:0.5", "cosine takes the values tau_min:tau_max, got 3"),
            ("linear:0.1:0.2:3", "linear takes the values tau_min:tau_max, got 3"),
            ("sinusoid:0.1:0.2", "unknown profile name 'sinusoid'"),
        ],
        ids=["cosine-extra-value", "linear-extra-value", "unknown-name"],
    )
    def test_bad_spec_exit_1(self, tmp_path, capsys, spec, message):
        out = tmp_path / "x.csv"
        assert main(["temp-profile", "--profile", spec, "--samples", "5", "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()


class TestOdeVerify:
    def test_small_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "ode.csv"
        code = main(
            [
                "ode-verify",
                "--delta", "1.0",
                "--bigk", "10.0",
                "--tau-max", "0.2",
                "--c-count", "4",
                "--s-count", "501",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert "summary: PASS" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "delta,bigk,c,frac_correct_sign,valid_points"
        assert len(lines) == 5


    @pytest.mark.parametrize("option", ["--delta", "--bigk", "--tau-max"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_exit_1(self, tmp_path, capsys, option, value):
        args = {"--delta": "1.0", "--bigk": "10", "--tau-max": "0.2", option: value}
        argv = ["ode-verify", "--c-count", "2", "--s-count", "11", "--out", str(tmp_path / "x.csv")]
        for name, text in args.items():
            argv += [name, text]
        assert main(argv) == EXIT_VALIDATION
        assert "positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_negative_s_count_exit_1(self, tmp_path, capsys):
        argv = ["ode-verify", "--delta", "1.0", "--bigk", "10.0", "--tau-max", "0.2", "--c-count", "2"]
        assert main(argv + ["--s-count", "-1", "--out", str(tmp_path / "ode.csv")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: s_count must be an integer of at least 0, got -1"]
        assert not (tmp_path / "ode.csv").exists()

    def test_insufficient_grid_exit_2(self, tmp_path, capsys):
        # a 2-point s grid cannot support central differences: every cell is
        # flagged insufficient and the verification cannot pass
        code = main(
            [
                "ode-verify",
                "--delta", "1.0",
                "--bigk", "10.0",
                "--tau-max", "0.2",
                "--c-count", "2",
                "--s-count", "2",
                "--out", str(tmp_path / "ode.csv"),
            ]
        )
        assert code == EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out


class TestGradcheck:
    @pytest.mark.parametrize("mode", ["detached", "coupled"])
    def test_passes(self, mode, capsys):
        code = main(
            ["gradcheck", "--n", "3", "--d", "5", "--mode", mode, "--trials", "3", "--seed", "1"]
        )
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_bad_arguments_exit_1(self, capsys):
        for flag in ("--n", "--d", "--trials"):
            assert main(["gradcheck", flag, "0"]) == EXIT_VALIDATION
            assert f"error: {flag} must be an integer" in capsys.readouterr().err


class TestSimulateAndMetrics:
    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        config_path = write_config(tmp_path, TINY_CONFIG)
        out_dir = tmp_path / "run"
        code = main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        header, *rows = (out_dir / "metrics.csv").read_text().splitlines()
        last = rows[-1].split(",")
        final = capsys.readouterr().out.splitlines()[-1]
        assert final.startswith(f"final epoch {last[0]}: ") and last[0] == "2"
        # each metric printed exactly as its cell in the last metrics.csv row
        printed = dict(item.split("=") for item in final.split(": ", 1)[1].split())
        assert printed == dict(zip(header.split(",")[1:], last[1:]))

    def test_simulate_determinism_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path, TINY_CONFIG)
        main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "r1")])
        main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "metrics.csv").read_bytes() == (
            tmp_path / "r2" / "metrics.csv"
        ).read_bytes()

    def test_simulate_with_dataset_file(self, tmp_path):
        from dystress.harness import config_from_dict
        from dystress.synthetic import generate, write_dataset

        config = config_from_dict(TINY_CONFIG)
        data_path = tmp_path / "data.jsonl"
        write_dataset(data_path, generate(config.synthetic, config.seed))
        config_path = write_config(tmp_path, TINY_CONFIG)
        code = main(
            [
                "simulate",
                "--config", str(config_path),
                "--out-dir", str(tmp_path / "run"),
                "--data", str(data_path),
            ]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": "x", "label": 9223372036854775808, "x": [0, 0, 0, 0, 0, 0]}',
            '{"id": "x", "label": 1, "x": [0, 0, 0]}',
            '{"id": "x", "label": 1, "x": "010101"}',
            "[" * 100000,
            '{"id": "a", "label": 1, "x": [0, 1, 0, 0, 0, 0]}',
        ],
        ids=["label-beyond-int64", "x-ragged", "x-string", "deep-nesting", "id-repeated"],
    )
    def test_simulate_bad_dataset_record_exit_1(self, tmp_path, capsys, line):
        data_path = tmp_path / "data.jsonl"
        data_path.write_text('{"id": "a", "label": 0, "x": [1, 0, 0, 0, 0, 0]}\n' + line + "\n")
        config_path = write_config(tmp_path, TINY_CONFIG)
        argv = ["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "run")]
        assert main(argv + ["--data", str(data_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: bad dataset record on line 2:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_metrics_recompute(self, tmp_path, capsys):
        config_path = write_config(tmp_path, TINY_CONFIG)
        out_dir = tmp_path / "run"
        main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)])
        code = main(["metrics", "--embeddings", str(out_dir / "embeddings.jsonl"), "--k", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for key in ("uniformity", "alignment", "tolerance", "interclass_uniformity", "knn_top1"):
            assert key in out

    def test_metrics_nan_coordinate_exit_1(self, tmp_path, capsys):
        def nan_coordinate(record):
            record["z"][2] = NAN
            return json.dumps(record)

        dump = edited_dump(tmp_path, nan_coordinate)
        assert main(["metrics", "--embeddings", str(dump), "--k", "2"]) == EXIT_VALIDATION
        assert "not unit norm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "{", "[1, 2]", '"text"', '{"view": "a", "z": [1.0]}', '{"id": "s0", "z": [1.0]}',
            '{"id": "s0", "view": "a"}', "[" * 100000,
        ],
        ids=["not-json", "list", "string", "no-id", "no-view", "no-z", "deep-nesting"],
    )
    def test_metrics_malformed_dump_line_exit_1(self, tmp_path, capsys, line):
        dump = edited_dump(tmp_path, lambda record: line)
        assert main(["metrics", "--embeddings", str(dump), "--k", "2"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: bad embedding record on line 2:")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("z", "abc"), ("z", "0100"), ("z", [0.6, 0.8, 0.0]), ("label", "x"), ("label", 2**63),
            ("label", 1.5), ("label", True), ("view", "c"),
        ],
        ids=[
            "z-string", "z-digit-string", "z-one-short", "label-string", "label-beyond-int64",
            "label-float", "label-bool", "view-unknown",
        ],
    )
    def test_metrics_bad_dump_value_exit_1(self, tmp_path, capsys, field, value):
        dump = edited_dump(tmp_path, lambda record: json.dumps({**record, field: value}))
        assert main(["metrics", "--embeddings", str(dump), "--k", "2"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: bad embedding record on line 2:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_metrics_repeated_id_exit_1(self, tmp_path, capsys):
        dump = edited_dump(tmp_path, json.dumps)
        dump.write_text(dump.read_text().replace('"id": "s1"', '"id": "s0"'))  # in both views
        assert main(["metrics", "--embeddings", str(dump), "--k", "2"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: bad embedding record on line 2: id 's0' repeats in view a")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_metrics_views_with_different_labels_exit_1(self, tmp_path, capsys):
        dump = edited_dump(tmp_path, json.dumps)
        lines = dump.read_text().replace('"label": null', '"label": 0').splitlines()
        lines[4] = lines[4].replace('"label": 0', '"label": 1')  # view b of s1
        dump.write_text("\n".join(lines) + "\n")
        assert main(["metrics", "--embeddings", str(dump), "--k", "2"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: bad embedding record on line 5: id 's1' has a label other than")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_unknown_config_field_exit_1(self, tmp_path):
        config_path = write_config(tmp_path, {**TINY_CONFIG, "typo_field": 1})
        code = main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION

    def test_missing_config_exit_3(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
        assert code == EXIT_IO

    def test_missing_out_dir_exit_1(self, tmp_path):
        config_path = write_config(tmp_path, TINY_CONFIG)
        assert main(["simulate", "--config", str(config_path)]) == EXIT_VALIDATION


class TestSweepCommand:
    def test_sweep_runs_and_writes_csv(self, tmp_path, capsys):
        sweep_config = {
            "config_version": 1,
            "base": {**TINY_CONFIG, "epochs": 1},
            "overrides": {
                "profiles": [
                    {"variant": "constant", "tau_min": 0.1, "tau_max": 0.1},
                    {"variant": "cosine_vanilla", "tau_min": 0.1, "tau_max": 0.2},
                ]
            },
        }
        config_path = write_config(tmp_path, sweep_config, "sweep.json")
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config_path), "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + 2 configs x 2 eval epochs
        assert (out_dir / "run_000" / "metrics.csv").exists()
        assert (out_dir / "run_001" / "metrics.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_1(self, tmp_path, workers):
        sweep_config = {"config_version": 1, "base": {**TINY_CONFIG, "epochs": 1}}
        config_path = write_config(tmp_path, sweep_config, "sweep.json")
        out_dir = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(config_path), "--out-dir", str(out_dir), "--workers", workers]
        )
        assert code == EXIT_VALIDATION
        assert not (out_dir / "sweep.csv").exists()
