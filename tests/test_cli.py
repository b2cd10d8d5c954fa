"""Config parsing, report emission, determinism, and exit codes."""

import json
from pathlib import Path

import numpy.testing as npt
import pytest

from reachgeom.cli import (
    ConfigError,
    _coerce,
    load_config,
    main,
    parse_config_text,
    run,
)

MINI = """
seed = 5

[norm euclid]
kind = euclidean
dim = 2

[shape square]
catalog = unit-square

[check duality]
type = norm-check
norm = euclid
samples = 200

[check measures]
type = measures
shape = square
norm = euclid
m = 1, 0
expect_theta = 4.0, 3.141592653589793
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestValueCoercion:
    def test_scalars(self):
        assert _coerce("true") is True
        assert _coerce("off") is False
        assert _coerce("42") == 42
        assert _coerce("2.5") == 2.5
        assert _coerce("disk") == "disk"

    def test_grid_grows_to_uniform_spacing(self):
        npt.assert_allclose(_coerce("0.5:1.5:3"), [0.5, 1.0, 1.5])

    def test_comma_list(self):
        assert _coerce("1, 0") == [1, 0]
        assert _coerce("a, 2.5") == ["a", 2.5]


class TestParser:
    def test_sections_and_comments(self):
        doc = parse_config_text(MINI)
        assert doc["top"]["seed"] == 5
        assert set(doc["shapes"]) == {"square"}
        assert doc["checks"]["measures"]["expect_theta"] == [4.0, 3.141592653589793]

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("seed = 1\nnot a key value pair\n")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_unterminated_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[norm euclid\nkind = euclidean\n")
        assert err.value.line == 1

    def test_duplicate_section_rejected(self):
        text = "[shape a]\ncatalog = disk\n[shape a]\ncatalog = disk\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(text)

    def test_empty_value_names_the_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[shape a]\ncatalog =\n")
        assert err.value.field == "catalog"


class TestValidation:
    def test_undeclared_shape_reference(self, tmp_path):
        text = MINI.replace("shape = square", "shape = pentagon")
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert err.value.field == "shape"

    def test_unknown_check_type(self, tmp_path):
        text = MINI.replace("type = measures", "type = audit")
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert err.value.field == "type"

    def test_unknown_norm_kind(self, tmp_path):
        text = MINI.replace("kind = euclidean", "kind = taxicab")
        with pytest.raises(ConfigError, match="taxicab"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "kind, field", [("ellipsoidal", "diag"), ("smoothed-lp", "p")]
    )
    def test_missing_norm_parameter_names_its_field(self, tmp_path, kind, field):
        text = MINI.replace("kind = euclidean", f"kind = {kind}")
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert (err.value.line, err.value.field) == (4, field)

    @pytest.mark.parametrize(
        "kind, extra, field",
        [
            ("smoothed-lp", "p = 3\nepsilon = 0.3", "epsilon"),
            ("euclidean", "diag = 4, 1", "diag"),
            ("ellipsoidal", "diag = 4, 1, 1", "dim"),
        ],
        ids=["smoothed-lp-epsilon", "euclidean-diag", "ellipsoidal-dim"],
    )
    def test_unknown_or_contradicting_norm_parameter(self, tmp_path, kind, extra, field):
        text = MINI.replace("kind = euclidean", f"kind = {kind}\n{extra}")
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert (err.value.line, err.value.field) == (4, field)

    @pytest.mark.parametrize("name", ["disk", "bubbles", "catalog-3d", "square"])
    def test_bundled_configs_load(self, name):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
        assert cfg.norms and cfg.checks

    def test_bad_norm_parameter_is_a_config_error(self, tmp_path):
        text = MINI.replace("kind = euclidean", "kind = ellipsoidal\ndiag = 4, -1")
        with pytest.raises(ConfigError, match="positive definite") as err:
            load_config(write_config(tmp_path, text))
        assert err.value.line == 4

    def test_wulff_shape_requires_a_norm(self, tmp_path):
        text = "[shape w]\ncatalog = wulff\n"
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert err.value.field == "catalog"

    def test_expect_must_be_pass_or_fail(self, tmp_path):
        text = MINI + "\n[check wobbly]\ntype = norm-check\nnorm = euclid\nexpect = maybe\n"
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert err.value.field == "expect"

    def test_json_config_equivalent(self, tmp_path):
        doc = {
            "seed": 5,
            "norms": {"euclid": {"kind": "euclidean", "dim": 2}},
            "shapes": {"square": {"catalog": "unit-square"}},
            "checks": [
                {"name": "duality", "type": "norm-check", "norm": "euclid", "samples": 200}
            ],
        }
        path = write_config(tmp_path, json.dumps(doc), name="exp.json")
        cfg = load_config(path)
        assert cfg.seed == 5
        assert [c.name for c in cfg.checks] == ["duality"]
        status, summary = run(cfg)
        assert status == 0 and summary["checks"][0]["passed"]


class TestRun:
    def test_subset_filters_by_check_type(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINI))
        _, summary = run(cfg, only="norm-check")
        assert [c["type"] for c in summary["checks"]] == ["norm-check"]

    def test_mini_config_all_pass(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINI))
        status, summary = run(cfg)
        assert status == 0
        assert summary["all_expected_pass"]
        assert len(summary["checks"]) == 2

    def test_wrong_oracle_fails_the_check(self, tmp_path):
        text = MINI.replace("expect_theta = 4.0", "expect_theta = 5.0")
        cfg = load_config(write_config(tmp_path, text))
        status, summary = run(cfg)
        assert status == 1
        failed = [c for c in summary["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["measures"]

    def test_expected_failure_does_not_fail_the_run(self, tmp_path):
        text = MINI.replace(
            "expect_theta = 4.0", "expect = fail\nexpect_theta = 5.0"
        )
        cfg = load_config(write_config(tmp_path, text))
        status, summary = run(cfg)
        assert status == 0

    def test_surprise_pass_is_flagged(self, tmp_path):
        text = MINI + "\n[check shadow]\ntype = norm-check\nnorm = euclid\nexpect = fail\n"
        cfg = load_config(write_config(tmp_path, text))
        status, summary = run(cfg)
        assert status == 0
        shadow = next(c for c in summary["checks"] if c["name"] == "shadow")
        assert shadow["surprise"] is True

    def test_threads_match_sequential(self, tmp_path):
        base = load_config(write_config(tmp_path, MINI))
        _, seq = run(base)
        threaded = load_config(write_config(tmp_path, MINI))
        threaded.threads = 4
        _, par = run(threaded)
        seq.pop("seed"), par.pop("seed")
        assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)


class TestMainEntry:
    def test_reports_written_and_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, MINI)
        out = tmp_path / "report"
        assert main(["run-all", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["all_expected_pass"] is True
        table = (out / "measures_measures.csv").read_bytes()
        assert table.splitlines()[0] == b"m,theta_total,quadrature_se,abs_total"
        assert b"\r\n" in table  # RFC-4180 line endings

    def test_stdout_json_when_no_out_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINI)
        assert main(["norm-check", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["subset"] == "norm-check"

    def test_same_seed_means_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, MINI)
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            assert main(["run-all", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("summary.json", "measures_measures.csv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_seed_override_lands_in_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINI)
        assert main(["norm-check", str(cfg), "--seed", "99"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    def test_unsuitable_verify_check_is_a_recorded_failure(self, tmp_path):
        # segment-pair has no volume, which Heintze-Karcher needs
        text = MINI.replace("catalog = unit-square", "catalog = segment-pair")
        text += "\n[check hk]\ntype = verify\nshape = square\nnorm = euclid\n"
        text += "samples = 64\nheintze_karcher = true\n"
        out = tmp_path / "report"
        assert main(["verify", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        (check,) = summary["checks"]
        assert check["passed"] is False
        assert "finite positive volume" in check["verdicts"][0]["error"]

    def test_config_error_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "seed = 1\nbroken line\n")
        assert main(["run-all", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_smoothed_lp_norm_check(self, tmp_path, capsys):
        text = MINI.replace("kind = euclidean", "kind = smoothed-lp\np = 3\neps = 0.05")
        assert main(["norm-check", str(write_config(tmp_path, text))]) == 0
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["passed"] is True

    def test_config_flag_equals_positional(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINI)
        assert main(["norm-check", "--config", str(cfg)]) == 0

    def test_bundled_disk_config_passes(self, tmp_path):
        bundled = Path(__file__).resolve().parents[1] / "configs" / "disk.cfg"
        out = tmp_path / "disk"
        assert main(["run-all", str(bundled), "--out", str(out)]) == 0
        rows = (out / "verify_verdicts.csv").read_text(encoding="utf-8").splitlines()
        assert all(",true," in r for r in rows[1:])
