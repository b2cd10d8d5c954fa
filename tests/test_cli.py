"""Config parsing, report emission, determinism, and exit codes."""

import json
import os
import subprocess
import sys
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


ROOT = Path(__file__).resolve().parents[1]


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


VERIFY_UNIONS = """
seed = 3

[norm aniso]
kind = ellipsoidal
diag = 4.0, 1.0

[shape gap]
catalog = two-disks-gap1

[shape wulff]
catalog = three-wulff
norm = aniso

[check gap-verify]
type = verify
shape = gap
norm = aniso
samples = 256
minkowski = 1
heintze_karcher = true
mean_convex = 1
alexandrov = 1
expect_bubble = false

[check wulff-verify]
type = verify
shape = wulff
norm = aniso
heintze_karcher = true
classify_equality = true
alexandrov = 1
expect_bubble = true
"""


class TestLazyReach:
    def test_verify_checks_on_unions_trace_no_ray(self, tmp_path, monkeypatch):
        # the verdicts read curvatures and the half-gap reach, never a ray reach
        from reachgeom import curvature, projection

        calls = []
        plain = projection.reach_along

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return plain(*args, **kwargs)

        monkeypatch.setattr(curvature, "reach_along", counting)
        monkeypatch.setattr(projection, "reach_along", counting)
        status, summary = run(load_config(write_config(tmp_path, VERIFY_UNIONS)))
        assert status == 0 and summary["all_expected_pass"]
        assert [c["name"] for c in summary["checks"]] == ["gap-verify", "wulff-verify"]
        assert calls == []


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

    @pytest.mark.parametrize(
        "ctype, params, field",
        [
            ("tube", "rho = -0.1, 0.5", "rho"),
            ("tube", "rho = 0.5\nh = 0", "h"),
            ("tube", "rho = 0.5\nh = -0.01", "h"),
            ("measures", "m = 5", "m"),
        ],
        ids=["negative-rho", "zero-h", "negative-h", "m-above-dim"],
    )
    def test_out_of_range_check_value_exits_two(self, tmp_path, capsys, ctype, params, field):
        text = MINI + f"\n[check bad]\ntype = {ctype}\nshape = square\nnorm = euclid\n{params}\n"
        line = text.splitlines().index("[check bad]") + 1
        assert main([ctype, str(write_config(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert f"line {line}" in err and f"field {field!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "ctype, params, field",
        [
            ("tube", "rho = true", "rho"),
            ("tube", "rho = 0.5, true", "rho"),
            ("tube", "rho = 0.5\nh = true", "h"),
            ("measures", "m = true", "m"),
            ("measures", "m = 1\nexpect_theta = true", "expect_theta"),
            ("verify", "minkowski = true", "minkowski"),
            ("verify", "mean_convex = true", "mean_convex"),
            ("verify", "alexandrov = true", "alexandrov"),
            ("norm-check", "tolerance = true", "tolerance"),
            ("tube", "rho = 0.5\ntolerance = true", "tolerance"),
            ("measures", "m = 1\nexpect_theta = 4.0\ntolerance = true", "tolerance"),
        ],
        ids=[
            "rho", "rho-list", "h", "m", "expect_theta", "minkowski", "mean_convex", "alexandrov",
            "norm-check-tolerance", "tube-tolerance", "measures-tolerance",
        ],
    )
    def test_boolean_for_a_number_exits_two(self, tmp_path, capsys, ctype, params, field):
        # true would otherwise be read as 1: h = true counted at pitch 1.0
        text = MINI + f"\n[check bad]\ntype = {ctype}\nshape = square\nnorm = euclid\n{params}\n"
        line = text.splitlines().index("[check bad]") + 1
        assert main([ctype, str(write_config(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert f"line {line}" in err and f"field {field!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", ["seed = true", "seed = 1.5", "threads = true"])
    def test_top_level_integer_exits_two(self, tmp_path, capsys, line):
        # seed = true would otherwise run seed 1
        text = MINI.replace("seed = 5", line)
        assert main(["norm-check", str(write_config(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert f"field {line.split()[0]!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("samples", ["-5", "0"])
    @pytest.mark.parametrize("ctype", ["measures", "tube", "verify", "reach", "norm-check"])
    def test_nonpositive_samples_exits_two(self, tmp_path, capsys, ctype, samples):
        rho = "rho = 0.5\n" if ctype == "tube" else ""
        text = MINI + f"\n[check bad]\ntype = {ctype}\nshape = square\nnorm = euclid\n"
        text += f"{rho}samples = {samples}\n"
        line = text.splitlines().index("[check bad]") + 1
        assert main([ctype, str(write_config(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert f"line {line}" in err and "field 'samples'" in err
        assert "Traceback" not in err

    def test_empty_rho_list_in_json_config_exits_two(self, tmp_path, capsys):
        doc = {
            "norms": {"euclid": {"kind": "euclidean", "dim": 2}},
            "shapes": {"disk": {"catalog": "disk"}},
            "checks": [{"name": "t", "type": "tube", "shape": "disk", "norm": "euclid", "rho": []}],
        }
        assert main(["tube", str(write_config(tmp_path, json.dumps(doc), "exp.json"))]) == 2
        assert "field 'rho'" in capsys.readouterr().err

    def test_voxel_budget_exits_three(self, tmp_path, capsys):
        # pitch 1e-4 over the padded disk is ~4.4e8 cells, above the voxel cap
        text = MINI.replace("catalog = unit-square", "catalog = disk")
        text += "\n[check tube]\ntype = tube\nshape = square\nnorm = euclid\n"
        text += "rho = 0.5\nh = 0.0001\n"
        assert main(["tube", str(write_config(tmp_path, text))]) == 3
        assert "budget exceeded" in capsys.readouterr().err

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


def fresh_python(code, *args):
    """Run code in a new interpreter that imports the package from source; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestImportFootprint:
    def test_bubble_config_loads_no_scipy(self, tmp_path):
        # bubbles.cfg runs the soap-bubble classifier on three unions
        code = (
            "import json, sys\n"
            "from reachgeom.cli import main\n"
            "status = main(['run-all', sys.argv[1], '--out', sys.argv[2]])\n"
            f"print(json.dumps([status, {SCIPY_MODULES}]))\n"
        )
        out = tmp_path / "bubbles"
        stdout = fresh_python(code, ROOT / "configs" / "bubbles.cfg", out)
        assert json.loads(stdout.splitlines()[-1]) == [0, []]
        rows = (out / "verify_triple-verdicts.csv").read_text(encoding="utf-8")
        assert "alexandrov-r1,true,count=3," in rows

    def test_one_thread_run_loads_no_polynomial_or_thread_pool(self, tmp_path):
        # the default Gauss-Legendre rules are tabulated, and the thread pool
        # is imported only for a run on several threads
        code = (
            "import json, sys\n"
            "from reachgeom.cli import main\n"
            "status = main(['run-all', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(json.dumps([status, sorted(m for m in sys.modules\n"
            "                  if m.startswith(('numpy.polynomial', 'concurrent')))]))\n"
        )
        stdout = fresh_python(code, ROOT / "configs" / "square.cfg", tmp_path / "square")
        assert json.loads(stdout.splitlines()[-1]) == [0, []]

    def test_lens_complement_field_loads_no_scipy(self):
        # the lens complement has no closed form under diag(4, 1): its disks'
        # complements take the support search
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "from reachgeom.norms import EllipsoidalNorm\n"
            "from reachgeom.projection import distance_field, set_distance\n"
            "from reachgeom.shapes import make_catalog_shape\n"
            "outside = make_catalog_shape('cap-lens-0.5').complement()\n"
            "q = EllipsoidalNorm(np.diag([4.0, 1.0]))\n"
            "pts = np.array([[0.0, 0.2], [0.4, -0.1], [-0.7, 0.05], [2.5, 2.0]])\n"
            "field = distance_field(outside, q, pts)\n"
            f"print(json.dumps([{SCIPY_MODULES}, field.tolist(),\n"
            "                  set_distance(outside, q, pts).tolist()]))\n"
        )
        loaded, field, exact = json.loads(fresh_python(code).splitlines()[-1])
        assert loaded == []
        assert field == exact
        assert min(field[:3]) > 0.0 and field[3] == 0.0
