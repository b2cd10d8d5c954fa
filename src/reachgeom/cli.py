"""Experiment driver: config loading, orchestration, and report emission.

A config file declares norms, shapes, and checks in a small sectioned
key=value format (JSON is accepted as an alternative); the subcommands run
the matching subset of checks and write a JSON summary plus one CSV table
per tabular check.  Fixed seed means byte-identical outputs, so reports can
be diffed across runs.

Config example::

    seed = 7
    out = reports/disk

    [norm euclid]
    kind = euclidean
    dim = 2

    [shape disk]
    catalog = disk

    [check tube-disk]
    type = tube
    shape = disk
    norm = euclid
    rho = 0.1:2.0:20

Values are coerced by shape: integers, floats, true/false, comma lists,
and ``start:stop:count`` growing to a uniform grid.  Every check accepts
``expect = pass`` (default) or ``expect = fail``; the process exits 0 iff
all expected-pass checks pass.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.random import default_rng

from .measures import (
    BudgetExceeded,
    _auto_bundle,
    curvature_measure,
    phi_perimeter,
    tube_record,
)
from .norms import NORM_KINDS, NormParameterError, make_norm
from .projection import global_reach
from .shapes import EmptyInteriorError, make_catalog_shape
from .theorems import (
    PreconditionFailed,
    alexandrov_classify,
    heintze_karcher_check,
    json_safe,
    lower_bound_rigidity,
    mean_convexity_ledger,
    minkowski_check,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CheckSpec",
    "load_config",
    "parse_config_text",
    "run",
    "main",
]

SUBCOMMANDS = (
    "norm-check",
    "shape-info",
    "reach",
    "tube",
    "measures",
    "verify",
    "run-all",
)
CHECK_TYPES = SUBCOMMANDS[:-1]


class ConfigError(ValueError):
    """Config file rejected; carries the offending line and field."""

    def __init__(self, message: str, line: Optional[int] = None, field_: Optional[str] = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field_ is not None:
            where.append(f"field {field_!r}")
        super().__init__(f"{message}" + (f" ({', '.join(where)})" if where else ""))
        self.line = line
        self.field = field_


# ======================================================================
# config parsing
# ======================================================================


def _coerce(text: str):
    """Shape-directed value coercion: bool, number, grid, list, or string."""
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if "," in text:
        return [_coerce(part.strip()) for part in text.split(",")]
    if text.count(":") == 2:
        a, b, k = text.split(":")
        try:
            return np.linspace(float(a), float(b), int(k)).tolist()
        except ValueError:
            return text
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_config_text(text: str) -> dict:
    """Parse the sectioned key=value format into plain nested dicts."""
    top: dict = {}
    tables = {"norm": {}, "shape": {}, "check": {}}
    current = top
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line=lineno)
            parts = line[1:-1].split()
            if len(parts) != 2 or parts[0] not in tables:
                raise ConfigError(
                    "section header must be [norm|shape|check <name>]", line=lineno
                )
            kind, name = parts
            if name in tables[kind]:
                raise ConfigError(f"duplicate {kind} section {name!r}", line=lineno)
            current = tables[kind].setdefault(name, {"_line": lineno})
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError("empty key or value", line=lineno, field_=key or None)
        current[key] = _coerce(val)
    return {
        "top": top,
        "norms": tables["norm"],
        "shapes": tables["shape"],
        "checks": tables["check"],
    }


def _parse_json_config(text: str) -> dict:
    doc = json.loads(text)
    checks = doc.get("checks", {})
    if isinstance(checks, list):
        checks = {c.pop("name"): c for c in checks}
    return {
        "top": {k: v for k, v in doc.items() if k not in ("norms", "shapes", "checks")},
        "norms": doc.get("norms", {}),
        "shapes": doc.get("shapes", {}),
        "checks": checks,
    }


@dataclass
class CheckSpec:
    name: str
    type: str
    params: dict
    expect: str = "pass"
    line: Optional[int] = None


@dataclass
class ExperimentConfig:
    """Validated experiment: built norms and shapes plus the check list."""

    seed: int = 0
    threads: int = 1
    out: Optional[Path] = None
    norms: dict = field(default_factory=dict)
    shapes: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)


def _as_config(parsed: dict, path: Optional[str] = None) -> ExperimentConfig:
    top = parsed["top"]
    for key in ("seed", "threads"):
        if key in top and not (isinstance(top[key], int) and not isinstance(top[key], bool)):
            raise ConfigError(f"{key} must be an integer", field_=key)
    cfg = ExperimentConfig(
        seed=int(top.get("seed", 0)),
        threads=int(top.get("threads", 1)),
        out=Path(top["out"]) if "out" in top else None,
    )
    for name, decl in parsed["norms"].items():
        line = decl.get("_line")
        kind = decl.get("kind")
        # every other key is a make_norm parameter; the config's diag is an
        # ellipsoidal norm's Q
        params = {
            "Q" if k == "diag" and kind == "ellipsoidal" else k: v
            for k, v in decl.items()
            if k not in ("_line", "kind", "dim")
        }
        dim = decl.get("dim")
        try:
            cfg.norms[name] = make_norm(kind, None if dim is None else int(dim), **params)
        except KeyError as exc:
            key = "diag" if exc.args[0] == "Q" else exc.args[0]
            raise ConfigError(f"norm {name!r} needs a {key}", line=line, field_=key) from exc
        except NormParameterError as exc:
            raise ConfigError(f"norm {name!r}: {exc}", line=line, field_=exc.key) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"norm {name!r}: {exc}",
                line=line,
                field_="kind" if kind not in NORM_KINDS else None,
            ) from exc
    for name, decl in parsed["shapes"].items():
        line = decl.get("_line")
        key = decl.get("catalog")
        if key is None:
            raise ConfigError(f"shape {name!r} needs a catalog key", line=line, field_="catalog")
        norm = None
        if "norm" in decl:
            if decl["norm"] not in cfg.norms:
                raise ConfigError(
                    f"shape {name!r} references undeclared norm {decl['norm']!r}",
                    line=line,
                    field_="norm",
                )
            norm = cfg.norms[decl["norm"]]
        try:
            cfg.shapes[name] = make_catalog_shape(key, norm)
        except (KeyError, ValueError) as exc:
            raise ConfigError(
                f"shape {name!r}: cannot build catalog entry {key!r}: {exc}",
                line=line,
                field_="catalog",
            ) from exc
    for name, decl in parsed["checks"].items():
        line = decl.pop("_line", None)
        ctype = decl.pop("type", None)
        if ctype not in CHECK_TYPES:
            raise ConfigError(
                f"check {name!r} has unknown type {ctype!r}", line=line, field_="type"
            )
        expect = decl.pop("expect", "pass")
        if expect not in ("pass", "fail"):
            raise ConfigError(
                f"check {name!r}: expect must be pass or fail", line=line, field_="expect"
            )
        for ref, table in (("norm", cfg.norms), ("shape", cfg.shapes)):
            if ref in decl and decl[ref] not in table:
                raise ConfigError(
                    f"check {name!r} references undeclared {ref} {decl[ref]!r}",
                    line=line,
                    field_=ref,
                )
        if ctype == "norm-check":
            if "norm" not in decl:
                raise ConfigError(f"check {name!r} needs a norm", line=line, field_="norm")
        elif "shape" not in decl:
            raise ConfigError(f"check {name!r} needs a shape", line=line, field_="shape")
        samples = decl.get("samples")
        # every check type but shape-info reads it
        if ctype != "shape-info" and samples is not None and not (
            isinstance(samples, int) and not isinstance(samples, bool) and samples > 0
        ):
            raise ConfigError(
                f"check {name!r}: samples must be a positive integer", line=line, field_="samples"
            )
        cfg.checks.append(CheckSpec(name, ctype, decl, expect, line))
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read, parse, and validate a config file (key=value or JSON)."""
    text = Path(path).read_text(encoding="utf-8")
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        parsed = _parse_json_config(text)
    else:
        parsed = parse_config_text(text)
    return _as_config(parsed, str(path))


# ======================================================================
# check runners
# ======================================================================


def _run_norm_check(cfg: ExperimentConfig, spec: CheckSpec) -> dict:
    norm = cfg.norms[spec.params["norm"]]
    k = int(spec.params.get("samples", 1000))
    tol = _tolerance(spec, 1e-8)
    rng = default_rng(cfg.seed)
    u = rng.standard_normal((k, norm.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    on_sphere = u
    on_ball = u / norm.value(u)[:, None]  # phi = 1 there
    round1 = np.abs(norm.conjugate_grad(norm.grad(on_ball)) - on_ball).max()
    round2 = np.abs(norm.gauss_map(norm.gauss_inverse(on_sphere)) - on_sphere).max()
    worst = float(max(round1, round2))
    return {
        "passed": worst <= tol,
        "dual_roundtrip": float(round1),
        "gauss_roundtrip": float(round2),
        "tolerance": tol,
        "samples": k,
    }


def _run_shape_info(cfg: ExperimentConfig, spec: CheckSpec) -> dict:
    shape = cfg.shapes[spec.params["shape"]]
    vol = shape.volume()
    out = {
        "passed": True,
        "dim": shape.dim,
        "volume": None if vol is None else float(vol),
        "diameter": float(shape.diameter),
        "convex": bool(shape.is_convex),
    }
    strata = {}
    for s in shape.boundary_strata(n=64, seed=cfg.seed):
        strata[str(s.index)] = strata.get(str(s.index), 0.0) + float(s.weights.sum())
    out["strata_weight"] = strata
    if "norm" in spec.params:
        norm = cfg.norms[spec.params["norm"]]
        try:
            out["phi_perimeter"] = float(phi_perimeter(shape, norm, seed=cfg.seed))
        except EmptyInteriorError:
            out["phi_perimeter"] = None
    return out


def _run_reach(cfg: ExperimentConfig, spec: CheckSpec) -> dict:
    shape = cfg.shapes[spec.params["shape"]]
    norm = cfg.norms[spec.params["norm"]]
    est = global_reach(shape, norm)  # no route samples, so a ``samples`` key is ignored
    return {
        "passed": True,
        "global_reach": float(est.global_reach),
        "bracket": [float(est.bracket[0]), float(est.bracket[1])],
        "infinite": bool(est.is_infinite),
    }


def _is_number(value) -> bool:
    # a config's true and false are bools, which Python counts as ints
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, name: str, line: Optional[int]) -> list:
    """A number or a list of numbers, as a list; anything else is a ConfigError."""
    items = value if isinstance(value, list) else [value]
    if not all(map(_is_number, items)):
        raise ConfigError(f"{name} must be a number, list, or grid", line=line, field_=name)
    return items


def _as_float_list(value, name: str, line: Optional[int]) -> list:
    return [float(v) for v in _numbers(value, name, line)]


def _tolerance(spec: CheckSpec, default: float) -> float:
    tol = spec.params.get("tolerance", default)
    if not _is_number(tol):
        raise ConfigError(
            f"check {spec.name!r}: tolerance must be a number", line=spec.line, field_="tolerance"
        )
    return float(tol)


def _run_tube(cfg: ExperimentConfig, spec: CheckSpec) -> dict:
    shape = cfg.shapes[spec.params["shape"]]
    norm = cfg.norms[spec.params["norm"]]
    if "rho" not in spec.params:
        raise ConfigError(f"check {spec.name!r} needs a rho grid", line=spec.line, field_="rho")
    rho = _as_float_list(spec.params["rho"], "rho", spec.line)
    if not rho or not all(r > 0 for r in rho):
        raise ConfigError(
            f"check {spec.name!r} needs positive tube radii", line=spec.line, field_="rho"
        )
    h = spec.params.get("h")
    if h is not None and not (_is_number(h) and 0 < h < np.inf):
        raise ConfigError(
            f"check {spec.name!r}: voxel pitch must be a positive number",
            line=spec.line,
            field_="h",
        )
    tol = _tolerance(spec, 0.01)
    rec = tube_record(
        shape,
        norm,
        rho,
        h=h,
        n=int(spec.params.get("samples", 512)),
        seed=cfg.seed,
    )
    gate = np.abs(rec.residuals) <= tol * rec.voxel_volume + 3.0 * rec.voxel_error
    rows = [
        [r, v, e, p, d]
        for r, v, e, p, d in zip(
            rec.rho_grid, rec.voxel_volume, rec.voxel_error, rec.steiner_prediction, rec.residuals
        )
    ]
    return {
        "passed": bool(gate.all()),
        "max_relative_residual": float(
            np.max(np.abs(rec.residuals) / np.maximum(rec.voxel_volume, 1e-300))
        ),
        "voxel_pitch": float(rec.h),
        "csv": (
            ["rho", "voxel_volume", "voxel_error", "prediction", "residual"],
            rows,
        ),
    }


def _run_measures(cfg: ExperimentConfig, spec: CheckSpec) -> dict:
    shape = cfg.shapes[spec.params["shape"]]
    norm = cfg.norms[spec.params["norm"]]
    n = shape.dim - 1
    orders = _numbers(spec.params.get("m", list(range(n + 1))), "m", spec.line)
    if not all(m in range(n + 1) for m in orders):
        raise ConfigError(
            f"check {spec.name!r}: every m must be an integer in 0..{n}",
            line=spec.line,
            field_="m",
        )
    reports = [
        curvature_measure(
            shape, norm, int(m), n=int(spec.params.get("samples", 512)), seed=cfg.seed
        )
        for m in orders
    ]
    rows = [
        [int(m), rep.theta_total, rep.quadrature_se, rep.abs_total]
        for m, rep in zip(orders, reports)
    ]
    out = {
        "passed": True,
        "totals": {str(int(m)): rep.theta_total for m, rep in zip(orders, reports)},
        "csv": (["m", "theta_total", "quadrature_se", "abs_total"], rows),
    }
    if "expect_theta" in spec.params:
        want = _as_float_list(spec.params["expect_theta"], "expect_theta", spec.line)
        if len(want) != len(orders):
            raise ConfigError(
                f"check {spec.name!r}: expect_theta must match m in length",
                line=spec.line,
                field_="expect_theta",
            )
        tol = _tolerance(spec, 0.01)
        got = np.array([rep.theta_total for rep in reports])
        err = np.abs(got - np.array(want)) / np.maximum(np.abs(want), 1e-300)
        out["passed"] = bool((err <= tol).all())
        out["oracle_relative_error"] = float(err.max())
    return out


def _run_verify(cfg: ExperimentConfig, spec: CheckSpec) -> dict:
    shape = cfg.shapes[spec.params["shape"]]
    norm = cfg.norms[spec.params["norm"]]
    n_samples = int(spec.params.get("samples", 512))
    # read before any work, and outside the try below, which records a
    # ValueError as a failed verdict
    orders = {
        key: [int(r) for r in _numbers(spec.params.get(key, []), key, spec.line)]
        for key in ("minkowski", "mean_convex", "alexandrov")
    }
    bundle = _auto_bundle(shape, norm, None, n_samples, cfg.seed)
    verdicts = []

    def record(name, ok, detail):
        verdicts.append({"check": name, "ok": bool(ok), **detail})

    try:
        for r in orders["minkowski"]:
            v = minkowski_check(shape, norm, r, bundle=bundle, n=n_samples, seed=cfg.seed)
            record(v.name, v.passed, {"residual": v.residual, "tolerance": v.tolerance})
        if spec.params.get("heintze_karcher", False):
            v = heintze_karcher_check(
                shape, norm, bundle=bundle, n=n_samples, seed=cfg.seed,
                classify_equality=bool(spec.params.get("classify_equality", False)),
            )
            record(
                v.name,
                v.passed,
                {
                    "slack": v.notes.get("slack"),
                    "equality": v.notes.get("equality"),
                    "flag": v.notes.get("slack_flag"),
                },
            )
        for r in orders["mean_convex"]:
            v = mean_convexity_ledger(shape, norm, r, bundle=bundle, n=n_samples, seed=cfg.seed)
            record(v.name, v.passed, {"worst": v.lhs, "witnesses": len(v.witnesses)})
        expect_bubble = bool(spec.params.get("expect_bubble", True))
        for r in orders["alexandrov"]:
            v = alexandrov_classify(shape, norm, r, bundle=bundle, n=n_samples, seed=cfg.seed)
            record(
                f"alexandrov-r{r}",
                v.is_bubble_union == expect_bubble,
                {
                    "is_bubble_union": v.is_bubble_union,
                    "count": v.count,
                    "radius": None if np.isnan(v.radius) else v.radius,
                    "failure_reason": v.failure_reason,
                },
            )
        if spec.params.get("lower_bound", False):
            v = lower_bound_rigidity(shape, norm, bundle=bundle, n=n_samples, seed=cfg.seed)
            record(
                v.name, v.passed, {"hypothesis": v.notes["hypothesis"], "bound": v.rhs}
            )
    except (PreconditionFailed, ValueError) as exc:
        # an unmet hypothesis or an unsuitable set (no finite volume, an order
        # out of range) is a failed verdict, not a crash of the whole run
        verdicts.append({"check": "precondition", "ok": False, "error": str(exc)})
    rows = [
        [v["check"], v["ok"]] + [f"{k}={v[k]}" for k in sorted(v) if k not in ("check", "ok")]
        for v in verdicts
    ]
    width = max((len(r) for r in rows), default=2)
    rows = [r + [""] * (width - len(r)) for r in rows]
    header = ["check", "ok"] + [f"detail{i}" for i in range(1, width - 1)]
    return {
        "passed": all(v["ok"] for v in verdicts) and bool(verdicts),
        "verdicts": verdicts,
        "csv": (header, rows),
    }


_RUNNERS = {
    "norm-check": _run_norm_check,
    "shape-info": _run_shape_info,
    "reach": _run_reach,
    "tube": _run_tube,
    "measures": _run_measures,
    "verify": _run_verify,
}


# ======================================================================
# orchestration
# ======================================================================


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)


def _summary_json(summary: dict) -> str:
    # one dumps and one write: json.dump writes every token on its own
    return json.dumps(json_safe(summary), indent=2, sort_keys=True, allow_nan=False)


def _write_reports(out_dir: Path, summary: dict, tables: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.json", "w", encoding="utf-8") as f:
        f.write(_summary_json(summary) + "\n")
    for fname, (header, rows) in tables.items():
        with open(out_dir / fname, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)  # excel dialect: RFC-4180 line endings
            w.writerow(header)
            for row in rows:
                w.writerow([_csv_cell(c) for c in row])


def run(config: ExperimentConfig, only: Optional[str] = None) -> tuple[int, dict]:
    """Execute the configured checks, optionally one type only.

    Returns (exit status, summary dict) and writes reports when the config
    names an output directory.  Exit status 0 iff every expected-pass check
    passed.
    """
    selected = [c for c in config.checks if only is None or c.type == only]

    def one(spec: CheckSpec) -> dict:
        result = _RUNNERS[spec.type](config, spec)
        result.update(name=spec.name, type=spec.type, expect=spec.expect)
        return result

    if config.threads > 1 and len(selected) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(one, selected))
    else:
        results = [one(spec) for spec in selected]

    tables = {}
    for res in results:
        if "csv" in res:
            header, rows = res.pop("csv")
            tables[f"{res['type']}_{res['name']}.csv"] = (header, rows)
    ok = all(r["passed"] for r in results if r["expect"] == "pass")
    for r in results:
        if r["expect"] == "fail" and r["passed"]:
            r["surprise"] = True
    summary = {
        "seed": config.seed,
        "subset": only or "all",
        "all_expected_pass": ok,
        "checks": results,
    }
    if config.out is not None:
        _write_reports(config.out, summary, tables)
    return (0 if ok else 1), summary


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config_pos", nargs="?", metavar="CONFIG", help="config file")
    common.add_argument("--config", help="config file (alternative to the positional)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--threads", type=int, help="parallel check execution")
    common.add_argument("--out", help="report directory (overrides config)")

    parser = argparse.ArgumentParser(
        prog="reachgeom",
        description="anisotropic geometry of sets of positive reach: experiments and verdicts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sub.add_parser(name, parents=[common], help=f"run the {name} checks")

    args = parser.parse_args(argv)
    path = args.config or args.config_pos
    if path is None:
        parser.error("a config file is required (positional or --config)")
    try:
        config = load_config(path)
        if args.seed is not None:
            config.seed = args.seed
        if args.threads is not None:
            config.threads = args.threads
        if args.out is not None:
            config.out = Path(args.out)
        only = None if args.command == "run-all" else args.command
        status, summary = run(config, only=only)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    if config.out is None:
        print(_summary_json(summary))
    else:
        print(f"{'ok' if status == 0 else 'FAIL'}: reports in {config.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
