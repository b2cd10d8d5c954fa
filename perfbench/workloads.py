"""Seeded config generators for the benchmark workloads, with their references.

Each workload turns a seed into the text of one reachgeom config and into the
closed-form references its outputs are checked against.  The seed draws the
config ``seed``, the anisotropy ``a`` of the diagonal norm diag(a, 1), and the
interior points of every radius grid.  ``a`` stays in [3.9, 4.1] and each
radius grid keeps fixed end points, so the work per run barely moves with the
seed: the voxel padding follows the largest radius and sqrt(a).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

A_RANGE = (3.9, 4.1)
THETA_TOLERANCE = 0.01  # the measures check's own default oracle tolerance
TUBE_TOLERANCE = 0.01  # the tube check's own default relative tolerance
REACH_TOLERANCE = 1e-2  # the relative tolerance of the global-reach tests


@dataclass
class Generated:
    """One workload instance: config text, its check names, and references."""

    text: str
    checks: list
    a: float
    references: dict = field(default_factory=dict)


def _num(x: float) -> str:
    # repr round-trips exactly, so the config and the references agree bitwise
    return repr(float(x))


def _norms(a: float) -> str:
    return f"""
[norm euclid2]
kind = euclidean
dim = 2

[norm aniso]
kind = ellipsoidal
diag = {_num(a)}, 1.0

[norm euclid3]
kind = euclidean
dim = 3
"""


def _section(kind: str, name: str, **items) -> str:
    body = "\n".join(f"{k} = {v}" for k, v in items.items())
    return f"\n[{kind} {name}]\n{body}\n"


def _radius_grid(rng: random.Random, lo: float, hi: float, k: int) -> str:
    inner = sorted(round(rng.uniform(lo, hi), 6) for _ in range(k - 2))
    return ", ".join(_num(r) for r in [lo, *inner, hi])


def _header(workload: str, seed: int, out: str) -> tuple[random.Random, float, str]:
    """The workload's generator, its anisotropy a, and the config's top lines."""
    rng = random.Random(f"{workload}/{seed}")
    cfg_seed = rng.randrange(1, 1_000_000)
    a = round(rng.uniform(*A_RANGE), 6)
    return rng, a, f"seed = {cfg_seed}\nthreads = 1\nout = {out}\n" + _norms(a)


# every verdict on a set that is no union of equal dual balls
VERIFY_NOT_BUBBLE = dict(
    minkowski=1, heintze_karcher="true", mean_convex=1, alexandrov=1, expect_bubble="false"
)


def polytope_fan(seed: int, out: str) -> Generated:
    """Measures at every order and verify checks on the exact fan route."""
    _, a, text = _header("polytope-fan", seed, out)
    text += _section("shape", "square", catalog="unit-square")
    text += _section("shape", "cube", catalog="cube")
    pi = math.pi
    # Theta_{d-1} = sum_F phi(n_F)|F| and Theta_0 = |dual unit ball| = pi sqrt(det Q)
    plan = (
        ("square-euclid", "square", "euclid2", {"1": 4.0, "0": pi}, VERIFY_NOT_BUBBLE),
        ("square-aniso", "square", "aniso", {"1": 2.0 * math.sqrt(a) + 2.0, "0": pi * math.sqrt(a)},
         VERIFY_NOT_BUBBLE),
        ("cube-euclid", "cube", "euclid3", {"2": 6.0, "1": 3.0 * pi, "0": 4.0 * pi / 3.0},
         dict(VERIFY_NOT_BUBBLE, minkowski="1, 2", mean_convex=2)),
    )
    checks, refs = [], {}
    for tag, shape, norm, ref, verify in plan:
        text += _section(
            "check", f"{tag}-measures", type="measures", shape=shape, norm=norm,
            m=", ".join(ref), expect_theta=", ".join(_num(v) for v in ref.values()),
        )
        text += _section("check", f"{tag}-verify", type="verify", shape=shape, norm=norm, **verify)
        checks += [f"{tag}-measures", f"{tag}-verify"]
        refs[f"{tag}-measures"] = ref
    return Generated(text, checks, a, refs)


def tube_voxel(seed: int, out: str) -> Generated:
    """Tube checks on both distance routes: kd-tree cloud and closed form."""
    rng, a, text = _header("tube-voxel", seed, out)
    text += _section("shape", "disk", catalog="disk")
    text += _section("shape", "ellipse", catalog="ellipse-2-1")
    text += _section("shape", "square", catalog="unit-square")
    text += _section("shape", "lens", catalog="cap-lens-0.5")
    # (shape, norm, smallest radius, largest radius): cloud route first
    plan = (
        ("disk", "aniso", 0.15, 0.6),
        ("ellipse", "euclid2", 0.15, 0.6),
        ("square", "aniso", 0.15, 1.0),
        ("lens", "euclid2", 0.15, 1.0),
    )
    checks = []
    for shape, norm, lo, hi in plan:
        name = f"{shape}-tube"
        text += _section(
            "check", name, type="tube", shape=shape, norm=norm, rho=_radius_grid(rng, lo, hi, 6)
        )
        checks.append(name)
    return Generated(text, checks, a)


def reach_chart(seed: int, out: str) -> Generated:
    """Reach and verify checks on non-convex sets through the chart solver."""
    _, a, text = _header("reach-chart", seed, out)
    text += _section("shape", "gap", catalog="two-disks-gap1")
    text += _section("shape", "lens", catalog="cap-lens-0.5")
    text += _section("shape", "wulff", catalog="three-wulff", norm="aniso")
    text += _section("check", "gap-reach", type="reach", shape="gap", norm="aniso", samples=256)
    text += _section(
        "check", "gap-verify", type="verify", shape="gap", norm="aniso", samples=256,
        **VERIFY_NOT_BUBBLE,
    )
    text += _section("check", "lens-verify", type="verify", shape="lens", norm="aniso",
                     **VERIFY_NOT_BUBBLE)
    text += _section(
        "check", "wulff-verify", type="verify", shape="wulff", norm="aniso",
        heintze_karcher="true", classify_equality="true", alexandrov=1, expect_bubble="true",
    )
    # two unit disks a Euclidean gap of 1 apart along x: the reach is half the
    # gap in the dual norm, phi_*((1, 0)) / 2 = 1 / (2 sqrt(a))
    refs = {"gap-reach": 1.0 / (2.0 * math.sqrt(a))}
    checks = ["gap-reach", "gap-verify", "lens-verify", "wulff-verify"]
    return Generated(text, checks, a, refs)


def _by_name(summary: dict) -> dict:
    return {c["name"]: c for c in summary["checks"]}


# Each accuracy function returns (relative error against the reference, the
# share of its tolerance that error uses); a share above 1 fails the run.


def theta_accuracy(gen: Generated, summary: dict, reports: Path) -> tuple[float, float]:
    """Worst relative error of the curvature-measure totals against closed form."""
    checks = _by_name(summary)
    worst = max(
        abs(checks[name]["totals"][m] - want) / abs(want)
        for name, ref in gen.references.items()
        for m, want in ref.items()
    )
    return worst, worst / THETA_TOLERANCE


def tube_accuracy(gen: Generated, summary: dict, reports: Path) -> tuple[float, float]:
    """Worst relative voxel-vs-Steiner residual, and its share of the tube gate.

    The gate is the tube check's own: |residual| <= 1% of the voxel volume
    plus three voxel error estimates, row by row of the check's table.
    """
    checks = _by_name(summary)
    worst = max(checks[name]["max_relative_residual"] for name in gen.checks)
    share = 0.0
    for name in gen.checks:
        with open(reports / f"tube_{name}.csv", newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                gate = TUBE_TOLERANCE * float(row["voxel_volume"]) + 3.0 * float(row["voxel_error"])
                share = max(share, abs(float(row["residual"])) / gate)
    return worst, share


def reach_accuracy(gen: Generated, summary: dict, reports: Path) -> tuple[float, float]:
    """Relative error of the global reach of two-disks-gap1 against 1/(2 sqrt a)."""
    got = _by_name(summary)["gap-reach"]["global_reach"]
    want = gen.references["gap-reach"]
    err = abs(got - want) / want
    return err, err / REACH_TOLERANCE


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, str], Generated]
    accuracy: Callable[[Generated, dict, Path], tuple[float, float]]
    accuracy_metric: str  # the per-layer name of the relative error


WORKLOADS = {
    w.name: w
    for w in (
        Workload("polytope-fan", polytope_fan, theta_accuracy, "theta_rel_err"),
        Workload("tube-voxel", tube_voxel, tube_accuracy, "tube_rel_residual"),
        Workload("reach-chart", reach_chart, reach_accuracy, "reach_rel_err"),
    )
}
