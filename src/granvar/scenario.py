"""Scenario configuration: a JSON file describing one reproducible run.

Every scenario carries an explicit seed (there is no wall-clock default),
a class table, and whichever sections the chosen subcommand needs.
Parsing errors name the offending location; JSON syntax errors carry the
line and column.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError
from .estimators import sample_totals
from .fields import ProcessParams, SpatialField
from .intercept import TransectSpec
from .model import BatchSpec, ClassTable, DependenceMatrix, ParticleClass
from .selection import SelectionDesign


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    table: ClassTable
    dependence: DependenceMatrix | None
    sample_counts: tuple[int, ...] | None
    expected_counts: tuple[float, ...] | None
    batch: BatchSpec | None
    ckk_grid: tuple[tuple[float, ...], tuple[float, ...]] | None
    design: dict | None
    replicates: int | None
    field: ProcessParams | None
    transects: TransectSpec | None
    calibration: dict | None
    out_dir: str | None
    config_hash: str


def _require(raw: dict, key: str, where: str) -> Any:
    if key not in raw:
        raise ConfigError(where, f"missing required key {key!r}")
    return raw[key]


def _number(value: Any, where: str) -> float:
    """A finite JSON number as a float; NaN, +-Infinity and integers too
    large for a float are refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(where, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(where, f"expected a finite number, got {value!r}")
    return number


def _integer(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(where, f"expected an integer, got {value!r}")
    return value


def _number_list(value: Any, where: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(where, "expected a non-empty list of numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _parse_classes(raw: Any) -> ClassTable:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("classes", "expected a non-empty list of class objects")
    classes = []
    for i, item in enumerate(raw):
        where = f"classes[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(where, "expected an object")
        try:
            classes.append(
                ParticleClass(
                    id=_integer(item.get("id", i), f"{where}.id"),
                    mass=_number(_require(item, "mass", where), f"{where}.mass"),
                    concentration=_number(
                        _require(item, "concentration", where), f"{where}.concentration"
                    ),
                    radius=_number(item.get("radius", 0.0), f"{where}.radius"),
                )
            )
        except ValueError as exc:
            raise ConfigError(where, str(exc)) from exc
    try:
        return ClassTable(classes)
    except ValueError as exc:
        raise ConfigError("classes", str(exc)) from exc


def _parse_dependence(raw: Any, k: int) -> DependenceMatrix:
    if not isinstance(raw, list):
        raise ConfigError("dependence", "expected a K x K matrix (list of rows)")
    try:
        matrix = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError("dependence", f"not numeric: {exc}") from exc
    if matrix.shape != (k, k):
        raise ConfigError("dependence", f"expected shape ({k}, {k}), got {matrix.shape}")
    try:
        return DependenceMatrix(matrix)
    except ValueError as exc:
        raise ConfigError("dependence", str(exc)) from exc


def _parse_batch(raw: Any, k: int) -> BatchSpec:
    if not isinstance(raw, dict):
        raise ConfigError("batch", "expected an object")
    mass = _number(_require(raw, "mass", "batch"), "batch.mass")
    correct = raw.get("correct", False)
    if not isinstance(correct, bool):
        raise ConfigError("batch.correct", f"expected true or false, got {correct!r}")
    if "q" in raw:
        q = _number_list(raw["q"], "batch.q")
        if len(q) != k:
            raise ConfigError("batch.q", f"expected {k} entries, got {len(q)}")
    elif "sample_mass" in raw:
        q = [_number(raw["sample_mass"], "batch.sample_mass") / mass] * k
        correct = True
    else:
        raise ConfigError("batch", "needs either 'q' or 'sample_mass'")
    try:
        return BatchSpec(mass, q, correct_sampling=correct)
    except ValueError as exc:
        raise ConfigError("batch", str(exc)) from exc


def _parse_field(raw: Any, k: int) -> ProcessParams:
    if not isinstance(raw, dict):
        raise ConfigError("field", "expected an object")
    variant = _require(raw, "variant", "field")
    mixing = raw.get("mixing", [1.0 / k] * k)
    mixing = _number_list(mixing, "field.mixing")
    if len(mixing) != k:
        raise ConfigError("field.mixing", f"expected {k} entries, got {len(mixing)}")
    kwargs: dict[str, Any] = dict(
        variant=variant,
        width=_number(raw.get("width", 1.0), "field.width"),
        height=_number(raw.get("height", 1.0), "field.height"),
        mixing=tuple(mixing),
    )
    optional = (
        "intensity", "parent_intensity", "offspring_mean", "cluster_radius",
        "class_correlation", "min_gap",
    )
    for key in optional:
        if key in raw:
            kwargs[key] = _number(raw[key], f"field.{key}")
    if "gradient" in raw:
        gradient = _number_list(raw["gradient"], "field.gradient")
        kwargs["gradient"] = tuple(gradient)
    try:
        return ProcessParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError("field", str(exc)) from exc


def _parse_transects(raw: Any) -> TransectSpec:
    if not isinstance(raw, dict):
        raise ConfigError("transects", "expected an object")
    count = _integer(_require(raw, "count", "transects"), "transects.count")
    length = _number(_require(raw, "length", "transects"), "transects.length")
    orientation = raw.get("orientation", "random")
    if orientation != "random":
        try:
            orientation = _number(orientation, "transects.orientation")
        except ConfigError:
            raise ConfigError("transects.orientation", 'expected "random" or a finite '
                              f"angle in radians, got {orientation!r}") from None
    if count < 1:
        raise ConfigError("transects.count", "must be >= 1")
    if length <= 0:
        raise ConfigError("transects.length", "must be > 0")
    return TransectSpec(count=count, length=length, orientation=orientation)


def _parse_calibration(raw: Any, field: ProcessParams | None) -> dict:
    """The calibration sweep settings, defaults filled in."""
    if not isinstance(raw, dict):
        raise ConfigError("calibration", "expected an object")
    radii = _number_list(
        raw.get("cluster_radius", [0.10, 0.06, 0.03]), "calibration.cluster_radius"
    )
    if any(r <= 0 for r in radii):
        raise ConfigError("calibration.cluster_radius", "radii must be > 0")
    n_seeds = _integer(raw.get("n_seeds", 10), "calibration.n_seeds")
    if n_seeds < 2:
        raise ConfigError("calibration.n_seeds",
                          f"must be >= 2: a between-field SE needs two fields, got {n_seeds}")
    replicates = _integer(raw.get("replicates", 100), "calibration.replicates")
    if replicates < 2:
        raise ConfigError("calibration.replicates", "must be >= 2")
    window = _number_list(raw.get("window", [0.05, 0.05]), "calibration.window")
    if len(window) != 2:
        raise ConfigError("calibration.window", f"expected [width, height], got {window}")
    if not all(v > 0 for v in window):
        raise ConfigError("calibration.window", "window sides must be > 0")
    if field is not None and (window[0] > field.width or window[1] > field.height):
        raise ConfigError("calibration.window", "window must fit inside the domain")
    return {
        "cluster_radius": tuple(radii),
        "n_seeds": n_seeds,
        "replicates": replicates,
        "window": (window[0], window[1]),
    }


def _parse_ckk_grid(raw: Any) -> tuple[tuple[float, ...], tuple[float, ...]]:
    if not isinstance(raw, dict):
        raise ConfigError("ckk_grid", "expected an object with 'n_k' and 'ratio'")
    n_k = _number_list(_require(raw, "n_k", "ckk_grid"), "ckk_grid.n_k")
    ratio = _number_list(_require(raw, "ratio", "ckk_grid"), "ckk_grid.ratio")
    for key, values, low in (("n_k", n_k, 1.0), ("ratio", ratio, 0.0)):
        for i, v in enumerate(values):
            if not v >= low:
                raise ConfigError(f"ckk_grid.{key}[{i}]", f"must be >= {low:g}, got {v!r}")
    return tuple(n_k), tuple(ratio)


def _parse_counts(raw: Any, key: str, k: int, integer: bool) -> tuple:
    """Per-class counts: non-negative (integers when ``integer``), not all 0."""
    values = _number_list(raw, key)
    if len(values) != k:
        raise ConfigError(key, f"expected {k} entries, got {len(values)}")
    for i, v in enumerate(values):
        if not v >= 0 or (integer and not v.is_integer()):
            kind = "non-negative integers" if integer else "non-negative"
            raise ConfigError(f"{key}[{i}]", f"counts must be {kind}, got {v!r}")
    if not any(values):
        raise ConfigError(key, "at least one count must be positive")
    return tuple(int(v) for v in values) if integer else tuple(values)


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}", f"invalid JSON: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(str(path), "invalid JSON: nested too deeply") from exc
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "scenario must be a JSON object")
    if "seed" not in raw:
        raise ConfigError("seed", "scenarios must carry an explicit seed")
    seed = _integer(raw["seed"], "seed")
    if seed < 0:
        raise ConfigError("seed", "seed must be a non-negative integer")
    table = _parse_classes(_require(raw, "classes", "<root>"))
    k = table.k

    dependence = _parse_dependence(raw["dependence"], k) if "dependence" in raw else None

    sample_counts = expected_counts = None
    if "sample_counts" in raw:
        sample_counts = _parse_counts(raw["sample_counts"], "sample_counts", k, integer=True)
    if "expected_counts" in raw:
        expected_counts = _parse_counts(
            raw["expected_counts"], "expected_counts", k, integer=False
        )

    batch = _parse_batch(raw["batch"], k) if "batch" in raw else None
    if batch is not None and sample_counts is not None:
        sample_mass = float(sample_totals(np.array([sample_counts], dtype=float), table)[0][0])
        if batch.batch_mass < sample_mass:
            raise ConfigError(
                "batch.mass", f"{batch.batch_mass!r} is below the sample mass {sample_mass!r}"
            )
        if "sample_mass" in raw["batch"]:
            stated = _number(raw["batch"]["sample_mass"], "batch.sample_mass")
            if abs(stated - sample_mass) > 1e-9 * sample_mass:
                raise ConfigError(
                    "batch.sample_mass",
                    f"{stated!r} differs from the mass {sample_mass!r} of sample_counts",
                )
    ckk_grid = _parse_ckk_grid(raw["ckk_grid"]) if "ckk_grid" in raw else None
    field = _parse_field(raw["field"], k) if "field" in raw else None
    transects = _parse_transects(raw["transects"]) if "transects" in raw else None

    design = None
    if "design" in raw:
        if not isinstance(raw["design"], dict):
            raise ConfigError("design", "expected an object")
        design = raw["design"]
        variant = _require(design, "variant", "design")
        if variant not in ("bernoulli", "pairwise_pmf", "window"):
            raise ConfigError("design.variant", f"unknown variant {variant!r}")
        if variant == "window" and field is None:
            raise ConfigError("design", "window designs need a 'field' section")

    replicates = None
    if "replicates" in raw:
        replicates = _integer(raw["replicates"], "replicates")
        if replicates < 2:
            raise ConfigError("replicates", "must be >= 2")

    calibration = (
        _parse_calibration(raw["calibration"], field) if "calibration" in raw else None
    )

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir", "expected a string path")

    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:12]
    return ScenarioConfig(
        seed=seed,
        table=table,
        dependence=dependence,
        sample_counts=sample_counts,
        expected_counts=expected_counts,
        batch=batch,
        ckk_grid=ckk_grid,
        design=design,
        replicates=replicates,
        field=field,
        transects=transects,
        calibration=calibration,
        out_dir=out_dir,
        config_hash=digest,
    )


def build_design(config: ScenarioConfig, field: SpatialField | None) -> SelectionDesign:
    """Materialize the design section (window designs need the generated field)."""
    raw = config.design
    if raw is None:
        raise ConfigError("design", "this subcommand needs a 'design' section")
    k = config.table.k
    variant = raw["variant"]
    try:
        if variant in ("bernoulli", "pairwise_pmf"):
            q = _number_list(_require(raw, "q", "design"), "design.q")
            if len(q) != k:
                raise ConfigError("design.q", f"expected {k} entries, got {len(q)}")
            class_of = _require(raw, "class_of", "design")
            if not isinstance(class_of, list):
                raise ConfigError("design.class_of", "expected a list of class indices")
            if not class_of:
                raise ConfigError("design.class_of", "the design has no particles")
            for i, v in enumerate(class_of):
                if not 0 <= _integer(v, f"design.class_of[{i}]") < k:
                    raise ConfigError(f"design.class_of[{i}]",
                                      f"expected a class index in [0, {k}), got {v!r}")
            if variant == "bernoulli":
                return SelectionDesign.bernoulli(q, class_of)
            try:
                phi = np.array(_require(raw, "phi", "design"), dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigError("design.phi", f"not numeric: {exc}") from exc
            if phi.shape != (k, k):
                raise ConfigError("design.phi", f"expected shape ({k}, {k}), got {phi.shape}")
            return SelectionDesign.pairwise_pmf(q, phi, class_of)
        # window
        if field is None:
            raise ConfigError("design", "window designs need a generated field")
        if field.n == 0:
            raise ConfigError("field", "generated field is empty; raise the intensity")
        width = _number(_require(raw, "width", "design"), "design.width")
        height = _number(_require(raw, "height", "design"), "design.height")
        return SelectionDesign.window(field, width, height)
    except ValueError as exc:
        raise ConfigError("design", str(exc)) from exc
