"""Scenario configs, builtin benchmark problems, run orchestration and exports.

Configs are YAML mappings with geometry in microns (converted to meters
internally).  A scenario without geometry runs the direct rectangular
steppers; any geometry switches to the iterative masked-domain schemes.
Snapshots are written either as CSV ("x,y[,z],phi,c", x-fastest, 17
significant digits) or as raw little-endian float64 payloads preceded by a
one-line JSON header; both formats round-trip bit-exactly.
"""

from __future__ import annotations

import copy
import ctypes
import glob
import json
import numbers
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .grid import (
    Circle,
    CylinderSegment,
    GridSpec,
    RoughEdgeProfile,
    axis_counts_for_spacing,
    build_grid,
    rasterize_mask,
)
from .holes import IterSchemeConfig, run_holes
from .model import (
    CorrosionParameters,
    DEFAULT_FIXED_W,
)
from .rect import BoundaryData, FieldPair, SchemeConfig, _keep_heap, run_rect, whole_steps
from . import analysis

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "RunArtifacts",
    "builtin_scenarios",
    "load_config",
    "run_scenario",
    "generate_reference",
    "scaling_report",
    "export_snapshot",
    "read_snapshot",
    "OUTPUT_ROOT_ENV",
]

OUTPUT_ROOT_ENV = "PITCORR_OUTPUT_ROOT"
# libyaml's safe loader parses the same documents about eight times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
MICRON = 1e-6
AXIS_NAMES = ("x", "y", "z")


class ConfigError(ValueError):
    """Invalid scenario configuration (reported with the offending field)."""


# ---------------------------------------------------------------------------
# Builtin scenarios


def builtin_scenarios() -> dict:
    """The five reference benchmark problems, as plain config mappings."""
    return {
        "pencil2d": {
            "name": "pencil2d",
            "description": "thin wire, exposed ends; sqrt(t) front advance",
            "grid": {
                "extents_um": [25.0, 300.0],
                "spacing_um": 1.0,
                "bc": {"x": ["neumann", "neumann"], "y": ["dirichlet", "dirichlet"]},
            },
            "boundary_values": {"y": [0.0, 0.0]},
            "geometry": [],
            "initial": {"phi": 1.0, "c": 1.0},
            "scheme": {"order": "euler", "dt": 1.0e-3, "w": DEFAULT_FIXED_W},
            "horizon": 225.0,
            "snapshot_times": [0.0, 40.0, 150.0, 225.0],
            "front_axis": "y",
        },
        "circular_pit": {
            "name": "circular_pit",
            "description": "interior circular pit, Neumann outer boundary",
            "grid": {
                "extents_um": [200.0, 100.0],
                "spacing_um": 1.0,
                "bc": {"x": ["neumann", "neumann"], "y": ["neumann", "neumann"]},
            },
            "geometry": [
                {"circle": {"center_um": [100.0, 50.0], "radius_um": 1.5}}
            ],
            "initial": {"phi": 1.0, "c": 1.0},
            "scheme": {
                "order": "euler",
                "variant": "imex-e",
                "dt": 2.0e-3,
                "w": DEFAULT_FIXED_W,
                "stop_mode": "exact",
            },
            "horizon": 100.0,
            "snapshot_times": [0.0, 20.0, 70.0, 100.0],
        },
        "electropolish": {
            "name": "electropolish",
            "description": "rough top edge smoothing (seeded profile stand-in)",
            "grid": {
                "extents_um": [200.0, 100.0],
                "spacing_um": 1.0,
                "bc": {"x": ["neumann", "neumann"], "y": ["neumann", "neumann"]},
            },
            "geometry": [
                {
                    "rough_edge": {
                        "amplitude_um": 15.0,
                        "wavelength_um": 10.0,
                        "base_height_um": 95.0,
                        "seed": 7,
                    }
                }
            ],
            "initial": {"phi": 1.0, "c": 1.0},
            "scheme": {
                "order": "2sbdf",
                "variant": "imex-e",
                "dt": 5.0e-3,
                "w": DEFAULT_FIXED_W,
                "stop_mode": "exact",
            },
            "horizon": 20.0,
            "snapshot_times": [0.0, 2.0, 10.0, 20.0],
        },
        "pencil3d": {
            "name": "pencil3d",
            "description": "3D wire, top end exposed",
            "grid": {
                "extents_um": [25.0, 25.0, 150.0],
                "spacing_um": 1.0,
                "bc": {
                    "x": ["neumann", "neumann"],
                    "y": ["neumann", "neumann"],
                    "z": ["neumann", "dirichlet"],
                },
            },
            "boundary_values": {"z": [None, 0.0]},
            "geometry": [],
            "initial": {"phi": 1.0, "c": 1.0},
            "scheme": {"order": "2sbdf", "dt": 0.02, "w": DEFAULT_FIXED_W},
            "horizon": 225.0,
            "snapshot_times": [0.0, 40.0, 150.0, 225.0],
            "front_axis": "z",
        },
        "semicylinder3d": {
            "name": "semicylinder3d",
            "description": "semi-cylindrical cavity on the top surface (3D)",
            "grid": {
                "extents_um": [200.0, 25.0, 100.0],
                "spacing_um": 1.0,
                "bc": {
                    "x": ["neumann", "neumann"],
                    "y": ["neumann", "neumann"],
                    "z": ["neumann", "neumann"],
                },
            },
            "geometry": [
                {
                    "cylinder": {
                        "axis": "y",
                        "center_um": [100.0, 100.0],
                        "radius_um": 1.5,
                        "half_axis": "z",
                        "half_limit_um": 100.0,
                    }
                }
            ],
            "initial": {"phi": 1.0, "c": 1.0},
            "scheme": {
                "order": "2sbdf",
                "variant": "imex-e",
                "dt": 6.0e-3,
                "w": DEFAULT_FIXED_W,
                "stop_mode": "exact",
            },
            "horizon": 225.0,
            "snapshot_times": [0.0, 75.0, 150.0, 225.0],
        },
    }


# ---------------------------------------------------------------------------
# Config parsing


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    grid_spec: GridSpec
    shapes: tuple
    initial_phi: float
    initial_c: float
    bdata: BoundaryData
    scheme: object  # SchemeConfig or IterSchemeConfig
    horizon: float
    snapshot_times: tuple
    front_axis: int | None
    formats: tuple
    reference_dt_divisor: int
    params: CorrosionParameters = field(default_factory=CorrosionParameters)
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def has_holes(self) -> bool:
        return len(self.shapes) > 0


@contextmanager
def _section(where: str):
    """Reports a malformed value read in the block as a ConfigError naming `where`."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# The keys the parser reads, per section; any other key is a ConfigError.
_KEYS = {
    "config": {"name", "description", "grid", "boundary_values", "geometry", "initial",
               "scheme", "horizon", "snapshot_times", "front_axis", "outputs", "reference"},
    "grid": {"extents_um", "spacing_um", "bc"},
    "initial": {"phi", "c"},
    "scheme": {"order", "dt", "w", "variant", "stop_mode", "eps", "max_iters"},
    "outputs": {"formats"},
    "reference": {"dt_divisor"},
    "geometry circle": {"center_um", "radius_um"},
    "geometry cylinder": {"axis", "center_um", "radius_um", "half_axis", "half_limit_um",
                          "span_um"},
    "geometry rough_edge": {"amplitude_um", "wavelength_um", "base_height_um", "seed"},
}


def _known(mapping, where: str):
    """`mapping` (a section), once each of its keys is one that `where` reads."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    for key in mapping:
        if key not in _KEYS[where]:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return mapping


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"missing field {key!r} in {where}")
    return mapping[key]


def _whole(value, where: str, least: int) -> int:
    """`value` itself if it is an int of at least `least`; no coercion."""
    if type(value) is not int or value < least:
        raise ConfigError(f"{where} must be a whole number >= {least}, not {value!r}")
    return value


def _real(value, where: str) -> float:
    """`value` as a float if it is a number or a numeric string (PyYAML reads
    `1e-3` as one); a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        raise ConfigError(f"{where} must be a number, not {value!r}")
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{where} must be a number, not {value!r}") from None


def _reals(values, where: str) -> tuple:
    """The list `values` as floats (`_real`); a string is not a list here."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where} must list numbers, not {values!r}")
    return tuple(_real(v, where) for v in values)


def _axis_indices(bc_map, ndim):
    names = AXIS_NAMES[:ndim]
    for name in bc_map:
        if name not in names:
            raise ConfigError(f"unknown axis {name!r} in grid.bc")
    return names


def _parse_grid(raw_grid) -> tuple:
    _known(raw_grid, "grid")
    extents_um = _reals(_require(raw_grid, "extents_um", "grid"), "grid.extents_um")
    if len(extents_um) not in (2, 3):
        raise ConfigError("grid.extents_um must list two or three axes")
    ndim = len(extents_um)
    spacing_um = raw_grid.get("spacing_um", 1.0)
    if np.isscalar(spacing_um):
        spacing_um = [spacing_um] * ndim
    spacings = [s_um * MICRON for s_um in _reals(spacing_um, "grid.spacing_um")]
    if len(spacings) != ndim or not all(s > 0.0 for s in spacings):
        raise ConfigError("grid.spacing_um must give one positive spacing per axis")
    bc_map = _require(raw_grid, "bc", "grid")
    names = _axis_indices(bc_map, ndim)
    bc = []
    for name in names:
        pair = _require(bc_map, name, "grid.bc")
        if len(pair) != 2 or any(kind not in ("dirichlet", "neumann") for kind in pair):
            raise ConfigError(f"grid.bc.{name} must be a (low, high) pair of kinds")
        bc.append(tuple(pair))
    extents = tuple(L * MICRON for L in extents_um)
    counts = []
    for L, dr, pair in zip(extents, spacings, bc):
        try:
            counts.append(axis_counts_for_spacing(L, dr, pair))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return GridSpec(extents, tuple(counts), tuple(bc)), names


def _parse_boundary_values(raw, names, bc_pairs) -> BoundaryData:
    """Constant (low, high) values per axis, shared by phi and c; null is 0."""
    raw_values = raw.get("boundary_values", {}) or {}
    if not isinstance(raw_values, dict):
        raise ConfigError("boundary_values must map axis names to (low, high) pairs")
    for name in raw_values:
        if name not in names:
            raise ConfigError(f"unknown axis {name!r} in boundary_values")
    values = []
    for name, pair in zip(names, bc_pairs):
        where = f"boundary_values.{name}"
        spec_vals = raw_values.get(name, [0.0, 0.0])
        if not isinstance(spec_vals, (list, tuple)) or len(spec_vals) != 2:
            raise ConfigError(f"{where} must list (low, high)")
        ends = []
        for kind, v in zip(pair, spec_vals):
            v = 0.0 if v is None else _real(v, where)
            if not np.isfinite(v):
                raise ConfigError(f"{where} holds {v!r}, not a finite number")
            if kind == "neumann" and v != 0.0:
                raise ConfigError(f"{where} sets {v!r} on a Neumann end, which takes null or 0")
            ends.append(v)
        values.append(tuple(ends))
    return BoundaryData(tuple(values), tuple(values))


def _axis_index(name, where: str, ndim: int = 3) -> int:
    try:
        return AXIS_NAMES[:ndim].index(name)
    except ValueError:
        raise ConfigError(f"{where} names {name!r}, not an axis of a {ndim}D grid") from None


# The grid dimension each geometry primitive applies to.
_SHAPE_NDIM = {"circle": 2, "cylinder": 3, "rough_edge": 2}


def _parse_shapes(raw_geometry, ndim):
    shapes = []
    for entry in raw_geometry or []:
        if len(entry) != 1:
            raise ConfigError("each geometry entry must hold exactly one primitive")
        kind, body = next(iter(entry.items()))
        if kind not in _SHAPE_NDIM:
            raise ConfigError(f"unknown geometry primitive {kind!r}")
        _known(body, f"geometry {kind}")
        if _SHAPE_NDIM[kind] != ndim:
            raise ConfigError(f"geometry {kind} applies to {_SHAPE_NDIM[kind]}D grids only")
        if kind in ("circle", "cylinder"):
            center = tuple(v * MICRON for v in _reals(_require(body, "center_um", kind),
                                                      f"geometry {kind}.center_um"))
            if len(center) != 2 or not np.isfinite(center).all():
                raise ConfigError(f"geometry {kind}.center_um must list two finite coordinates")
            radius = MICRON * _real(_require(body, "radius_um", kind),
                                    f"geometry {kind}.radius_um")
            if not 0.0 < radius < np.inf:
                raise ConfigError(f"geometry {kind}.radius_um must be positive and finite")
        if kind == "circle":
            shapes.append(Circle(center, radius))
        elif kind == "cylinder":
            axis = _axis_index(_require(body, "axis", kind), "geometry cylinder.axis")
            half = None
            if "half_axis" in body:
                half = (
                    _axis_index(body["half_axis"], "geometry cylinder.half_axis"),
                    _real(_require(body, "half_limit_um", kind),
                          "geometry cylinder.half_limit_um") * MICRON,
                )
            span = None
            if "span_um" in body:
                span = tuple(v * MICRON
                             for v in _reals(body["span_um"], "geometry cylinder.span_um"))
            shapes.append(CylinderSegment(axis, center, radius, span, half))
        else:
            amplitude, wavelength, base = (
                _real(_require(body, key, kind), f"geometry rough_edge.{key}") * MICRON
                for key in ("amplitude_um", "wavelength_um", "base_height_um"))
            for key, value in (("amplitude_um", amplitude), ("base_height_um", base)):
                if not np.isfinite(value):
                    raise ConfigError(f"geometry rough_edge.{key} must be finite")
            if not 0.0 < wavelength < np.inf:
                raise ConfigError("geometry rough_edge.wavelength_um must be positive and finite")
            shapes.append(RoughEdgeProfile(
                amplitude, wavelength, base,
                seed=_whole(body.get("seed", 0), "geometry rough_edge.seed", 0)))
    return tuple(shapes)


def _reject_unused(raw_scheme, keys, where: str):
    """A scheme key that no step reads is an error, not a silent no-op."""
    for key in keys:
        if key in raw_scheme:
            raise ConfigError(f"scheme.{key} has no effect {where}")


def _parse_scheme(raw_scheme, has_holes: bool):
    _known(raw_scheme, "scheme")
    order = str(_require(raw_scheme, "order", "scheme")).lower()
    dt = _real(_require(raw_scheme, "dt", "scheme"), "scheme.dt")
    w = _real(raw_scheme.get("w", DEFAULT_FIXED_W), "scheme.w")
    if not has_holes:
        _reject_unused(raw_scheme, ("variant", "stop_mode", "eps", "max_iters"),
                       "without geometry")
        return SchemeConfig(order, dt, w)
    variant = str(raw_scheme.get("variant", "imex-e")).lower()
    stop_mode = str(raw_scheme.get("stop_mode", "full")).lower()
    if stop_mode == "exact":
        _reject_unused(raw_scheme, ("eps", "max_iters"), "under stop_mode: exact")
    eps = _reals(raw_scheme.get("eps", [1e-4, 1e-3, 1e-8]), "scheme.eps")
    if len(eps) != 3:
        raise ConfigError("scheme.eps must list (eps1, eps2, eps3)")
    return IterSchemeConfig(
        variant=variant,
        order=order,
        dt=dt,
        w=w,
        eps1=eps[0],
        eps2=eps[1],
        eps3=eps[2],
        stop_mode=stop_mode,
        max_iters=raw_scheme.get("max_iters", 500),
    )


def parse_config(raw: dict) -> ScenarioConfig:
    _known(raw, "config")
    name = str(raw.get("name", "scenario"))
    if name in ("", ".", "..") or any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
        raise ConfigError(f"name must name one directory under the output root, not {name!r}")
    with _section("grid"):
        grid_spec, names = _parse_grid(_require(raw, "grid", "config"))
    ndim = len(grid_spec.counts)
    with _section("geometry"):
        shapes = _parse_shapes(raw.get("geometry", []), ndim)
    bdata = _parse_boundary_values(raw, names, grid_spec.bc)
    with _section("initial"):
        initial = _known(raw.get("initial", {}), "initial")
        initial_phi, initial_c = (_real(initial.get(key, 1.0), f"initial.{key}")
                                  for key in ("phi", "c"))
        if not np.isfinite([initial_phi, initial_c]).all():
            raise ValueError("initial values must be finite")
    with _section("scheme"):
        scheme = _parse_scheme(_require(raw, "scheme", "config"), bool(shapes))
    with _section("horizon"):
        horizon = _real(_require(raw, "horizon", "config"), "horizon")
    if not 0.0 < horizon < np.inf:
        raise ConfigError("horizon must be positive and finite")
    with _section("snapshot_times"):
        snaps = _reals(raw.get("snapshot_times", [0.0, horizon]), "snapshot_times")
    if not all(0.0 <= t <= horizon for t in snaps):
        raise ConfigError("snapshot_times must lie inside [0, horizon]")
    for where, t in [("horizon", horizon)] + [("snapshot_times", t) for t in snaps]:
        with _section(where):
            whole_steps(t, scheme.dt)
    front_axis = raw.get("front_axis")
    with _section("outputs"):
        formats = _known(raw.get("outputs", {}), "outputs").get("formats", ["csv"])
    if not isinstance(formats, (list, tuple)):
        raise ConfigError(f"outputs.formats must list formats, not {formats!r}")
    for fmt in formats:
        if fmt not in ("csv", "raw-f64"):
            raise ConfigError(f"unknown output format {fmt!r} in outputs.formats")
    if len(set(formats)) < len(formats):
        raise ConfigError(f"outputs.formats lists a format twice: {list(formats)!r}")
    with _section("reference"):
        ref_div = _whole(_known(raw.get("reference") or {}, "reference").get("dt_divisor", 8),
                         "reference dt_divisor", 2)
    return ScenarioConfig(
        name=name,
        grid_spec=grid_spec,
        shapes=shapes,
        initial_phi=initial_phi,
        initial_c=initial_c,
        bdata=bdata,
        scheme=scheme,
        horizon=horizon,
        snapshot_times=snaps,
        front_axis=None if front_axis is None else _axis_index(front_axis, "front_axis", ndim),
        formats=tuple(formats),
        reference_dt_divisor=ref_div,
        raw=raw,
    )


def load_config(source) -> ScenarioConfig:
    """Accepts a builtin name, a YAML file path, or an already-parsed mapping."""
    if isinstance(source, dict):
        return parse_config(source)
    builtins = builtin_scenarios()
    if source in builtins:
        return parse_config(builtins[source])
    if not os.path.exists(source):
        raise ConfigError(f"no builtin scenario or config file named {source!r}")
    with open(source, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML in {source}: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Snapshot export


# Rows per `%`-format call in a CSV export, rounded down to whole x-lines.
_CSV_BLOCK_ROWS = 1000


def _csv_text(grid):
    """The coordinate text of a CSV export on `grid`, block by block.

    Yields (rows, template) for each block of whole x-lines: a bytes `%`
    template whose rows hold the "x,y[,z]" text and leave "%.17g,%.17g" for
    phi and c.  A run makes it a list once for all its snapshots
    (`export_snapshot`'s `text`); a single export formats it as it writes.
    """
    texts = [[b"%.17g" % v for v in axis.tolist()] for axis in grid.axes]
    # "\0" stands for the y[,z] text of an x-line; "%.17g" never prints it.
    line = b"".join(x + b",\0,%.17g,%.17g\n" for x in texts[0])
    # The y[,z] text of every x-line, y faster than z.
    rest = texts[1] if grid.ndim == 2 else [y + b"," + z for z in texts[2] for y in texts[1]]
    m_x = len(texts[0])
    lines_per_block = max(1, _CSV_BLOCK_ROWS // m_x)
    for first in range(0, len(rest), lines_per_block):
        block = rest[first:first + lines_per_block]
        yield len(block) * m_x, b"".join(line.replace(b"\0", yz) for yz in block)


def _write_csv(fh, state: FieldPair, text):
    """The rows "x,y[,z],phi,c" of `state` to the binary file `fh`, x fastest,
    every value as "%.17g", from the grid's `_csv_text`.

    The bytes are those of `np.savetxt(fmt="%.17g", delimiter=",")`, but one
    bytes `%` formats a block of rows.  Bytes, not str, spare a text file's
    encoded copy of every block.
    """
    # The C order of the reversed-axes views is the fields' F order, so a
    # block reads its rows without a copy of the whole field.
    phi, c = state.Phi.T.flat, state.C.T.flat
    first = 0
    for n, template in text:
        pairs = np.empty((n, 2))
        pairs[:, 0], pairs[:, 1] = phi[first:first + n], c[first:first + n]
        fh.write(template % tuple(pairs.ravel().tolist()))
        first += n


def export_snapshot(state: FieldPair, grid, path: str, fmt: str = "csv",
                    metadata: dict | None = None, text: list | None = None) -> str:
    """Write one (Phi, C) state; returns the file path.

    A CSV export reads `text`, the grid's `_csv_text` as a list, if given,
    and formats it as it writes otherwise.
    """
    if fmt == "csv":
        path = path if path.endswith(".csv") else path + ".csv"
        with open(path, "wb") as fh:
            fh.write(",".join(AXIS_NAMES[: grid.ndim] + ("phi", "c")).encode() + b"\n")
            _write_csv(fh, state, _csv_text(grid) if text is None else text)
        return path
    if fmt == "raw-f64":
        path = path if path.endswith(".f64") else path + ".f64"
        header = {
            "dims": list(state.Phi.shape),
            "t": state.t,
            "step_index": state.step_index,
            "fields": ["phi", "c"],
            "order": "F",
            "dtype": "<f8",
        }
        header.update(metadata or {})
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(np.asarray(state.Phi, "<f8").tobytes(order="F"))
            fh.write(np.asarray(state.C, "<f8").tobytes(order="F"))
        return path
    raise ConfigError(f"unknown snapshot format {fmt!r}")


def read_snapshot(path: str):
    """Inverse of export_snapshot.  A raw-f64 file returns (FieldPair, header
    dict); a ".csv" file returns (table, {"columns": names}), the float rows,
    one per node with x fastest, and the header line's column names."""
    if path.endswith(".csv"):
        with open(path, "r", encoding="utf-8") as fh:
            names = fh.readline().strip().split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        return table, {"columns": names}
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        dims = tuple(header["dims"])
        n = int(np.prod(dims))
        payload = fh.read()
    data = np.frombuffer(payload, dtype="<f8")
    if data.size != 2 * n:
        raise ValueError("raw snapshot payload length mismatch")
    phi = data[:n].reshape(dims, order="F")
    c = data[n:].reshape(dims, order="F")
    state = FieldPair(phi.copy(), c.copy(), header.get("t", 0.0),
                      header.get("step_index", 0))
    return state, header


# ---------------------------------------------------------------------------
# Run orchestration


@dataclass
class RunArtifacts:
    config: ScenarioConfig
    final_state: FieldPair
    snapshots: list  # (t, FieldPair)
    reports: list
    front_series: list  # (t, depth)
    timing: dict
    output_dir: str | None = None
    metadata: dict = field(default_factory=dict)


def _scaled_horizon(cfg: ScenarioConfig, horizon_scale: float):
    if not 0.0 < horizon_scale < np.inf:
        raise ConfigError("horizon_scale must be positive and finite")
    dt = cfg.scheme.dt
    horizon = cfg.horizon * horizon_scale
    n = max(1, round(horizon / dt))
    horizon = n * dt
    snaps = sorted({min(t * horizon_scale, horizon) for t in cfg.snapshot_times})
    return horizon, tuple(snaps)


def _initial_state(cfg: ScenarioConfig, grid, mask) -> FieldPair:
    phi = np.full(grid.counts, cfg.initial_phi, dtype=float)
    c = np.full(grid.counts, cfg.initial_c, dtype=float)
    if mask is not None:
        phi[mask.theta] = 0.0
        c[mask.theta] = 0.0
    return FieldPair(phi, c, 0.0, 0)


def _front_probe(cfg: ScenarioConfig, grid):
    """The front depth of a state, measured from the exposed end of the front
    axis: the high end when its ends are (neumann, dirichlet), else the low end."""
    if cfg.front_axis is None:
        return None

    axis = cfg.front_axis
    extent = cfg.grid_spec.extents[axis]
    from_high_end = cfg.grid_spec.bc[axis] == ("neumann", "dirichlet")

    def probe(state):
        try:
            pos = analysis.front_position(state, grid, axis)
        except ValueError:
            return float("nan")
        return extent - pos if from_high_end else pos

    return probe


# The environment variables that set the BLAS and OpenMP thread counts.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _thread_settings() -> dict:
    """The thread variables (None where unset) and, under "blas", the thread
    count of each OpenBLAS that numpy and scipy bundle (in the wheels'
    `numpy.libs` and `scipy.libs`), where its library exports the query."""
    blas = {}
    for package in ("numpy", "scipy"):
        libs = os.path.dirname(os.path.dirname(__import__(package).__file__))
        for path in sorted(glob.glob(os.path.join(libs, f"{package}.libs", "*openblas*"))):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(lib, name):
                    blas[package] = int(getattr(lib, name)())
                    break
    return {"env": {name: os.environ.get(name) for name in THREAD_VARIABLES}, "blas": blas}


def run_scenario(cfg: ScenarioConfig, output_root: str | None = None,
                 horizon_scale: float = 1.0) -> RunArtifacts:
    """Run one scenario end to end, writing artifacts when a root is given.

    Sets the process's heap policy first (`rect._keep_heap`)."""
    _keep_heap()
    grid = build_grid(cfg.grid_spec)
    mask = None
    metadata = {}
    if cfg.has_holes:
        shapes = tuple(s.snapped(grid) for s in cfg.shapes)
        metadata["geometry_snapped"] = [repr(s) for s in shapes]
        with _section("geometry"):  # a shape that covers no node, or leaves the float range
            mask = rasterize_mask(grid, shapes)

    horizon, snap_times = _scaled_horizon(cfg, horizon_scale)
    dt = cfg.scheme.dt
    snap_steps = {round(t / dt) for t in snap_times}
    n_steps = round(horizon / dt)
    sample_every = max(1, n_steps // 200)

    state0 = _initial_state(cfg, grid, mask)
    snapshots = []
    front_series = []
    probe = _front_probe(cfg, grid)

    def hook(state):
        if state.step_index in snap_steps:
            snapshots.append((state.t, state))
        if probe is not None and (
            state.step_index % sample_every == 0 or state.step_index == n_steps
        ):
            front_series.append((state.t, probe(state)))

    tic = time.perf_counter()
    if cfg.has_holes:
        final, reports = run_holes(
            state0, cfg.scheme, cfg.params, grid, mask, cfg.bdata,
            horizon, hooks=(hook,),
        )
    else:
        final = run_rect(
            state0, cfg.scheme, cfg.params, grid, cfg.bdata, horizon, hooks=(hook,)
        )
        reports = []
    elapsed = time.perf_counter() - tic

    timing = {
        "wall_s": elapsed,
        "n_steps": n_steps,
        "horizon_s": horizon,
        "dt": dt,
        "nodes": grid.n_nodes,
        "threads": _thread_settings(),
    }
    artifacts = RunArtifacts(
        config=cfg,
        final_state=final,
        snapshots=snapshots,
        reports=reports,
        front_series=front_series,
        timing=timing,
        metadata=metadata,
    )
    if output_root is not None:
        artifacts.output_dir = _write_artifacts(artifacts, grid, output_root)
    return artifacts


def _format_time(t: float) -> str:
    return f"{t:.6f}".rstrip("0").rstrip(".").replace(".", "_")


def _write_artifacts(artifacts: RunArtifacts, grid, output_root: str) -> str:
    cfg = artifacts.config
    out_dir = os.path.join(output_root, cfg.name)
    os.makedirs(out_dir, exist_ok=True)

    # The coordinate text, formatted once for every CSV snapshot of the run.
    text = list(_csv_text(grid)) if artifacts.snapshots and "csv" in cfg.formats else None
    for t, state in artifacts.snapshots:
        base = os.path.join(out_dir, f"snapshot_t{_format_time(t)}")
        for fmt in cfg.formats:
            export_snapshot(state, grid, base, fmt, metadata=artifacts.metadata, text=text)

    if artifacts.reports:
        with open(os.path.join(out_dir, "iterations.csv"), "w", encoding="utf-8") as fh:
            fh.write("step,t,k_phi,k_c,resid_phi,resid_c,maxPhiTheta,maxCTheta,wall_ms\n")
            for r in artifacts.reports:
                fh.write(
                    f"{r.step_index},{r.t:.17g},{r.k_phi},{r.k_c},"
                    f"{r.resid_phi:.17g},{r.resid_c:.17g},"
                    f"{r.max_phi_theta:.17g},{r.max_c_theta:.17g},{r.wall_ms:.3f}\n"
                )

    if artifacts.front_series:
        with open(os.path.join(out_dir, "front.csv"), "w", encoding="utf-8") as fh:
            fh.write("t,depth\n")
            for t, depth in artifacts.front_series:
                fh.write(f"{t:.17g},{depth:.17g}\n")

    with open(os.path.join(out_dir, "timing.json"), "w", encoding="utf-8") as fh:
        json.dump(artifacts.timing, fh, indent=2, sort_keys=True)

    _maybe_write_errors(artifacts, grid, out_dir)
    return out_dir


def generate_reference(cfg: ScenarioConfig, output_root: str,
                       horizon_scale: float = 1.0) -> RunArtifacts:
    """Fine-step self-reference run of the same scheme family."""
    divisor = cfg.reference_dt_divisor
    fine_scheme = replace(cfg.scheme, dt=cfg.scheme.dt / divisor)
    if fine_scheme.dt >= cfg.scheme.dt:
        raise ConfigError("reference steps must be strictly finer than the target's")
    fine_cfg = replace(cfg, scheme=fine_scheme, formats=("raw-f64",), name="reference")
    return run_scenario(fine_cfg, os.path.join(output_root, cfg.name),
                        horizon_scale=horizon_scale)


def _maybe_write_errors(artifacts: RunArtifacts, grid, out_dir: str):
    ref_dir = os.path.join(out_dir, "reference")
    if not os.path.isdir(ref_dir):
        return
    rows = []
    for t, state in artifacts.snapshots:
        ref_path = os.path.join(ref_dir, f"snapshot_t{_format_time(t)}.f64")
        if not os.path.exists(ref_path):
            continue
        ref_state, _ = read_snapshot(ref_path)
        err_phi, err_c = analysis.error_norms(state, ref_state)
        rows.append((t, err_phi, err_c))
    if rows:
        with open(os.path.join(out_dir, "errors.csv"), "w", encoding="utf-8") as fh:
            fh.write("t,err_phi,err_c\n")
            for t, ephi, ec in rows:
                fh.write(f"{t:.17g},{ephi:.17g},{ec:.17g}\n")


def scaling_report(cfg: ScenarioConfig, sweep: str, factors,
                   horizon_scale: float = 1.0):
    """Run a dt or h sweep and fit the log-log cost slope.

    sweep='dt' multiplies the time step; sweep='h' divides the grid spacing
    (so factor 2 halves h).  Returns {'slope', 'r2', 'points'}.
    """
    factors = list(factors)
    if len(factors) < 3:
        raise ConfigError("sweeps need at least three points")
    if not all(0.0 < f < np.inf for f in factors):
        raise ConfigError("sweep factors must be positive and finite")
    points = []
    for f in factors:
        if sweep == "dt":
            variant = replace(cfg, scheme=replace(cfg.scheme, dt=cfg.scheme.dt * f))
            x = variant.scheme.dt
        elif sweep == "h":
            raw = copy.deepcopy(cfg.raw)
            spacing = raw["grid"].get("spacing_um", 1.0)
            if np.isscalar(spacing):
                raw["grid"]["spacing_um"] = _real(spacing, "grid.spacing_um") / f
            else:
                raw["grid"]["spacing_um"] = [s / f for s in _reals(spacing, "grid.spacing_um")]
            variant = parse_config(raw)
            x = min(build_grid(variant.grid_spec).spacings)
        else:
            raise ConfigError("sweep must be 'dt' or 'h'")
        artifacts = run_scenario(variant, horizon_scale=horizon_scale)
        points.append((x, artifacts.timing["wall_s"]))
    xs, ys = zip(*points)
    slope, r2 = analysis.fit_loglog_slope(xs, ys)
    return {"slope": slope, "r2": r2, "points": points}
