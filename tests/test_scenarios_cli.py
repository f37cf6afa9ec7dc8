import json
import math
import os
import tracemalloc

import numpy as np
import pytest
import yaml

from pitcorr import scenarios
from pitcorr.analysis import front_position
from pitcorr.cli import main
from pitcorr.grid import GridSpec, build_grid
from pitcorr.holes import IterSchemeConfig
from pitcorr.model import DEFAULT_FIXED_W
from pitcorr.rect import FieldPair, SchemeConfig
from pitcorr.scenarios import (
    ConfigError,
    OUTPUT_ROOT_ENV,
    builtin_scenarios,
    export_snapshot,
    generate_reference,
    load_config,
    read_snapshot,
    run_scenario,
    scaling_report,
)


def tiny_pit_config(dt=2e-3, n_steps=5, **scheme_extra):
    scheme = {
        "order": "euler",
        "variant": "imex-e",
        "dt": dt,
        "eps": [1e-4, 1e-3, 1e-8],
    }
    scheme.update(scheme_extra)
    return {
        "name": "tiny_pit",
        "grid": {
            "extents_um": [20.0, 20.0],
            "spacing_um": 1.0,
            "bc": {"x": ["neumann", "neumann"], "y": ["neumann", "neumann"]},
        },
        "geometry": [{"circle": {"center_um": [10.0, 10.0], "radius_um": 1.5}}],
        "initial": {"phi": 1.0, "c": 1.0},
        "scheme": scheme,
        "horizon": dt * n_steps,
        "snapshot_times": [0.0, dt * n_steps],
        "outputs": {"formats": ["csv", "raw-f64"]},
    }


def rough_edge(seed):
    """A rough-edge geometry entry for the 20 x 20 um grid of `tiny_pit_config`."""
    return {"rough_edge": {"amplitude_um": 2.0, "wavelength_um": 5.0,
                           "base_height_um": 15.0, "seed": seed}}


def tiny_rect_config(n_steps=5):
    dt = 1e-3
    return {
        "name": "tiny_rect",
        "grid": {
            "extents_um": [5.0, 10.0],
            "spacing_um": 1.0,
            "bc": {"x": ["neumann", "neumann"], "y": ["dirichlet", "dirichlet"]},
        },
        "boundary_values": {"y": [0.0, 0.0]},
        "geometry": [],
        "initial": {"phi": 1.0, "c": 1.0},
        "scheme": {"order": "euler", "dt": dt},
        "horizon": dt * n_steps,
        "snapshot_times": [0.0, dt * n_steps],
        "front_axis": "y",
    }


class TestConfigParsing:
    def test_builtins_all_parse(self):
        names = set(builtin_scenarios())
        assert names == {
            "pencil2d", "circular_pit", "electropolish", "pencil3d",
            "semicylinder3d",
        }
        for name in names:
            cfg = load_config(name)
            assert cfg.name == name
            assert cfg.horizon > 0.0

    def test_builtin_scheme_dispatch(self):
        rect = load_config("pencil2d")
        assert not rect.has_holes
        assert isinstance(rect.scheme, SchemeConfig)
        pit = load_config("circular_pit")
        assert pit.has_holes
        assert isinstance(pit.scheme, IterSchemeConfig)
        assert pit.scheme.variant == "imex-e"
        for name in ("circular_pit", "electropolish", "semicylinder3d"):
            raw = builtin_scenarios()[name]
            assert load_config(name).scheme.stop_mode == "exact"
            assert "eps" not in raw["scheme"] and "max_iters" not in raw["scheme"]

    def test_micron_conversion(self):
        cfg = load_config(tiny_pit_config())
        np.testing.assert_allclose(cfg.grid_spec.extents, (20e-6, 20e-6), rtol=1e-12)
        assert cfg.shapes[0].radius == pytest.approx(1.5e-6)

    def test_yaml_path_loading(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(tiny_pit_config()))
        cfg = load_config(str(path))
        assert cfg.name == "tiny_pit"

    def test_yaml_exponent_without_dot_is_a_number(self, tmp_path):
        # YAML 1.1, which PyYAML follows, reads 1e-3 as a string.
        text = yaml.safe_dump(tiny_pit_config(dt=1e-3)).replace("dt: 0.001", "dt: 1e-3")
        assert isinstance(yaml.safe_load(text)["scheme"]["dt"], str)
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        assert load_config(str(path)).scheme.dt == 0.001

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid: [unclosed")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_yaml_file_matches_builtin(self, tmp_path, name):
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(builtin_scenarios()[name], sort_keys=False))
        assert load_config(str(path)) == load_config(name)

    @pytest.mark.parametrize("key,value", [("eps", [1e-4, 1e-3, 1e-8]), ("max_iters", 500)])
    def test_exact_rejects_loop_settings(self, tmp_path, key, value):
        # Under stop_mode exact no step reads the loop's tolerances or
        # iteration cap, so setting them is an error, not a silent no-op.
        raw = tiny_pit_config()
        raw["scheme"].pop("eps")
        raw["scheme"].update({"stop_mode": "exact", key: value})
        with pytest.raises(ConfigError, match=key):
            load_config(raw)
        path = tmp_path / "exact.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
        raw["scheme"].pop(key)
        assert load_config(raw).scheme.stop_mode == "exact"

    @pytest.mark.parametrize("key,value", [
        ("variant", "bogus"), ("variant", "imex-e"), ("stop_mode", "exact"),
        ("eps", [1e-4, 1e-3]), ("max_iters", -3),
    ])
    def test_rectangle_rejects_cavity_settings(self, tmp_path, key, value):
        # Without geometry no step reads the cavity scheme keys, valid or not.
        raw = tiny_rect_config()
        raw["scheme"][key] = value
        with pytest.raises(ConfigError, match=f"scheme.{key}"):
            load_config(raw)
        path = tmp_path / "rect.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
        raw["scheme"].pop(key)
        assert load_config(raw).scheme == SchemeConfig("euler", 1e-3, DEFAULT_FIXED_W)

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            load_config("no_such_scenario")

    @pytest.mark.parametrize("mutate", [
        lambda raw: raw.pop("grid"),
        lambda raw: raw.pop("scheme"),
        lambda raw: raw["grid"]["bc"].update(x=["neumann", "robin"]),
        lambda raw: raw["grid"].update(spacing_um=0.3),
        lambda raw: raw.update(horizon=-1.0),
        lambda raw: raw.update(snapshot_times=[999.0]),
        lambda raw: raw["scheme"].update(eps=[1e-4]),
        lambda raw: raw["scheme"].update(order="rk4"),
        lambda raw: raw["scheme"].update(stop_mode="reduced"),
        lambda raw: raw.update(outputs={"formats": ["hdf5"]}),
        lambda raw: raw.update(geometry=[{"pyramid": {}}]),
        lambda raw: raw.update(reference={"dt_divisor": 1}),
        # Times off the dt grid, which a run used to round.
        lambda raw: raw.update(horizon=0.0111, snapshot_times=[0.0]),
        lambda raw: raw.update(snapshot_times=[0.0, 0.0031]),
        # Numbers that were coerced, or ran with non-finite values.
        lambda raw: raw["scheme"].update(eps=[math.nan, 1e-3, 1e-8]),
        lambda raw: raw["scheme"].update(eps=[math.inf, 1e-3, 1e-8]),
        lambda raw: raw["scheme"].update(eps=[1e-4, math.nan, 1e-8]),
        lambda raw: raw["scheme"].update(eps=[1e-4, 1e-3, math.nan]),
        lambda raw: raw["scheme"].update(eps=[1e-4, 1e-3, math.inf]),
        lambda raw: raw["scheme"].update(max_iters=2.7),
        lambda raw: raw["scheme"].update(max_iters=True),
        lambda raw: raw.update(reference={"dt_divisor": 2.7}),
        lambda raw: raw.update(reference={"dt_divisor": True}),
        lambda raw: raw.update(reference={"dt_divisor": "8"}),
        lambda raw: raw.update(geometry=[rough_edge(2.7)]),
        lambda raw: raw.update(geometry=[rough_edge(True)]),
        lambda raw: raw.update(geometry=[rough_edge("8")]),
        lambda raw: raw.update(geometry=[rough_edge(-1)]),
        lambda raw: raw["initial"].update(phi=math.nan),
        lambda raw: raw["initial"].update(c=math.inf),
        lambda raw: (raw["grid"]["bc"].update(y=["dirichlet", "dirichlet"]),
                     raw.update(boundary_values={"y": [math.nan, 0.0]})),
        lambda raw: (raw["grid"]["bc"].update(y=["dirichlet", "dirichlet"]),
                     raw.update(boundary_values={"y": [0.0, -math.inf]})),
        lambda raw: raw["geometry"][0]["circle"].update(radius_um=-1.5),
        lambda raw: raw["geometry"][0]["circle"].update(radius_um=0.0),
        lambda raw: raw["geometry"][0]["circle"].update(radius_um=math.nan),
        lambda raw: raw["geometry"][0]["circle"].update(center_um=[math.nan, 10.0]),
        lambda raw: raw["geometry"][0]["circle"].update(center_um=[10.0, math.inf]),
        lambda raw: raw.update(geometry=[{"cylinder": {"axis": "z", "center_um": [10.0, 10.0],
                                                       "radius_um": -1.5}}],
                               grid=dict(raw["grid"], extents_um=[20.0, 20.0, 20.0],
                                         bc=dict(raw["grid"]["bc"], z=["neumann", "neumann"]))),
        # Booleans that were read as 0 or 1, and strings read as their
        # characters where a list of numbers belongs.
        lambda raw: (raw["scheme"].update(dt=True), raw.update(horizon=1.0, snapshot_times=[1.0])),
        lambda raw: raw["scheme"].update(w=False),
        lambda raw: raw["geometry"][0]["circle"].update(radius_um=True),
        lambda raw: raw["scheme"].update(eps=[True, 1e-3, 1e-8]),
        lambda raw: raw["geometry"][0]["circle"].update(center_um="12"),
        lambda raw: raw["scheme"].update(eps="123"),
        lambda raw: raw.update(horizon=5.0, snapshot_times="05"),
        # Names that wrote outside the output root, or into the root itself.
        lambda raw: raw.update(name="../escaped"),
        lambda raw: raw.update(name="/abs/dir"),
        lambda raw: raw.update(name="a/b"),
        lambda raw: raw.update(name=""),
        lambda raw: raw.update(name="."),
        lambda raw: raw.update(name=".."),
    ])
    def test_invalid_configs_rejected(self, mutate):
        raw = tiny_pit_config()
        mutate(raw)
        with pytest.raises(ConfigError):
            load_config(raw)

    @pytest.mark.parametrize("key, value", [
        ("amplitude_um", math.inf),
        ("amplitude_um", math.nan),
        ("base_height_um", -math.inf),
        ("base_height_um", math.nan),
        ("wavelength_um", 0.0),
        ("wavelength_um", -3.0),
        ("wavelength_um", math.inf),
        ("wavelength_um", math.nan),
    ])
    def test_bad_rough_edge_numbers_rejected(self, key, value):
        # Before, amplitude_um: .inf on electropolish made every node a hole,
        # and a wavelength_um of 0 or -3 failed in numpy.
        raw = builtin_scenarios()["electropolish"]
        raw["geometry"][0]["rough_edge"][key] = value
        with pytest.raises(ConfigError, match=f"geometry rough_edge.{key} must be"):
            load_config(raw)

    @pytest.mark.parametrize("scenario, section, key", [
        ("circular_pit", (), "horizn"),
        ("pencil3d", (), "front_from_high_end"),
        ("circular_pit", ("grid",), "spacing"),
        ("circular_pit", ("initial",), "psi"),
        ("circular_pit", ("scheme",), "stopmode"),
        ("circular_pit", ("outputs",), "format"),
        ("circular_pit", ("reference",), "divisor"),
        ("circular_pit", ("geometry", 0, "circle"), "radius"),
        ("semicylinder3d", ("geometry", 0, "cylinder"), "half_limit"),
        ("electropolish", ("geometry", 0, "rough_edge"), "amplitude"),
    ])
    def test_unknown_key_rejected(self, scenario, section, key):
        raw = builtin_scenarios()[scenario]
        raw.update(outputs={}, reference={})
        target = raw
        for k in section:
            target = target[k]
        target[key] = 1.0
        where = " ".join(k for k in section if k != 0) or "config"
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in {where}$"):
            load_config(raw)

    @pytest.mark.parametrize("values", [
        {"y": ["abc", 0.0]},
        {"y": [[1], 0.0]},
        {"y": 0.5},
        {"z": [1.0, 1.0]},  # no z axis on a 2D grid
        {"x": [0.5, 0.0]},  # x ends are Neumann
        [0.0, 0.0],
    ])
    def test_bad_boundary_values_rejected(self, values, tmp_path, capsys):
        raw = tiny_rect_config()
        raw["boundary_values"] = values
        with pytest.raises(ConfigError, match="boundary_values"):
            load_config(raw)
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
        assert "boundary_values" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, section", [
        ("initial", 3, "initial"),
        ("initial", {"phi": "x"}, "initial"),
        ("outputs", [], "outputs"),
        # A bare string was read as its letters, and a repeated format wrote
        # every snapshot twice.
        ("outputs", {"formats": "csv"}, "outputs.formats"),
        ("outputs", {"formats": ["csv", "csv"]}, "outputs.formats"),
        ("snapshot_times", "a", "snapshot_times"),
        ("snapshot_times", [None], "snapshot_times"),
        ("horizon", "x", "horizon"),
        ("horizon", None, "horizon"),
        ("scheme.dt", "x", "scheme"),
        ("scheme.dt", float("inf"), "scheme"),
        ("scheme.w", float("nan"), "scheme"),
        ("scheme", {"order": "euler", "dt": 2e-3, "stop_mode": "full", "eps": 1e-3}, "scheme"),
        ("grid.extents_um", 5, "grid"),
        ("grid.extents_um", ["a", "b"], "grid"),
        ("grid.spacing_um", 0, "grid"),
        ("grid.spacing_um", -1, "grid"),
        ("geometry", 5, "geometry"),
        ("geometry", [5], "geometry"),
        ("geometry.0.circle.radius_um", "x", "geometry"),
        ("reference", 5, "reference"),
        ("reference", {"dt_divisor": "x"}, "reference"),
        # Configs that parsed, and failed in the run.
        ("front_axis", "z", "front_axis"),
        ("geometry.0.circle.center_um", [100.0], "geometry"),
        ("geometry", [{"cylinder": {"axis": "y", "center_um": [100.0, 50.0],
                                    "radius_um": 1.5}}], "geometry"),
        ("geometry", [{"rough_edge": {"amplitude_um": 15.0, "wavelength_um": 10.0,
                                      "base_height_um": 500.0}}], "geometry"),
        ("geometry.0.circle.radius_um", -1.5, "geometry"),
        ("geometry", [{"rough_edge": {"amplitude_um": math.inf, "wavelength_um": 10.0,
                                      "base_height_um": 95.0}}], "geometry"),
        ("initial.c", math.inf, "initial"),
    ])
    def test_malformed_circular_pit_exits_with_config_error(self, key, value, section,
                                                            tmp_path, capsys):
        raw = builtin_scenarios()["circular_pit"]
        *parents, last = [int(k) if k.isdigit() else k for k in key.split(".")]
        target = raw
        for k in parents:
            target = target[k]
        target[last] = value
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(raw))
        # One step at most, should a case ever parse and run.
        argv = ["run", str(path), "--output", str(tmp_path / "out"), "--horizon-scale", "1e-5"]
        assert main(argv) == 2
        assert section in capsys.readouterr().err

    def test_boundary_values_shared_by_phi_and_c(self):
        raw = tiny_rect_config()
        raw["boundary_values"] = {"x": [None, 0.0], "y": [0.25, None]}
        bdata = load_config(raw).bdata
        assert bdata.phi == bdata.c == ((0.0, 0.0), (0.25, 0.0))


class TestSnapshotFormats:
    @pytest.fixture
    def grid_state(self):
        cfg = load_config(tiny_rect_config())
        grid = build_grid(cfg.grid_spec)
        rng = np.random.default_rng(8)
        state = FieldPair(
            rng.uniform(0, 1, grid.counts), rng.uniform(0, 1, grid.counts),
            t=0.125, step_index=3,
        )
        return grid, state

    def test_csv_round_trip(self, tmp_path, grid_state):
        grid, state = grid_state
        path = export_snapshot(state, grid, str(tmp_path / "snap"), "csv")
        assert path.endswith(".csv")
        table, meta = read_snapshot(path)
        assert meta["columns"] == ["x", "y", "phi", "c"]
        np.testing.assert_array_equal(
            table[:, 2], state.Phi.ravel(order="F")
        )
        np.testing.assert_array_equal(
            table[:, 3], state.C.ravel(order="F")
        )
        # x varies fastest down the rows
        assert table[1, 0] != table[0, 0]
        assert table[1, 1] == table[0, 1]

    # Mixed Dirichlet/Neumann ends in 2D and 3D; (30, 50) ends in a partial
    # block at the default block size and (1500, 3) has x-lines longer than
    # one block; a block of 4 rows does both to every grid.
    @pytest.mark.parametrize("block_rows", [None, 4])
    @pytest.mark.parametrize("counts", [(7, 5), (3, 2, 5), (30, 50), (1500, 3)])
    def test_csv_bytes_match_savetxt(self, tmp_path, monkeypatch, counts, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(scenarios, "_CSV_BLOCK_ROWS", block_rows)
        D, N = "dirichlet", "neumann"
        bc = ((D, N), (N, N), (N, D))[: len(counts)]
        grid = build_grid(GridSpec(tuple(1e-6 * m for m in counts), counts, bc))
        rng = np.random.default_rng(len(counts))
        phi = rng.standard_normal(counts) * 10.0 ** rng.integers(-300, 300, counts)
        c = rng.uniform(0.0, 1.0, counts)
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310,
                   1e300, -1e-300, 3.0, -7.0, 1e22]
        n = len(special)  # the first rows of phi and the last rows of c
        phi[np.unravel_index(np.arange(n), counts, order="F")] = special
        c[np.unravel_index(np.arange(phi.size - n, phi.size), counts, order="F")] = special[::-1]
        state = FieldPair(phi, c, t=0.5, step_index=2)

        path = export_snapshot(state, grid, str(tmp_path / "snap"), "csv")
        reference = tmp_path / "reference.csv"
        columns = [x.ravel(order="F") for x in np.meshgrid(*grid.axes, indexing="ij")]
        columns += [phi.ravel(order="F"), c.ravel(order="F")]
        header = ",".join(["x", "y", "z"][: len(counts)] + ["phi", "c"])
        np.savetxt(reference, np.column_stack(columns), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        with open(path, "rb") as fh:
            written = fh.read()
        assert written == reference.read_bytes()
        for text in (b",nan,", b",-inf,", b",-0,", b",4.9406564584124654e-324,",
                     b",1.0000000000000001e+300,"):
            assert text in written

    def test_run_formats_coordinate_text_once(self, tmp_path, monkeypatch):
        # A run's CSV snapshots share one coordinate text, and each has the
        # bytes of a single export of its state.
        calls = []
        original = scenarios._csv_text

        def counting(grid):
            calls.append(grid)
            return original(grid)

        monkeypatch.setattr(scenarios, "_csv_text", counting)
        raw = tiny_rect_config(n_steps=4)
        raw["snapshot_times"] = [0.0, 1e-3, 3e-3, 4e-3]
        cfg = load_config(raw)
        artifacts = run_scenario(cfg, str(tmp_path / "run"))
        assert len(calls) == 1 and len(artifacts.snapshots) == 4
        grid = build_grid(cfg.grid_spec)
        for t, state in artifacts.snapshots:
            name = f"snapshot_t{scenarios._format_time(t)}.csv"
            single = export_snapshot(state, grid, str(tmp_path / "single"), "csv")
            with open(os.path.join(artifacts.output_dir, name), "rb") as fh, \
                    open(single, "rb") as ref:
                assert fh.read() == ref.read()

    def test_raw_round_trip_bit_exact(self, tmp_path, grid_state):
        grid, state = grid_state
        path = export_snapshot(state, grid, str(tmp_path / "snap"), "raw-f64")
        assert path.endswith(".f64")
        back, header = read_snapshot(path)
        np.testing.assert_array_equal(back.Phi, state.Phi)
        np.testing.assert_array_equal(back.C, state.C)
        assert back.t == state.t
        assert back.step_index == 3
        assert header["dtype"] == "<f8"

    def test_exports_copy_no_whole_field(self, tmp_path):
        # A CSV export reads its rows a block at a time, and a raw export
        # writes each field through a single copy, on pencil3d's grid.
        counts = (26, 26, 150)
        N, D = "neumann", "dirichlet"
        grid = build_grid(GridSpec(tuple(1e-6 * m for m in counts), counts,
                                   ((N, N), (N, N), (D, N))))
        rng = np.random.default_rng(3)
        state = FieldPair(rng.uniform(0, 1, counts), rng.uniform(0, 1, counts), 1.0, 5)
        for fmt, bound in (("csv", 1.0), ("raw-f64", 1.5)):
            tracemalloc.start()
            try:
                export_snapshot(state, grid, str(tmp_path / "snap"), fmt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * state.Phi.nbytes, (fmt, peak)

    def test_unknown_format_rejected(self, tmp_path, grid_state):
        grid, state = grid_state
        with pytest.raises(ConfigError):
            export_snapshot(state, grid, str(tmp_path / "snap"), "hdf5")


class TestRunScenario:
    def test_pit_run_artifacts(self, tmp_path):
        cfg = load_config(tiny_pit_config())
        artifacts = run_scenario(cfg, str(tmp_path))
        assert len(artifacts.snapshots) == 2
        assert len(artifacts.reports) == 5
        assert artifacts.final_state.t == pytest.approx(cfg.horizon)
        out = artifacts.output_dir
        assert os.path.isfile(os.path.join(out, "iterations.csv"))
        assert os.path.isfile(os.path.join(out, "timing.json"))
        assert os.path.isfile(os.path.join(out, "snapshot_t0.csv"))
        assert os.path.isfile(os.path.join(out, "snapshot_t0.f64"))
        with open(os.path.join(out, "iterations.csv")) as fh:
            header = fh.readline().strip()
        assert header == "step,t,k_phi,k_c,resid_phi,resid_c,maxPhiTheta,maxCTheta,wall_ms"

    def test_initial_state_zeroed_on_holes(self):
        cfg = load_config(tiny_pit_config(n_steps=1))
        artifacts = run_scenario(cfg)
        t0, snap0 = artifacts.snapshots[0]
        assert t0 == 0.0
        assert snap0.Phi.min() == 0.0 and snap0.Phi.max() == 1.0

    def test_deterministic_outputs(self, tmp_path):
        cfg = load_config(tiny_pit_config())
        a = run_scenario(cfg, str(tmp_path / "a"))
        b = run_scenario(cfg, str(tmp_path / "b"))
        for name in ("snapshot_t0.f64", "snapshot_t0_01.f64"):
            pa = os.path.join(a.output_dir, name)
            pb = os.path.join(b.output_dir, name)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()

    def test_front_series_collected(self):
        cfg = load_config(tiny_rect_config())
        artifacts = run_scenario(cfg)
        assert len(artifacts.front_series) >= 2
        for t, depth in artifacts.front_series:
            assert isinstance(depth, float)

    @pytest.mark.parametrize("y_ends, from_high_end", [
        (["dirichlet", "dirichlet"], False),
        (["dirichlet", "neumann"], False),
        (["neumann", "dirichlet"], True),
    ])
    def test_front_depth_from_the_exposed_end(self, y_ends, from_high_end):
        raw = tiny_rect_config(n_steps=50)
        raw["grid"]["bc"]["y"] = y_ends
        raw["boundary_values"] = {"y": [0.0, 0.0]}
        cfg = load_config(raw)
        artifacts = run_scenario(cfg)
        pos = front_position(artifacts.final_state, build_grid(cfg.grid_spec), 1)
        depth = cfg.grid_spec.extents[1] - pos if from_high_end else pos
        assert 0.0 < depth < 2e-6 and artifacts.front_series[-1][1] == depth

    def test_horizon_scale(self):
        cfg = load_config(tiny_pit_config(n_steps=10))
        artifacts = run_scenario(cfg, horizon_scale=0.5)
        assert artifacts.timing["n_steps"] == 5
        assert artifacts.final_state.t == pytest.approx(cfg.horizon / 2)


class TestReference:
    def test_reference_and_errors(self, tmp_path):
        raw = tiny_pit_config(n_steps=4)
        raw["reference"] = {"dt_divisor": 2}
        cfg = load_config(raw)
        ref = generate_reference(cfg, str(tmp_path))
        assert ref.timing["dt"] == pytest.approx(cfg.scheme.dt / 2)
        assert ref.output_dir.endswith(os.path.join("tiny_pit", "reference"))
        assert any(f.endswith(".f64") for f in os.listdir(ref.output_dir))

        artifacts = run_scenario(cfg, str(tmp_path))
        err_path = os.path.join(artifacts.output_dir, "errors.csv")
        assert os.path.isfile(err_path)
        rows = np.loadtxt(err_path, delimiter=",", skiprows=1)
        assert rows.shape[1] == 3
        assert np.all(rows[:, 1:] >= 0.0)


class TestScalingReport:
    def test_dt_sweep(self):
        cfg = load_config(tiny_pit_config(n_steps=8))
        report = scaling_report(cfg, "dt", [0.5, 1.0, 2.0], horizon_scale=1.0)
        assert len(report["points"]) == 3
        assert np.isfinite(report["slope"])

    @pytest.mark.parametrize("edit, spacing", [
        # A YAML date in a key the parser does not read, and a spacing that
        # PyYAML reads as a string; each raised a TypeError in the h sweep.
        (lambda text: text + "description: 2025-06-01\n", 1e-6),
        (lambda text: text.replace("spacing_um: 1.0", "spacing_um: 5e-1"), 0.5e-6),
    ])
    def test_h_sweep_of_a_config_the_parser_accepts(self, edit, spacing, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(edit(yaml.safe_dump(tiny_rect_config())))
        code = main(["sweep", str(path), "--vary", "h", "--factors", "1", "2", "4",
                     "--output", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "tiny_rect" / "sweep_h.json").read_text())
        assert [x for x, _ in report["points"]] == pytest.approx([spacing, spacing / 2,
                                                                 spacing / 4])

    def test_too_few_factors(self):
        cfg = load_config(tiny_pit_config())
        with pytest.raises(ConfigError):
            scaling_report(cfg, "dt", [1.0, 2.0])


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in builtin_scenarios():
            assert name in out

    def test_run_verb(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(tiny_pit_config()))
        code = main(["run", str(path), "--output", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "run complete" in out
        assert os.path.isdir(tmp_path / "out" / "tiny_pit")

    def test_env_output_root(self, tmp_path, monkeypatch):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(tiny_pit_config()))
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "envroot"))
        assert main(["run", str(path)]) == 0
        assert os.path.isdir(tmp_path / "envroot" / "tiny_pit")

    def test_config_error_exit_code(self, capsys):
        assert main(["run", "no_such_scenario"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_convergence_error_exit_code(self, tmp_path, capsys):
        raw = tiny_pit_config(eps=[1e-30, 1e-30, 1e-30], max_iters=2)
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "did not converge" in err
        assert "phi iteration" in err and "t=0.002 s" in err

    def test_instability_exit_code(self, tmp_path, capsys):
        raw = {
            "name": "blowup",
            "grid": {
                "extents_um": [8.0, 8.0],
                "spacing_um": 1.0,
                "bc": {"x": ["neumann", "neumann"], "y": ["neumann", "neumann"]},
            },
            "geometry": [],
            "initial": {"phi": 0.5, "c": 0.5},
            "scheme": {"order": "euler", "dt": 1.0, "w": 0.0},
            "horizon": 50.0,
        }
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(raw))
        with np.errstate(all="ignore"):
            code = main(["run", str(path), "--output", str(tmp_path / "out")])
        assert code == 3
        assert "instability" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--variant", "imex-e", "--h", "1e-6", "--dt", "1e-3", "--w", "0"],
        ["bounds", "--variant", "imex-e", "--h", "1e-6", "--dt", "nan"],
        ["bounds", "--variant", "imex-e", "--h", "1e300", "--dt", "1e-3"],
        ["bounds", "--variant", "imex-e", "--h", "1e-200", "--dt", "1e-3"],
        ["run", "CONFIG", "--horizon-scale", "nan"],
        ["run", "CONFIG", "--horizon-scale", "0"],
        ["run", "CONFIG", "--horizon-scale", "-1"],
        ["reference", "CONFIG", "--horizon-scale", "inf"],
        ["sweep", "CONFIG", "--vary", "dt", "--factors", "0", "1", "2"],
    ])
    def test_bad_arguments_exit_with_config_error(self, argv, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(tiny_pit_config()))
        argv = [str(path) if a == "CONFIG" else a for a in argv]
        if argv[0] != "bounds":
            argv += ["--output", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_name_cannot_leave_the_output_root(self, tmp_path, capsys):
        raw = tiny_rect_config()
        raw["name"] = "../escaped"
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
        assert "name must name one directory" in capsys.readouterr().err
        assert not (tmp_path / "escaped").exists()

    def test_bounds_verb(self, capsys):
        code = main([
            "bounds", "--variant", "imex-i", "--bc", "neumann",
            "--h", "1e-6", "--dt", "1e-5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho bound (phi)" in out and "rho bound (c)" in out
        assert "dt_max (c)" in out

    def test_sweep_verb(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(tiny_pit_config(n_steps=6)))
        code = main([
            "sweep", str(path), "--vary", "dt",
            "--factors", "0.5", "1.0", "2.0",
            "--output", str(tmp_path / "out"),
        ])
        assert code == 0
        report_path = tmp_path / "out" / "tiny_pit" / "sweep_dt.json"
        assert report_path.is_file()
        report = json.loads(report_path.read_text())
        assert "slope" in report and len(report["points"]) == 3
