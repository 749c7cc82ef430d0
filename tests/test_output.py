import xml.etree.ElementTree as ET

import numpy as np
import pytest

import wnvfront as w
from wnvfront.output import (
    _downsample,
    svg_heatmap,
    svg_line_chart,
    trajectory_heatmap_matrix,
    write_csv,
    write_plots,
    write_sweep_plot,
    write_trajectory_csv,
)
from wnvfront.solver import SolverConfig, Trajectory


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    data = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    arr = np.array(data) if data else np.zeros((0, len(header)))
    return {name: arr[:, i] for i, name in enumerate(header)}


@pytest.fixture(scope="module")
def short_traj(ref_spec):
    cfg = SolverConfig(J=100, dt_min=0.02, dt_max=0.02, t_end=5.0,
                       output_times=(2.0, 5.0))
    return w.simulate(ref_spec, w.InitialData(), cfg)


def test_csv_round_trip_exact(tmp_path):
    rows = [(0.1, 1.0 / 3.0, -2.5e-17), (np.pi, 1e300, 0.0)]
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], rows)
    back = read_csv(path)
    for i, name in enumerate(("a", "b", "c")):
        np.testing.assert_array_equal(back[name], [r[i] for r in rows])


def test_boundaries_row_count(short_traj, tmp_path):
    write_trajectory_csv(short_traj, tmp_path)
    data = read_csv(tmp_path / "boundaries.csv")
    assert len(data["t"]) == len(short_traj.t)
    np.testing.assert_array_equal(data["h"], short_traj.h)


def test_snapshot_endpoints_match_fronts(short_traj, tmp_path):
    paths = write_trajectory_csv(short_traj, tmp_path)
    snap_paths = [p for p in paths if "snapshot" in p.name]
    assert len(snap_paths) == len(short_traj.snapshots)
    for p, st in zip(snap_paths, short_traj.snapshots):
        data = read_csv(p)
        assert data["x"][0] == pytest.approx(st.geom.g, abs=1e-12 * max(1.0, abs(st.geom.g)))
        assert data["x"][-1] == pytest.approx(st.geom.h, abs=1e-12 * max(1.0, abs(st.geom.h)))
        assert data["U"][0] == 0.0 and data["U"][-1] == 0.0


def test_snapshot_names_do_not_collide(ref_spec, short_traj, tmp_path):
    # distinct names are kept as they were: snapshot_<t:g>.csv
    paths = write_trajectory_csv(short_traj, tmp_path / "ok")
    assert [p.name for p in paths[1:]] == ["snapshot_2.csv", "snapshot_5.csv"]
    # 1.0000001 and 1.0000004 both print as 1: two snapshots, one file name
    cfg = SolverConfig(J=100, dt_min=1e-8, dt_max=0.02, t_end=1.1,
                       output_times=(1.0000001, 1.0000004))
    traj = w.simulate(ref_spec, w.InitialData(), cfg)
    assert len(traj.snapshots) == 2
    with pytest.raises(ValueError, match=r"1\.0000001 and 1\.0000004 both name snapshot_1\.csv"):
        write_trajectory_csv(traj, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()


def test_zero_state_trajectory_columns(tmp_path):
    t = np.linspace(0, 1, 5)
    z = np.zeros_like(t)
    traj = Trajectory(t=t, g=-1 + z, h=1 + z, gdot=z, hdot=z,
                      sup_m=z, sup_n=z, snapshots=[])
    write_trajectory_csv(traj, tmp_path)
    data = read_csv(tmp_path / "boundaries.csv")
    assert np.all(data["supU"] == 0.0)


def test_svg_line_chart_well_formed(tmp_path):
    x = np.linspace(0, 1, 20)
    path = svg_line_chart([("a", x, np.sin(x)), ("b", x, np.cos(x))],
                          tmp_path / "c.svg", title="test")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root)


def test_svg_empty_series_rejected(tmp_path):
    with pytest.raises(ValueError):
        svg_line_chart([], tmp_path / "x.svg")
    with pytest.raises(ValueError):
        svg_line_chart([("a", np.array([]), np.array([]))], tmp_path / "x.svg")
    assert not (tmp_path / "x.svg").exists()


def test_svg_heatmap_well_formed(tmp_path):
    M = np.outer(np.linspace(0, 1, 12), np.linspace(0, 1, 15))
    path = svg_heatmap(M, tmp_path / "h.svg")
    root = ET.parse(path).getroot()
    assert sum(1 for c in root if c.tag.endswith("rect")) >= 12 * 15


def test_heatmap_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        svg_heatmap(np.zeros((0, 0)), tmp_path / "h.svg")


def test_downsample_caps_size():
    M = np.random.default_rng(0).random((900, 700))
    out = _downsample(M)
    assert out.shape[0] <= 300 and out.shape[1] <= 300
    # averaging near-equal blocks keeps the mean
    assert abs(np.mean(out) - np.mean(M)) < 0.01


def test_downsample_keeps_the_last_row():
    # 301 snapshots: the last one, the run's final state, is still drawn
    M = np.arange(301.0)[:, None] * np.ones((1, 3))
    out = _downsample(M)
    assert out.shape == (300, 3)
    np.testing.assert_array_equal(out[-1], M[-1])


def test_trajectory_plots_written(short_traj, tmp_path):
    written = write_plots(short_traj, tmp_path)
    assert all(p.exists() for p in written)
    M, xg = trajectory_heatmap_matrix(short_traj)
    assert M.shape == (len(short_traj.snapshots), len(xg))


def test_heatmap_draws_each_landed_state_once(ref_spec):
    # simulate --t-end 5e-9: of its seven output times, 0 and 5e-9/6 land on the start state
    # and the others in pairs, so seven snapshots hold four states
    cfg = SolverConfig(J=32, t_end=5e-9, output_times=tuple(np.linspace(0.0, 5e-9, 7)))
    traj = w.simulate(ref_spec, w.InitialData(), cfg)
    assert len(traj.snapshots) == 7
    M, xg = trajectory_heatmap_matrix(traj)
    assert M.shape == (4, len(xg))


def test_sweep_plot_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_sweep_plot([], tmp_path / "s.svg")
