"""Result serialization: CSV tables and self-contained SVG charts.

Floats are written with repr (shortest round-trip form) and LF line
endings, so identical runs produce bitwise-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .solver import Trajectory


def _f(x: float) -> str:
    return repr(float(x))


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_f(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def snapshot_name(t: float) -> str:
    """The file of the snapshot at time t."""
    return f"snapshot_{t:g}.csv"


def check_snapshot_names(times) -> None:
    """ValueError if two of ``times`` share a snapshot_name, so one file would overwrite another."""
    first = {}
    for t in times:
        name = snapshot_name(t)
        if name in first:
            raise ValueError(f"output times {first[name]!r} and {t!r} both name {name}")
        first[name] = t


def write_trajectory_csv(traj: Trajectory, outdir) -> List[Path]:
    """boundaries.csv plus one snapshot_name(t) per landed state; names must not collide."""
    snapshots = list({st.t: st for st in traj.snapshots}.values())  # march time increases: equal t, one state
    check_snapshot_names([st.t for st in snapshots])
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    bpath = outdir / "boundaries.csv"
    write_csv(
        bpath,
        ["t", "g", "h", "gdot", "hdot", "supU", "supV"],
        zip(traj.t, traj.g, traj.h, traj.gdot, traj.hdot, traj.sup_m, traj.sup_n),
    )
    written.append(bpath)
    for st in snapshots:
        x = st.geom.to_x(st.y)
        spath = outdir / snapshot_name(st.t)
        write_csv(spath, ["x", "y", "U", "V"], zip(x, st.y, st.m, st.n))
        written.append(spath)
    return written


# ---------------------------------------------------------------------------
# SVG emission (dependency-free, deterministic)

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 60, 20, 30, 45
HEATMAP_CELLS = 300  # a heatmap's x samples, and its cap of cells along either axis


def _scale(vals, lo, hi, out_lo, out_hi):
    vals = np.asarray(vals, dtype=float)
    if hi - lo <= 0:
        hi = lo + 1.0
    return out_lo + (vals - lo) / (hi - lo) * (out_hi - out_lo)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _write_svg(path, title: str, body: List[str]) -> Path:
    """Write one chart: ``body`` on a white background under ``title``."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        *body,
        "</svg>",
    ]
    path = Path(path)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
    return path


def svg_line_chart(
    series: Sequence[Tuple[str, np.ndarray, np.ndarray]], path, title: str = ""
) -> Path:
    """Write a line chart; series is a list of (label, xs, ys)."""
    if not series or any(len(xs) == 0 for _, xs, _ in series):
        raise ValueError("cannot plot empty series")
    series = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for label, xs, ys in series]
    x_lo = min(float(np.min(xs)) for _, xs, _ in series)
    x_hi = max(float(np.max(xs)) for _, xs, _ in series)
    y_lo = min(float(np.min(ys)) for _, _, ys in series)
    y_hi = max(float(np.max(ys)) for _, _, ys in series)

    body = [
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_ML}" y="{_H - 8}" font-size="11">{x_lo:.4g}</text>',
        f'<text x="{_W - _MR - 40}" y="{_H - 8}" font-size="11">{x_hi:.4g}</text>',
        f'<text x="4" y="{_H - _MB}" font-size="11">{y_lo:.4g}</text>',
        f'<text x="4" y="{_MT + 10}" font-size="11">{y_hi:.4g}</text>',
    ]
    for i, (label, xs, ys) in enumerate(series):
        px = _scale(xs, x_lo, x_hi, _ML, _W - _MR)
        py = _scale(ys, y_lo, y_hi, _H - _MB, _MT)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = _PALETTE[i % len(_PALETTE)]
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        body.append(
            f'<text x="{_W - _MR - 100}" y="{_MT + 14 * (i + 1)}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    return _write_svg(path, title, body)


def _downsample(M: np.ndarray) -> np.ndarray:
    """Average each axis longer than HEATMAP_CELLS over that many near-equal blocks, dropping none."""
    for axis in (0, 1):
        if M.shape[axis] > HEATMAP_CELLS:
            M = np.stack([b.mean(axis=axis) for b in np.array_split(M, HEATMAP_CELLS, axis=axis)], axis=axis)
    return M


def svg_heatmap(M: np.ndarray, path, title: str = "") -> Path:
    """Rect-raster heatmap of a (rows=t, cols=x) matrix; grayscale by value."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        raise ValueError("cannot plot empty matrix")
    M = _downsample(M)
    lo, hi = float(np.nanmin(M)), float(np.nanmax(M))
    if hi - lo <= 0:
        hi = lo + 1.0
    rows, cols = M.shape
    cw = (_W - _ML - _MR) / cols
    ch = (_H - _MT - _MB) / rows
    body = []
    for i in range(rows):
        for j in range(cols):
            v = M[i, j]
            if not np.isfinite(v):
                continue
            shade = int(round(255 * (1.0 - (v - lo) / (hi - lo))))
            color = f"rgb({shade},{shade},255)"
            x = _ML + j * cw
            yy = _MT + i * ch
            body.append(
                f'<rect x="{x:.2f}" y="{yy:.2f}" width="{cw + 0.5:.2f}" '
                f'height="{ch + 0.5:.2f}" fill="{color}"/>'
            )
    return _write_svg(path, title, body)


def trajectory_heatmap_matrix(traj: Trajectory):
    """Space-time raster of U from the snapshots, on a common grid of HEATMAP_CELLS x values."""
    if not traj.snapshots:
        raise ValueError("trajectory has no snapshots")
    g_min = min(st.geom.g for st in traj.snapshots)
    h_max = max(st.geom.h for st in traj.snapshots)
    xg = np.linspace(g_min, h_max, HEATMAP_CELLS)
    rows = []
    for st in traj.snapshots:
        x = st.geom.to_x(st.y)
        row = np.interp(xg, x, st.m, left=0.0, right=0.0)
        rows.append(row)
    return np.array(rows), xg


def write_plots(traj: Trajectory, outdir) -> List[Path]:
    """Front-position, sup-norm, and space-time charts for one trajectory."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = [
        svg_line_chart(
            [("h", traj.t, traj.h), ("g", traj.t, traj.g)],
            outdir / "fronts.svg",
            title="front positions",
        ),
        svg_line_chart(
            [("sup U", traj.t, traj.sup_m), ("sup V", traj.t, traj.sup_n)],
            outdir / "norms.svg",
            title="sup norms",
        ),
    ]
    if traj.snapshots:
        M, _ = trajectory_heatmap_matrix(traj)
        written.append(svg_heatmap(M, outdir / "heatmap_U.svg", title="U(x,t)"))
    return written


def write_sweep_plot(entries, path) -> Path:
    """lambda vs L chart for a sweep result."""
    if not entries:
        raise ValueError("empty sweep")
    Ls = np.array([L for L, _ in entries])
    lams = np.array([e.lam for _, e in entries])
    return svg_line_chart([("lambda", Ls, lams)], path, title="principal exponent vs half-width")
