"""Reading and writing point clouds.

Two interchange formats are supported:

* ASCII PLY with ``float x/y/z`` properties and, for labeled clouds, an
  extra integer ``label`` property whose id-to-name mapping is carried in
  ``comment label <id> <name>`` header lines.
* A JSON object ``{"points": [[x, y, z], ...], "labels": [...]}`` where
  ``labels`` is optional.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import CloudParseError
from .geometry import PointCloud


def save_ply(cloud: PointCloud, path) -> None:
    """Write a cloud as ASCII PLY (label ids assigned by sorted name)."""
    path = Path(path)
    labeled = cloud.labels is not None
    lines = ["ply", "format ascii 1.0"]
    if labeled:
        names = sorted(set(cloud.labels.tolist()))
        name_to_id = {name: i for i, name in enumerate(names)}
        for name, i in name_to_id.items():
            lines.append(f"comment label {i} {name}")
    lines.append(f"element vertex {len(cloud)}")
    lines += ["property float x", "property float y", "property float z"]
    if labeled:
        lines.append("property int label")
    lines.append("end_header")
    for i, p in enumerate(cloud.points):
        row = f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}"
        if labeled:
            row += f" {name_to_id[cloud.labels[i]]}"
        lines.append(row)
    path.write_text("\n".join(lines) + "\n")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CloudParseError(f"{path}: cannot read ({exc})") from exc


def _count(text: str, path, what: str) -> int:
    """A non-negative header integer, else CloudParseError."""
    if not text.isdecimal() or len(text) > 18:  # int64 range
        raise CloudParseError(f"{path}: {what} must be a whole number, got '{text}'")
    return int(text)


def load_ply(path) -> PointCloud:
    """Read an ASCII PLY written by `save_ply` (or any x/y/z[/label] PLY)."""
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != "ply":
        raise CloudParseError(f"{path}: not a PLY file")
    id_to_name: dict[int, str] = {}
    n_vertices = None
    properties: list[str] = []
    body_start = None
    in_vertex_element = False
    for li, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "format":
            if parts[1:2] != ["ascii"]:
                raise CloudParseError(f"{path}: only ascii PLY is supported")
        elif parts[0] == "comment":
            if len(parts) >= 4 and parts[1] == "label":
                id_to_name[_count(parts[2], path, "label id")] = " ".join(parts[3:])
        elif parts[0] == "element":
            if len(parts) < 3:
                raise CloudParseError(f"{path}: element line needs a name and a count")
            in_vertex_element = parts[1] == "vertex"
            if in_vertex_element:
                n_vertices = _count(parts[2], path, "vertex count")
            elif n_vertices is None:
                raise CloudParseError(f"{path}: first element must be vertex")
        elif parts[0] == "property" and in_vertex_element:
            properties.append(parts[-1])
        elif parts[0] == "end_header":
            body_start = li + 1
            break
    if body_start is None or n_vertices is None:
        raise CloudParseError(f"{path}: malformed PLY header")
    for axis in ("x", "y", "z"):
        if axis not in properties:
            raise CloudParseError(f"{path}: vertex property {axis} missing")
    rows = lines[body_start : body_start + n_vertices]
    if len(rows) < n_vertices:
        raise CloudParseError(
            f"{path}: expected {n_vertices} vertex rows, found {len(rows)}"
        )
    try:
        data = np.array([r.split() for r in rows], dtype=np.float64)
    except ValueError as exc:
        raise CloudParseError(f"{path}: bad vertex row ({exc})") from exc
    if not rows:  # np.array([]) has no column axis
        data = np.empty((0, len(properties)))
    if data.shape[1] != len(properties):
        raise CloudParseError(
            f"{path}: vertex rows have {data.shape[1]} columns, "
            f"header declares {len(properties)}"
        )
    cols = {name: data[:, i] for i, name in enumerate(properties)}
    points = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    labels = None
    if "label" in cols:
        ids = cols["label"].astype(np.int64)
        unknown = set(ids.tolist()) - set(id_to_name)
        if unknown:
            raise CloudParseError(f"{path}: label ids {sorted(unknown)} not declared")
        labels = [id_to_name[i] for i in ids]
    try:
        return PointCloud(points, labels)
    except ValueError as exc:
        raise CloudParseError(f"{path}: {exc}") from exc


def cloud_to_dict(cloud: PointCloud) -> dict:
    """JSON-ready dict form of a cloud."""
    out: dict = {"points": cloud.points.tolist()}
    if cloud.labels is not None:
        out["labels"] = cloud.labels.tolist()
    return out


def cloud_from_dict(data: dict) -> PointCloud:
    if not isinstance(data, dict) or "points" not in data:
        raise CloudParseError("cloud JSON must be an object with a 'points' key")
    try:
        return PointCloud(data["points"], data.get("labels"))
    except (ValueError, TypeError, OverflowError) as exc:
        raise CloudParseError(str(exc)) from exc


def save_json(cloud: PointCloud, path) -> None:
    Path(path).write_text(json.dumps(cloud_to_dict(cloud), sort_keys=True))


def load_json(path) -> PointCloud:
    try:
        data = json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CloudParseError(f"{path}: invalid JSON ({exc})") from exc
    return cloud_from_dict(data)


def load_cloud(path) -> PointCloud:
    """Dispatch on file suffix: .ply or .json."""
    suffix = Path(path).suffix.lower()
    if suffix == ".ply":
        return load_ply(path)
    if suffix == ".json":
        return load_json(path)
    raise CloudParseError(f"{path}: unsupported cloud format '{suffix}'")


def save_cloud(cloud: PointCloud, path) -> None:
    suffix = Path(path).suffix.lower()
    if suffix == ".ply":
        save_ply(cloud, path)
    elif suffix == ".json":
        save_json(cloud, path)
    else:
        raise CloudParseError(f"{path}: unsupported cloud format '{suffix}'")
