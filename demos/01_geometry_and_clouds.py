"""Point clouds, rigid transforms, and cloud files.

Walks the geometric vocabulary the rest of the package is written in:
labeled point clouds, SE(3) transforms and their composition, voxel
downsampling, axis-aligned bounds, and round-tripping clouds through PLY
and JSON files.
"""

import tempfile
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

from tog.cloud_io import load_cloud, save_cloud
from tog.geometry import (
    PointCloud,
    RigidTransform,
    aabb,
    apply_transform,
    voxel_downsample,
)


def main():
    rng = np.random.default_rng(7)

    # A labeled cloud: a coarse "lollipop" of a stick plus a head.
    stick = np.column_stack(
        [np.zeros(400), np.zeros(400), np.linspace(0.0, 0.12, 400)]
    ) + rng.normal(0.0, 0.002, (400, 3))
    head = rng.normal(0.0, 1.0, (600, 3))
    head = 0.03 * head / np.linalg.norm(head, axis=1, keepdims=True)
    head[:, 2] += 0.15
    cloud = PointCloud(
        np.vstack([stick, head]), labels=["stick"] * 400 + ["head"] * 600
    )
    print(f"cloud: {cloud}")

    box = aabb(cloud)
    print(f"bounds: min={np.round(box.min, 3)} max={np.round(box.max, 3)}")
    print(f"center={np.round(box.center, 3)} half_diagonal={box.half_diagonal:.4f}")

    # Rigid transforms compose right-to-left, like matrices.
    lift = RigidTransform(np.eye(3), np.array([0.0, 0.0, 0.05]))
    turn = RigidTransform(
        Rotation.from_euler("z", 40, degrees=True).as_matrix(), np.zeros(3)
    )
    pose = turn @ lift
    posed = apply_transform(cloud, pose)
    print(f"pose rotation angle: {np.degrees(pose.rotation_angle()):.1f} deg")

    # inverse() really inverts: round-tripped points match to float precision.
    back = pose.inverse().apply(posed.points)
    print(f"round-trip max error: {np.abs(back - cloud.points).max():.2e}")

    # Voxel downsampling keeps one centroid per occupied 5 mm cell and
    # carries the majority label of each cell along.
    coarse = voxel_downsample(cloud, 0.005)
    kept = dict(zip(*np.unique(coarse.labels, return_counts=True)))
    print(f"downsampled {len(cloud)} -> {len(coarse)} points, labels {kept}")

    # Clouds round-trip through PLY (with a label column) and JSON.
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("cloud.ply", "cloud.json"):
            path = Path(tmp) / name
            save_cloud(coarse, path)
            again = load_cloud(path)
            same_pts = np.allclose(again.points, coarse.points, atol=1e-6)
            same_lbl = list(again.labels) == list(coarse.labels)
            print(f"{name}: points match={same_pts} labels match={same_lbl}")


if __name__ == "__main__":
    main()
