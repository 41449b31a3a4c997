"""Round-trip and error-path tests for cloud file formats."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tog.cloud_io import (
    cloud_from_dict,
    cloud_to_dict,
    load_cloud,
    load_json,
    load_ply,
    save_cloud,
    save_json,
    save_ply,
)
from tog.errors import CloudParseError, TogError
from tog.geometry import PointCloud


@pytest.fixture
def labeled_cloud():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.1, 0.1, size=(40, 3))
    labels = ["body.outside"] * 25 + ["handle"] * 15
    return PointCloud(pts, labels)


class TestPly:
    def test_round_trip_labeled(self, tmp_path, labeled_cloud):
        path = tmp_path / "c.ply"
        save_ply(labeled_cloud, path)
        back = load_ply(path)
        assert np.allclose(back.points, labeled_cloud.points, atol=1e-7)
        assert back.labels.tolist() == labeled_cloud.labels.tolist()

    @pytest.mark.parametrize("names", [["a", "b.c"], ["two words", "x"]], ids=str)
    def test_round_trip_label_names(self, tmp_path, names):
        cloud = PointCloud(np.zeros((4, 3)), names * 2)
        save_ply(cloud, tmp_path / "c.ply")
        assert load_ply(tmp_path / "c.ply").labels.tolist() == names * 2

    @pytest.mark.parametrize("name", ["", "a  b", "line\nbreak", " lead", "tab\tbed"], ids=repr)
    def test_refuses_a_label_that_would_not_read_back(self, tmp_path, name):
        cloud = PointCloud(np.zeros((2, 3)), ["ok", name])
        with pytest.raises(TogError, match=re.escape(repr(name))):
            save_ply(cloud, tmp_path / "c.ply")
        assert not (tmp_path / "c.ply").exists()

    def test_round_trip_unlabeled(self, tmp_path):
        cloud = PointCloud([[0.001, -0.5, 2.25], [1e-6, 0, 3]])
        path = tmp_path / "c.ply"
        save_ply(cloud, path)
        back = load_ply(path)
        assert back.labels is None
        assert np.allclose(back.points, cloud.points, atol=1e-9)

    def test_header_declares_label_names(self, tmp_path, labeled_cloud):
        path = tmp_path / "c.ply"
        save_ply(labeled_cloud, path)
        text = path.read_text()
        assert "comment label 0 body.outside" in text
        assert "comment label 1 handle" in text
        assert "property int label" in text

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("not a ply\n1 2 3\n")
        with pytest.raises(CloudParseError):
            load_ply(path)

    def test_rejects_truncated_body(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(CloudParseError, match="vertex rows"):
            load_ply(path)

    def test_rejects_undeclared_label_id(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment label 0 body\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property int label\nend_header\n0 0 0 7\n"
        )
        with pytest.raises(CloudParseError, match="label ids"):
            load_ply(path)

    def test_rejects_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 nan 1\n"
        )
        with pytest.raises(CloudParseError, match="finite"):
            load_cloud(path)

    def test_rejects_binary_format(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n"
        )
        with pytest.raises(CloudParseError, match="ascii"):
            load_ply(path)


class TestJson:
    def test_round_trip(self, tmp_path, labeled_cloud):
        path = tmp_path / "c.json"
        save_json(labeled_cloud, path)
        back = load_json(path)
        assert np.allclose(back.points, labeled_cloud.points, atol=1e-15)
        assert back.labels.tolist() == labeled_cloud.labels.tolist()

    def test_dict_round_trip_unlabeled(self):
        cloud = PointCloud([[1, 2, 3]])
        d = cloud_to_dict(cloud)
        assert "labels" not in d
        back = cloud_from_dict(d)
        assert np.allclose(back.points, cloud.points)

    def test_rejects_missing_points(self):
        with pytest.raises(CloudParseError):
            cloud_from_dict({"labels": ["a"]})

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(CloudParseError):
            load_json(path)

    def test_rejects_mismatched_labels(self):
        with pytest.raises(CloudParseError):
            cloud_from_dict({"points": [[0, 0, 0]], "labels": ["a", "b"]})


class TestDispatch:
    def test_by_suffix(self, tmp_path, labeled_cloud):
        for name in ("c.ply", "c.json"):
            path = tmp_path / name
            save_cloud(labeled_cloud, path)
            back = load_cloud(path)
            assert len(back) == len(labeled_cloud)

    def test_unknown_suffix(self, tmp_path):
        with pytest.raises(CloudParseError):
            load_cloud(tmp_path / "c.xyz")
        with pytest.raises(CloudParseError):
            save_cloud(PointCloud([[0, 0, 0]]), tmp_path / "c.xyz")


XYZ = "property float x\nproperty float y\nproperty float z\n"


class TestMalformed:
    def test_zero_vertex_ply_is_an_empty_cloud(self, tmp_path):
        empty = PointCloud(np.zeros((0, 3)), [])
        for name in ("c.ply", "c.json"):
            save_cloud(empty, tmp_path / name)
            back = load_cloud(tmp_path / name)
            assert back.points.shape == (0, 3)
            assert back.labels.tolist() == []
        path = tmp_path / "bare.ply"
        path.write_text(f"ply\nformat ascii 1.0\nelement vertex 0\n{XYZ}end_header\n")
        assert len(load_ply(path)) == 0

    @pytest.mark.parametrize(
        "header",
        [
            "ply\nformat\nelement vertex 1\n",
            "ply\nelement\n",
            "ply\nelement vertex\n",
            "ply\nelement vertex abc\n",
            "ply\nelement vertex -1\n",
            "ply\ncomment label x mug\nelement vertex 1\n",
        ],
    )
    def test_bad_header_fields_are_parse_errors(self, tmp_path, header):
        path = tmp_path / "c.ply"
        path.write_text(header + XYZ + "end_header\n0 0 0\n")
        with pytest.raises(CloudParseError):
            load_ply(path)

    @pytest.mark.parametrize(
        "value, shown",
        [("0.5", "0.5"), ("1.7", "1.7"), ("-0.25", "-0.25"), ("nan", "nan"),
         ("inf", "inf"), ("-inf", "-inf"), ("1e30", "1e+30"), ("-1e30", "-1e+30")],
    )
    def test_label_that_is_not_an_integer_id_is_a_parse_error(self, tmp_path, value, shown):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment label 0 body\ncomment label 1 handle\n"
            f"element vertex 2\n{XYZ}property int label\nend_header\n0 0 0 1\n1 1 1 {value}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning on the way to the error
            with pytest.raises(CloudParseError, match=f"label value {re.escape(shown)} "):
                load_ply(path)

    def test_whole_number_float_labels_are_ids(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment label 0 body\ncomment label 1 handle\n"
            f"element vertex 2\n{XYZ}property float label\nend_header\n0 0 0 1.0\n1 1 1 0e0\n"
        )
        assert load_ply(path).labels.tolist() == ["handle", "body"]

    @pytest.mark.parametrize("repeated", ["x", "z", "label"])
    def test_repeated_vertex_property_is_a_parse_error(self, tmp_path, repeated):
        path = tmp_path / "c.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment label 0 body\nelement vertex 1\n"
            f"{XYZ}property int label\nproperty float {repeated}\nend_header\n0 0 0 0 5\n"
        )
        with pytest.raises(CloudParseError, match=f"property {repeated} declared twice"):
            load_ply(path)

    def test_second_vertex_element_is_a_parse_error(self, tmp_path):
        # the second block's rows would otherwise be read as the vertices
        path = tmp_path / "c.ply"
        path.write_text(
            f"ply\nformat ascii 1.0\nelement vertex 1\n{XYZ}element face 1\n"
            "property list uchar int vertex_indices\nelement vertex 1\nend_header\n"
            "0 0 0\n3 0 0 0\n"
        )
        with pytest.raises(CloudParseError, match="element vertex declared twice"):
            load_ply(path)

    @pytest.mark.parametrize("name", ["c.ply", "c.json"])
    def test_non_utf8_bytes_are_parse_errors(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"ply\n\xff\xfe\n")
        with pytest.raises(CloudParseError):
            load_cloud(path)

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(CloudParseError):
            load_cloud(tmp_path / "absent.ply")


# header and body lines that parsers trip over, mixed into byte strings
PLY_LINES = [
    "ply", "format ascii 1.0", "format", "format binary_little_endian 1.0",
    "comment label 0 handle", "comment label x mug", "comment label -1 a b",
    "element vertex 0", "element vertex 2", "element vertex", "element vertex abc",
    "element face 3", "element", "property float x", "property float y",
    "property float z", "property int label", "property", "end_header",
    "0 0 0", "1 2 3 0", "nan 1 2", "1e999 0 0", "0.5 -1 2 7", "", "1 2",
]
JSON_TEXTS = [
    '{"points": []}', '{"points": [], "labels": []}', '{"points": [[1, 2, 3]]}',
    '{"points": [[1, 2, 3]], "labels": ["a"]}', '{"points": {"a": 1}}',
    '{"points": [[1e999, 0, 0]]}', '{"points": [[1, 2, "x"]]}', '{"points": [1, 2]}',
    '{"points": [[%s, 0, 0]]}' % ("9" * 400), '{"points": [[1, 2, 3]], "labels": 5}',
    '{"points": [[1, 2, 3]], "labels": [[1], 2]}', '[1, 2, 3]', '"points"', "[" * 5000,
]
PLY_BYTES = st.lists(st.sampled_from(PLY_LINES)).map(lambda ls: "\n".join(ls).encode())
CLOUD_BYTES = st.one_of(
    st.binary(max_size=300),
    PLY_BYTES,
    st.sampled_from(JSON_TEXTS).map(str.encode),
    st.tuples(PLY_BYTES, st.binary(max_size=20)).map(b"".join),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("cloud_bytes")


@settings(max_examples=300, deadline=None)
@given(data=CLOUD_BYTES, suffix=st.sampled_from([".ply", ".json"]))
def test_any_bytes_load_or_raise_tog_error(scratch, data, suffix):
    path = scratch / f"cloud{suffix}"
    path.write_bytes(data)
    try:
        cloud = load_cloud(path)
    except TogError:
        return
    assert cloud.points.ndim == 2 and cloud.points.shape[1] == 3
