"""End-to-end pipeline orchestration and PLY export tests."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from tog.bench import build_class_templates, desk_pose, generate_object
from tog.cloud_io import load_ply, save_json
from tog.errors import (
    CloudParseError,
    CoarseFailureError,
    SceneSpecError,
    TogError,
    UnresolvedPartError,
)
from tog.geometry import apply_transform
from tog.ontology import (
    FixtureChatClient,
    Instruction,
    default_graph,
    render_prompt,
)
from tog.pipeline import (
    PipelineConfig,
    PipelineResult,
    export_artifacts,
    register_all,
    run_pipeline,
    select_templates,
)
from tog.recognition import recognize
from tog.registration import register
from tog.templates import GripperConfig, build_template, load_db, save_db

POUR = "Pour the water out of the mug."
SHAKE = "Shake the bottle before I drink it."


def canned(part_title: str) -> str:
    return (
        "Step 1: the task constrains which part the robot may hold.\n"
        f"Conclusion: The robot should grasp the {part_title}.\n"
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    templates = build_class_templates("mug", count=2, rng_seed=0, n_points=4000)
    db_dir = root / "db"
    save_db(templates.values(), db_dir)

    scene = apply_transform(
        generate_object("mug", 1200, np.random.default_rng(4)),
        desk_pose(np.random.default_rng(5)),
    )
    scene_path = root / "scene.json"
    save_json(scene, scene_path)

    graph = default_graph()
    chat_dir = root / "chat"
    client = FixtureChatClient(chat_dir)
    client.record(
        render_prompt(graph, Instruction(POUR), False),
        canned("Handle of the Mug"),
    )
    client.record(
        render_prompt(graph, Instruction(SHAKE), False),
        canned("Body of the Bottle"),
    )
    return {
        "db": str(db_dir),
        "scene": str(scene_path),
        "client": client,
        "scene_cloud": scene,
    }


class TestConfig:
    def test_validation(self):
        mug = generate_object("mug", 500, np.random.default_rng(0))
        with pytest.raises(SceneSpecError):
            build_template(mug, "mug", leaf=0)
        with pytest.raises(SceneSpecError):
            PipelineConfig(db_path="x", template_cap=0)
        with pytest.raises(SceneSpecError):
            PipelineConfig(db_path="x", rng_seed=-1)


class TestRunPipeline:
    def test_happy_path_report(self, workspace):
        config = PipelineConfig(db_path=workspace["db"])
        result = run_pipeline(
            config, POUR, workspace["scene"], workspace["client"]
        )
        assert result.resolved.object_class == "mug"
        assert result.resolved.part_path == "handle"
        assert result.winning_template in result.registrations
        assert result.candidates
        report = result.report
        assert report["schema_version"] == 1
        assert report["resolved"]["part_path"] == "handle"
        assert report["winning_template"] == result.winning_template
        assert len(report["grasps"]) == len(result.candidates)
        for g in report["grasps"]:
            assert np.asarray(g["pose"]).shape == (4, 4)
            assert g["width"] > 0
        assert set(report["timings"]) == {
            "resolve_seconds",
            "recognize_seconds",
            "register_seconds",
            "plan_seconds",
            "total_seconds",
        }

    def test_timings_can_be_omitted(self, workspace):
        config = PipelineConfig(db_path=workspace["db"])
        result = run_pipeline(
            config, POUR, workspace["scene"], workspace["client"],
            include_timings=False,
        )
        assert "timings" not in result.report

    def test_deterministic_reports(self, workspace):
        config = PipelineConfig(db_path=workspace["db"])
        payloads = [
            json.dumps(
                run_pipeline(
                    config, POUR, workspace["scene"], workspace["client"],
                    include_timings=False,
                ).report,
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert payloads[0] == payloads[1]

    def test_resolve_failure_tagged(self, workspace):
        config = PipelineConfig(db_path=workspace["db"])
        with pytest.raises(UnresolvedPartError) as info:
            run_pipeline(
                config, "Hand me the wrench.", workspace["scene"],
                workspace["client"],
            )
        assert info.value.stage == "resolve"
        assert str(info.value).startswith("[resolve] ")

    def test_setup_failure_tagged(self, workspace, tmp_path):
        config = PipelineConfig(db_path=workspace["db"])
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        with pytest.raises(CloudParseError) as info:
            run_pipeline(config, POUR, bad, workspace["client"])
        assert info.value.stage == "setup"

    def test_missing_class_tagged(self, workspace):
        config = PipelineConfig(db_path=workspace["db"])
        with pytest.raises(SceneSpecError) as info:
            run_pipeline(
                config, SHAKE, workspace["scene"], workspace["client"]
            )
        assert info.value.stage == "recognize"
        assert str(info.value).startswith("[recognize] ")

    def test_blocked_gripper_strict_vs_tolerant(self, workspace):
        # jaws this deep collide with the mug body for every candidate
        blocked = GripperConfig(
            max_opening=0.08,
            jaw_depth=0.6,
            finger_thickness=0.2,
            closure_height=0.6,
            stick_radius=0.004,
        )
        config = PipelineConfig(db_path=workspace["db"], gripper=blocked)
        with pytest.raises(TogError) as info:
            run_pipeline(config, POUR, workspace["scene"], workspace["client"])
        assert info.value.stage == "plan"
        result = run_pipeline(
            config, POUR, workspace["scene"], workspace["client"], strict=False
        )
        assert result.candidates == []
        assert result.report["grasps"] == []
        assert result.winning_template is not None


class TestStages:
    def test_select_templates(self, workspace):
        db = load_db(workspace["db"])
        assert list(select_templates(db, "mug", "handle")) == ["mug-0", "mug-1"]
        assert list(select_templates(db, None, "handle", cap=1)) == ["mug-0"]
        with pytest.raises(SceneSpecError, match="of class 'bottle'"):
            select_templates(db, "bottle", "handle")
        with pytest.raises(SceneSpecError, match="with part 'cap'"):
            select_templates(db, None, "cap")

    def test_register_all_seeds_and_captures_errors(self, monkeypatch):
        seeds = []

        def fake_register(scene, recognition, template, leaf, seed):
            seeds.append(seed)
            if template.name == "bad":
                raise CoarseFailureError("no hypothesis", stage="coarse")
            return template.name

        monkeypatch.setattr("tog.pipeline.register", fake_register)
        ok = SimpleNamespace(name="ok", leaf=0.005)
        bad = SimpleNamespace(name="bad", leaf=0.005)
        templates = {"a": ok, "b": bad, "c": ok}
        registrations, errors = register_all(None, None, templates, 7)
        assert seeds == [7000, 7001, 7002]
        assert registrations == {"a": "ok", "c": "ok"}
        assert errors == {"b": "coarse-failure: [coarse] no hypothesis"}
        with pytest.raises(SceneSpecError, match="every template registration failed"):
            register_all(None, None, {"b": bad}, 0)
        assert register_all(None, None, {"b": bad}, 0, strict=False)[0] == {}

    def test_register_all_registers_each_template_at_its_own_leaf(
        self, workspace, monkeypatch
    ):
        fine = load_db(workspace["db"])["mug-0"]
        coarse = build_class_templates("mug", count=1, leaf=0.006, n_points=4000)
        bank = {"fine": fine, "coarse": coarse["mug-0"]}
        scene = workspace["scene_cloud"]
        recognition = recognize(scene, list(bank.values()), "handle")
        calls = []

        def spy(scene, recognition, template, leaf, seed):
            calls.append((template.leaf, leaf))
            return register(scene, recognition, template, leaf=leaf, seed=seed)

        monkeypatch.setattr("tog.pipeline.register", spy)
        registrations, errors = register_all(scene, recognition, bank, 0)
        assert calls == [(0.005, 0.005), (0.006, 0.006)]
        assert list(registrations) == ["fine", "coarse"] and errors == {}


class TestExport:
    def test_full_artifact_set(self, workspace, tmp_path):
        config = PipelineConfig(db_path=workspace["db"])
        result = run_pipeline(
            config, POUR, workspace["scene"], workspace["client"]
        )
        written = export_artifacts(result, tmp_path / "snaps")
        names = [p.name for p in written]
        assert names == ["scene.ply", "cluster.ply", "overlay.ply", "grasps.ply"]

        scene_back = load_ply(tmp_path / "snaps" / "scene.ply")
        assert np.allclose(
            scene_back.points, workspace["scene_cloud"].points, atol=1e-6
        )

        cluster = load_ply(tmp_path / "snaps" / "cluster.ply")
        got = np.flatnonzero(np.asarray(cluster.labels) == "cluster")
        assert np.array_equal(got, np.sort(result.recognition.members))

        overlay = load_ply(tmp_path / "snaps" / "overlay.ply")
        template = result.templates[result.winning_template]
        assert len(overlay) == len(result.scene) + len(template.full_cloud)

        grasps = load_ply(tmp_path / "snaps" / "grasps.ply")
        per_grasp = 1 + 3 * 8
        assert len(grasps) == per_grasp * len(result.candidates)
        assert "grasp-0-x" in set(grasps.labels)

    def test_no_registration_writes_scene_and_cluster_only(
        self, workspace, tmp_path
    ):
        config = PipelineConfig(db_path=workspace["db"])
        full = run_pipeline(
            config, POUR, workspace["scene"], workspace["client"]
        )
        bare = PipelineResult(
            resolved=full.resolved,
            recognition=full.recognition,
            registrations={},
            winning_template=None,
            candidates=[],
            scene=full.scene,
            templates=full.templates,
            report={},
        )
        written = export_artifacts(bare, tmp_path / "bare")
        assert [p.name for p in written] == ["scene.ply", "cluster.ply"]
