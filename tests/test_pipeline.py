"""End-to-end pipeline orchestration and PLY export tests."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

import oracles
from tog.bench import (
    Condition,
    build_class_templates,
    desk_pose,
    generate_object,
    make_scene,
)
from tog.cloud_io import load_ply, save_json
from tog.errors import (
    CloudParseError,
    CoarseFailureError,
    RegistrationFailureError,
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
    registration_payload,
    run_pipeline,
    select_templates,
    skipped_templates,
)
from tog.planning import plan
from tog.recognition import recognize
from tog.registration import register_local
from tog.templates import (
    GripperConfig,
    _template_from_text,
    build_template,
    load_db,
    save_db,
)

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
        with pytest.raises(SceneSpecError, match="gripper must be a GripperConfig, got None"):
            PipelineConfig(db_path="x", gripper=None)


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
            "setup_seconds",
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


    def test_template_without_the_part_is_left_out(self, workspace, tmp_path):
        mug = generate_object("mug", 4000, np.random.default_rng(7))
        body = mug.select(np.flatnonzero(mug.labels != "handle"))
        bank = {"mug-body": build_template(body, "mug", template_id="mug-body")}
        bank.update(load_db(workspace["db"]))
        save_db(bank.values(), tmp_path / "db")
        db = load_db(tmp_path / "db")
        config = PipelineConfig(db_path=str(tmp_path / "db"))
        result = run_pipeline(config, POUR, workspace["scene"], workspace["client"])
        assert list(result.registrations) == ["mug-0", "mug-1"]
        assert result.candidates
        assert list(db) == ["mug-0", "mug-1", "mug-body"]
        assert list(select_templates(db, "mug", "handle")) == ["mug-0", "mug-1"]
        assert list(select_templates(db, "mug", "body")) == list(db)


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

        def fake_register(scene, recognition, template, seed):
            seeds.append(seed)
            if template.name == "bad":
                raise CoarseFailureError("no hypothesis", stage="coarse")
            return SimpleNamespace(name=template.name, fitness=template.fitness)

        monkeypatch.setattr("tog.pipeline.register", fake_register)
        low = SimpleNamespace(name="low", leaf=0.005, fitness=0.7)
        ok = SimpleNamespace(name="ok", leaf=0.005, fitness=0.9)
        perfect = SimpleNamespace(name="perfect", leaf=0.005, fitness=1.0)
        bad = SimpleNamespace(name="bad", leaf=0.005)
        templates = {"a": ok, "b": bad, "c": ok}
        registrations, errors, winner = register_all(None, None, templates, 7)
        assert seeds == [7000, 7001, 7002]
        assert {tid: r.name for tid, r in registrations.items()} == {"a": "ok", "c": "ok"}
        assert errors == {"b": "coarse-failure: [coarse] no hypothesis"}
        assert skipped_templates(templates, registrations, errors) == []
        assert winner == "a"  # an equal fitness keeps the first template

        # a later, strictly higher fitness replaces the winner; a tie after it does not
        registrations, errors, winner = register_all(
            None, None, {"a": low, "b": ok, "c": ok}, 0
        )
        assert list(registrations) == ["a", "b", "c"] and winner == "b"

        # a perfect fit in the middle wins and ends the loop; the error before it stays
        seeds.clear()
        templates = {"a": bad, "b": ok, "c": perfect, "d": ok, "e": bad}
        registrations, errors, winner = register_all(None, None, templates, 3)
        assert seeds == [3000, 3001, 3002]
        assert list(registrations) == ["b", "c"] and winner == "c"
        assert errors == {"a": "coarse-failure: [coarse] no hypothesis"}
        assert skipped_templates(templates, registrations, errors) == ["d", "e"]

        with pytest.raises(RegistrationFailureError, match="every template registration failed"):
            register_all(None, None, {"b": bad}, 0)
        assert register_all(None, None, {"b": bad}, 0, strict=False) == (
            {}, {"b": "coarse-failure: [coarse] no hypothesis"}, None
        )

    def test_register_all_registers_each_template_at_its_own_leaf(
        self, workspace, monkeypatch
    ):
        fine = load_db(workspace["db"])["mug-0"]
        coarse = build_class_templates("mug", count=1, leaf=0.006, n_points=4000)
        # coarse first: it falls short of a perfect fit here, so fine registers too
        bank = {"coarse": coarse["mug-0"], "fine": fine}
        scene = workspace["scene_cloud"]
        recognition = recognize(scene, list(bank.values()), "handle")
        calls = []

        def spy(o_part, m_part, leaf, seed):
            calls.append(leaf)
            return register_local(o_part, m_part, leaf, seed=seed)

        monkeypatch.setattr("tog.registration.register_local", spy)
        registrations, errors, _winner = register_all(scene, recognition, bank, 0)
        assert registrations["coarse"].fitness < 1.0
        assert calls == [0.006, 0.005]
        assert list(registrations) == ["coarse", "fine"] and errors == {}


def payload_text(reg) -> str:
    """A registration's JSON form as text: equal text means equal bits."""
    return json.dumps(registration_payload(reg))


def grasp_bytes(candidate) -> tuple:
    """Every field of a grasp, arrays as raw bytes, for a bitwise comparison."""
    return (
        candidate.pose.matrix.tobytes(),
        candidate.width,
        candidate.template_id,
        candidate.part_path,
        candidate.source_index,
        candidate.adjustment.tobytes(),
        candidate.stick_ok_initially,
    )


# (object class, part, points, partial view, scene index, the templates
# register_all never tries); the scenes are the perfbench seed-1 recipe's
STOP_CASES = {
    # bottle-0 fits every point of a full bottle: the other two are skipped
    "bottle-first-fits": ("bottle", "body", 2000, False, 0, ["bottle-1", "bottle-2"]),
    # fitness [0.894, 1.0, 0.882]: the perfect middle template ends the loop
    "mug-middle-fits": ("mug", "handle", 1500, True, 0, ["mug-2"]),
    # fitness [0.868, 0.849, 0.928]: every template registers
    "mug-none-fits": ("mug", "handle", 1500, True, 4, []),
    # mug-1 fails and no template fits every point: the error is kept
    "mug-error-none-fits": ("mug", "handle", 1500, True, 10, []),
}
WORKLOAD_INDEX = {"mug": 0, "bottle": 2}
INSTRUCTIONS = {"mug": POUR, "bottle": SHAKE}


@pytest.fixture(scope="module")
def stop_workspace(tmp_path_factory):
    """A three-template database per class and a chat fixture for each."""
    root = tmp_path_factory.mktemp("stop")
    dbs = {}
    for object_class in ("mug", "bottle"):
        dbs[object_class] = str(root / f"db-{object_class}")
        save_db(build_class_templates(object_class, count=3).values(), dbs[object_class])
    graph = default_graph()
    client = FixtureChatClient(root / "chat")
    client.record(render_prompt(graph, Instruction(POUR), False), canned("Handle of the Mug"))
    client.record(render_prompt(graph, Instruction(SHAKE), False), canned("Body of the Bottle"))
    return {"root": root, "dbs": dbs, "client": client}


class TestRegistrationStop:
    @pytest.mark.parametrize("case", list(STOP_CASES))
    def test_pipeline_matches_registering_every_template(self, stop_workspace, case):
        object_class, part, n_points, partial, index, skipped = STOP_CASES[case]
        condition = Condition(
            name=case, object_class=object_class, part_path=part,
            n_points=n_points, partial=partial,
        )
        rng = default_rng(SeedSequence((1, WORKLOAD_INDEX[object_class], index)))
        scene_path = stop_workspace["root"] / f"{case}.json"
        save_json(make_scene(condition, rng), scene_path)
        config = PipelineConfig(db_path=stop_workspace["dbs"][object_class])
        result = run_pipeline(
            config, INSTRUCTIONS[object_class], scene_path, stop_workspace["client"]
        )
        report = result.report

        registrations, errors = oracles.register_every_template(
            result.scene, result.recognition, result.templates, config.rng_seed
        )
        winner = oracles.best_registration(registrations)
        expected = plan(
            result.scene, result.recognition, result.templates[winner],
            registrations[winner].t_total, gripper=config.gripper,
        )
        assert result.winning_template == report["winning_template"] == winner
        assert json.dumps(report["registrations"][winner]) == payload_text(
            registrations[winner]
        )
        assert [grasp_bytes(c) for c in result.candidates] == [
            grasp_bytes(c) for c in expected
        ]

        # the templates before the stop ran as in the oracle; the rest did not
        tried = [tid for tid in result.templates if tid not in skipped]
        assert report["registrations_skipped"] == skipped
        assert list(result.registrations) == [tid for tid in tried if tid in registrations]
        for tid, reg in result.registrations.items():
            assert payload_text(reg) == payload_text(registrations[tid])
        assert report["registration_errors"] == {
            tid: errors[tid] for tid in tried if tid in errors
        }
        perfect = [
            tid for tid in tried if tid in registrations and registrations[tid].fitness == 1.0
        ]
        assert perfect == (tried[-1:] if skipped else [])


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


@pytest.fixture(scope="module")
def bottle_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("bottle")
    templates = build_class_templates("bottle", count=2, rng_seed=0, n_points=4000)
    save_db(templates.values(), root / "db")
    scene = apply_transform(
        generate_object("bottle", 2000, np.random.default_rng(6)),
        desk_pose(np.random.default_rng(7)),
    )
    save_json(scene, root / "scene.json")
    return {"db": str(root / "db"), "scene": str(root / "scene.json")}


def _report_text(db, instruction, scene, client) -> str:
    result = run_pipeline(
        PipelineConfig(db_path=db), instruction, scene, client, include_timings=False
    )
    return json.dumps(result.report, sort_keys=True)


class TestTemplateReuse:
    @pytest.mark.parametrize("object_class", ["mug", "bottle"])
    def test_cold_and_warm_reports_are_byte_identical(
        self, workspace, bottle_workspace, object_class
    ):
        ws = workspace if object_class == "mug" else bottle_workspace
        instruction = POUR if object_class == "mug" else SHAKE
        _template_from_text.cache_clear()
        cold = _report_text(ws["db"], instruction, ws["scene"], workspace["client"])
        assert _template_from_text.cache_info().hits == 0
        warm = _report_text(ws["db"], instruction, ws["scene"], workspace["client"])
        assert _template_from_text.cache_info().hits == 2
        assert warm == cold

    def test_cached_templates_hold_only_template_data(self, workspace, tmp_path):
        scenes = []
        for seed in range(3):
            scene = apply_transform(
                generate_object("mug", 1200, np.random.default_rng(20 + seed)),
                desk_pose(np.random.default_rng(30 + seed)),
            )
            scenes.append(tmp_path / f"scene-{seed}.json")
            save_json(scene, scenes[-1])
        _template_from_text.cache_clear()
        seen = []
        for path in [workspace["scene"], *scenes]:
            run_pipeline(
                PipelineConfig(db_path=workspace["db"]), POUR, path, workspace["client"],
                include_timings=False, strict=False,
            )
            seen.append({
                (tid, name): set(cloud._derived)
                for tid, t in load_db(workspace["db"]).items()
                for name, cloud in [("full", t.full_cloud), *t.parts.items()]
            })
        assert all(keys == seen[0] for keys in seen)
        keys = set().union(*seen[0].values())
        assert keys == {("fpfh", 0.025), "distance-field"}
        assert seen[0][("mug-0", "full")] == {"distance-field"}
        assert seen[0][("mug-0", "handle")] == {("fpfh", 0.025)}
