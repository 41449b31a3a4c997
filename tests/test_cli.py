"""Command-line interface tests: subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from tog.bench import desk_pose, generate_object
from tog.cli import main
from tog.cloud_io import load_ply, save_json
from tog.geometry import apply_transform
from tog.ontology import FixtureChatClient, Instruction, default_graph, render_prompt

POUR = "Pour the water out of the mug."


def canned(part_title: str) -> str:
    return (
        "Step 1: the task constrains which part the robot may hold.\n"
        f"Conclusion: The robot should grasp the {part_title}.\n"
    )


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Database, scene file, and chat fixtures shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    db = root / "db"
    code = main(["db", "build", "--out", str(db), "--synthetic", "mug=2"])
    assert code == 0

    scene = apply_transform(
        generate_object("mug", 1200, np.random.default_rng(4)),
        desk_pose(np.random.default_rng(5)),
    )
    scene_path = root / "scene.json"
    save_json(scene, scene_path)

    labeled_path = root / "mug-custom.json"
    save_json(generate_object("mug", 3000, np.random.default_rng(6)), labeled_path)

    chat = root / "chat"
    client = FixtureChatClient(chat)
    graph = default_graph()
    client.record(
        render_prompt(graph, Instruction(POUR), False), canned("Handle of the Mug")
    )
    return {
        "db": str(db),
        "scene": str(scene_path),
        "labeled": str(labeled_path),
        "chat": str(chat),
        "root": root,
    }


def run_json(capsys, argv, expect=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect, captured.err or captured.out
    return json.loads(captured.out) if captured.out.strip() else None


def run_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    return json.loads(captured.err)["error"]


class TestDb:
    def test_build_and_inspect(self, ws, capsys):
        payload = run_json(capsys, ["db", "inspect", "--db", ws["db"]])
        assert payload["schema_version"] == 1
        ids = [t["id"] for t in payload["templates"]]
        assert ids == ["mug-0", "mug-1"]
        first = payload["templates"][0]
        assert first["parts"]["handle"] > 0
        assert first["grasps"]["handle"] > 0

    def test_build_from_labeled_cloud(self, ws, capsys, tmp_path):
        out = tmp_path / "db2"
        payload = run_json(
            capsys,
            ["db", "build", "--out", str(out), "--labeled",
             f"mug={ws['labeled']}"],
        )
        assert payload["templates"] == ["mug-custom"]
        assert (out / "mug-custom.template.json").exists()
        assert (out / "db.json").exists()

    def test_build_requires_inputs(self, capsys, tmp_path):
        err = run_error(capsys, ["db", "build", "--out", str(tmp_path / "x")])
        assert err["code"] == "spec"

    def test_bad_pair_syntax(self, capsys, tmp_path):
        err = run_error(
            capsys,
            ["db", "build", "--out", str(tmp_path / "x"), "--synthetic", "mug3"],
        )
        assert err["code"] == "spec"

    def test_synthetic_count_not_a_number(self, capsys, tmp_path):
        err = run_error(
            capsys,
            ["db", "build", "--out", str(tmp_path / "x"), "--synthetic", "mug=x"],
        )
        assert err["code"] == "spec"

    def test_inspect_missing_db(self, capsys, tmp_path):
        err = run_error(capsys, ["db", "inspect", "--db", str(tmp_path / "void")])
        assert err["code"] == "schema"


class TestOntologyCli:
    def test_resolve(self, ws, capsys):
        argv = ["ontology", "resolve", "--fixtures", ws["chat"], "--text", POUR]
        payload = run_json(capsys, argv)
        assert payload["object_class"] == "mug"
        assert payload["part_path"] == "handle"
        assert payload["mapped_from"] is None

    def test_resolve_deterministic(self, ws, capsys):
        argv = ["ontology", "resolve", "--fixtures", ws["chat"], "--text", POUR]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_resolve_unknown_class(self, ws, capsys):
        err = run_error(
            capsys,
            ["ontology", "resolve", "--fixtures", ws["chat"], "--text",
             "Hand me the wrench."],
        )
        assert err["code"] == "unresolved-part"

    def test_optimize_scripted(self, ws, capsys, tmp_path):
        client = FixtureChatClient(ws["chat"])
        seed = "Name the part to grasp."
        answer = "The handle, always."
        client.record(seed, answer)
        client.record("Name the part to grasp. Be terse.", "Handle.")
        improver = "\n".join(
            [
                "You are improving a prompt for a robot-grasping assistant.",
                "Current prompt:",
                seed,
                "The answer it produced:",
                answer,
                "Feedback on that answer:",
                "Too chatty; demand a terse answer.",
                "Rewrite the prompt to fix the issue. Reply with the full new "
                'prompt after a line reading "Revised Prompt:".',
            ]
        )
        client.record(improver, "Revised Prompt:\nName the part to grasp. Be terse.")
        transcript = tmp_path / "transcript.json"
        code = main(
            ["ontology", "optimize", "--fixtures", ws["chat"], "--prompt", seed,
             "--feedback", "Too chatty; demand a terse answer.",
             "--transcript-out", str(transcript)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "Name the part to grasp. Be terse."
        rounds = json.loads(transcript.read_text())["rounds"]
        assert [r["round"] for r in rounds] == [1, 2]

    def test_optimize_needs_prompt(self, ws, capsys):
        err = run_error(capsys, ["ontology", "optimize", "--fixtures", ws["chat"]])
        assert err["code"] == "spec"


class TestRecognizeRegister:
    def test_recognize_and_cluster_file(self, ws, capsys, tmp_path):
        cluster_path = tmp_path / "cluster.ply"
        payload = run_json(
            capsys,
            ["recognize", "--db", ws["db"], "--scene", ws["scene"],
             "--part", "handle", "--save-cluster", str(cluster_path)],
        )
        assert payload["schema_version"] == 1
        assert payload["part_path"] == "handle"
        assert len(payload["members"]) > 0
        cluster = load_ply(cluster_path)
        marked = np.flatnonzero(np.asarray(cluster.labels) == "cluster")
        assert marked.tolist() == sorted(payload["members"])

    def test_register_single_template(self, ws, capsys):
        payload = run_json(
            capsys,
            ["register", "--db", ws["db"], "--scene", ws["scene"],
             "--part", "handle", "--template", "mug-0"],
        )
        reg = payload["registrations"]["mug-0"]
        assert payload["winning_template"] == "mug-0"
        assert 0.0 <= reg["fitness"] <= 1.0
        assert np.asarray(reg["t_total"]).shape == (4, 4)

    def test_register_unknown_template(self, ws, capsys):
        err = run_error(
            capsys,
            ["register", "--db", ws["db"], "--scene", ws["scene"],
             "--part", "handle", "--template", "mug-9"],
        )
        assert err["code"] == "spec"

    def test_recognize_no_part_carrier(self, ws, capsys):
        err = run_error(
            capsys,
            ["recognize", "--db", ws["db"], "--scene", ws["scene"],
             "--part", "spout"],
        )
        assert err["code"] == "spec"


class TestPlanCli:
    def test_select_returns_single_grasp(self, ws, capsys):
        payload = run_json(
            capsys,
            ["plan", "--db", ws["db"], "--fixtures", ws["chat"],
             "--instruction", POUR, "--scene", ws["scene"], "--select",
             "--no-timings"],
        )
        assert len(payload["grasps"]) == 1
        assert payload["resolved"]["part_path"] == "handle"
        assert "timings" not in payload

    def test_byte_identical_reruns(self, ws, capsys):
        argv = ["plan", "--db", ws["db"], "--fixtures", ws["chat"],
                "--instruction", POUR, "--scene", ws["scene"], "--no-timings"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_unresolved_instruction_exit_2(self, ws, capsys):
        err = run_error(
            capsys,
            ["plan", "--db", ws["db"], "--fixtures", ws["chat"],
             "--instruction", "Hand me the wrench.", "--scene", ws["scene"]],
        )
        assert err["code"] == "unresolved-part"
        assert err["stage"] == "resolve"

    def test_missing_db_flag(self, ws, capsys, monkeypatch):
        monkeypatch.delenv("TOG_DB", raising=False)
        err = run_error(
            capsys,
            ["plan", "--fixtures", ws["chat"], "--instruction", POUR,
             "--scene", ws["scene"]],
        )
        assert err["code"] == "spec"


class TestExportCli:
    def test_writes_snapshots(self, ws, capsys, tmp_path):
        out = tmp_path / "snaps"
        payload = run_json(
            capsys,
            ["export", "--db", ws["db"], "--fixtures", ws["chat"],
             "--instruction", POUR, "--scene", ws["scene"], "--out", str(out)],
        )
        assert [p.split("/")[-1] for p in payload["written"]] == [
            "scene.ply", "cluster.ply", "overlay.ply", "grasps.ply",
        ]
        assert payload["grasp_count"] > 0


class TestCallersAgree:
    def test_register_and_recognize_match_plan_and_export(self, ws, capsys, tmp_path):
        seed = ["--rng-seed", "2"]
        scene = ["--db", ws["db"], "--scene", ws["scene"]]
        pipeline = [*scene, *seed, "--fixtures", ws["chat"], "--instruction", POUR]
        registered = run_json(
            capsys, ["register", *scene, *seed, "--part", "handle", "--class", "mug"]
        )
        planned = run_json(capsys, ["plan", *pipeline, "--no-timings"])
        assert registered["registrations"] == planned["registrations"]

        cluster_path = tmp_path / "cluster.ply"
        run_json(
            capsys,
            ["recognize", *scene, "--part", "handle", "--class", "mug",
             "--save-cluster", str(cluster_path)],
        )
        run_json(capsys, ["export", *pipeline, "--out", str(tmp_path / "snaps")])
        exported = (tmp_path / "snaps" / "cluster.ply").read_bytes()
        assert cluster_path.read_bytes() == exported


class TestBenchCli:
    def test_run_with_conditions_file(self, ws, capsys, tmp_path):
        conditions = {
            "conditions": [
                {
                    "name": "quick",
                    "object_class": "mug",
                    "part_path": "handle",
                    "partial": False,
                    "n_points": 700,
                    "template_ids": ["mug-0"],
                }
            ]
        }
        cond_path = tmp_path / "conditions.json"
        cond_path.write_text(json.dumps(conditions))
        out_path = tmp_path / "report.json"
        payload = run_json(
            capsys,
            ["bench", "run", "--db", ws["db"], "--conditions", str(cond_path),
             "--trials", "2", "--out", str(out_path)],
        )
        assert payload["schema_version"] == 1
        assert set(payload["conditions"]) == {"quick"}
        assert len(payload["trials"]) == 2
        assert json.loads(out_path.read_text()) == payload

    def test_bad_conditions_file(self, ws, capsys, tmp_path):
        cond_path = tmp_path / "conditions.json"
        cond_path.write_text(json.dumps({"conditions": [{"name": "x"}]}))
        err = run_error(
            capsys,
            ["bench", "run", "--db", ws["db"], "--conditions", str(cond_path)],
        )
        assert err["code"] == "spec"


class TestPrecedence:
    def test_config_file_supplies_db(self, ws, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("TOG_DB", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"db": ws["db"]}))
        payload = run_json(
            capsys, ["db", "inspect", "--config", str(config)]
        )
        assert len(payload["templates"]) == 2

    def test_env_beats_config(self, ws, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"db": ws["db"]}))
        monkeypatch.setenv("TOG_DB", str(tmp_path / "missing"))
        err = run_error(capsys, ["db", "inspect", "--config", str(config)])
        assert err["code"] == "schema"

    def test_flag_beats_env(self, ws, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TOG_DB", str(tmp_path / "missing"))
        payload = run_json(capsys, ["db", "inspect", "--db", ws["db"]])
        assert len(payload["templates"]) == 2

    def test_bad_gripper_config(self, ws, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"db": ws["db"], "gripper": {"max_opening": -1.0}})
        )
        err = run_error(capsys, ["db", "inspect", "--config", str(config)])
        assert err["code"] == "spec"

    def test_bad_config_file(self, ws, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        err = run_error(capsys, ["db", "inspect", "--config", str(config)])
        assert err["code"] == "spec"
