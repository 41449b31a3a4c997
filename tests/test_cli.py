"""Command-line interface tests: subcommands, exit codes, determinism."""

import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import urllib.error
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence, default_rng

from tog.bench import Condition, desk_pose, generate_object, make_scene
from tog.cli import main
from tog.cloud_io import load_ply, save_json
from tog.errors import SceneSpecError
from tog.geometry import apply_transform
from tog.ontology import FixtureChatClient, Instruction, default_graph, render_prompt
from tog.templates import build_template, load_db, save_db

POUR = "Pour the water out of the mug."
GRASP_BODY = "Grasp the bottle by its body."


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


def improver_prompt(current: str, answer: str, feedback: str) -> str:
    """The prompt `optimize_prompt` sends to ask for a revised prompt."""
    return "\n".join(
        [
            "You are improving a prompt for a robot-grasping assistant.",
            "Current prompt:",
            current,
            "The answer it produced:",
            answer,
            "Feedback on that answer:",
            feedback,
            "Rewrite the prompt to fix the issue. Reply with the full new "
            'prompt after a line reading "Revised Prompt:".',
        ]
    )


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
        assert not (tmp_path / "x").exists()

    def test_synthetic_count_not_a_number(self, capsys, tmp_path):
        err = run_error(
            capsys,
            ["db", "build", "--out", str(tmp_path / "x"), "--synthetic", "mug=x"],
        )
        assert err["code"] == "spec"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv", [["db", "build", "--out", "{out}"], ["bench", "run", "--trials", "1"]],
        ids=["db-build", "bench-run"],
    )
    def test_synthetic_count_zero_is_a_spec_error(self, capsys, tmp_path, argv):
        out = tmp_path / "x"
        argv = [arg.format(out=out) for arg in argv]
        err = run_error(capsys, [*argv, "--synthetic", "bottle=1", "--synthetic", "mug=0"])
        assert err["code"] == "spec"
        assert "at least 1, got 'mug=0'" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec,message",
        [("bottle=11", "at most 10 templates per class, got 'bottle=11'"),
         ("teapot=1", "no generator for object class 'teapot'")],
        ids=["count-above-limit", "class-without-generator"],
    )
    @pytest.mark.parametrize(
        "argv", [["db", "build", "--out", "{out}"],
                 ["bench", "run", "--trials", "1", "--out", "{out}"]],
        ids=["db-build", "bench-run"],
    )
    def test_synthetic_spec_checked_before_any_build(
        self, capsys, tmp_path, monkeypatch, argv, spec, message
    ):
        def build_class_templates(*args, **kwargs):
            raise AssertionError("a template was built")

        monkeypatch.setattr("tog.cli.build_class_templates", build_class_templates)
        out = tmp_path / "D"
        argv = [arg.format(out=out) for arg in argv]
        err = run_error(capsys, [*argv, "--synthetic", "mug=2", "--synthetic", spec])
        assert err["code"] == "spec"
        assert message in err["message"]
        assert not out.exists()

    def test_synthetic_limit_is_the_builders(self):
        from tog import bench

        assert bench.MAX_TEMPLATES_PER_CLASS == 10
        with pytest.raises(SceneSpecError, match="at most 10 templates per class"):
            bench.build_class_templates("mug", count=11)

    @pytest.mark.parametrize(
        "argv,repeated",
        [
            (["db", "build", "--out", "{out}", "--synthetic", "mug=2",
              "--synthetic", "mug=1"], "mug-0"),
            (["db", "build", "--out", "{out}", "--labeled", "mug={labeled}",
              "--labeled", "mug={labeled}"], "mug-custom"),
            (["db", "build", "--out", "{out}", "--labeled", "mug={mug0}",
              "--synthetic", "mug=1"], "mug-0"),
            (["bench", "run", "--out", "{out}", "--trials", "1", "--synthetic",
              "mug=1", "--synthetic", "mug=1"], "mug-0"),
        ],
        ids=["db-build-synthetic", "db-build-labeled", "db-build-mixed", "bench-run"],
    )
    def test_repeated_template_id_is_a_spec_error(
        self, ws, capsys, tmp_path, monkeypatch, argv, repeated
    ):
        built = []
        monkeypatch.setattr(
            "tog.cli.build_template", lambda *a, **kw: built.append(kw["template_id"])
        )
        monkeypatch.setattr(
            "tog.cli.build_class_templates", lambda *a, **kw: built.append(a[0])
        )
        mug0 = tmp_path / "mug-0.json"
        shutil.copy(ws["labeled"], mug0)
        out = tmp_path / "out"
        fields = {"out": out, "labeled": ws["labeled"], "mug0": mug0}
        err = run_error(capsys, [arg.format(**fields) for arg in argv])
        assert err["code"] == "spec"
        assert f"'{repeated}'" in err["message"]
        assert built == []
        assert not out.exists()

    def test_grasp_target_flag_is_gone(self, ws, tmp_path):
        with pytest.raises(SystemExit):
            main(["db", "build", "--out", str(tmp_path / "x"), "--labeled",
                  f"mug={ws['labeled']}", "--grasp-target", "5"])
        assert "grasp_target" not in inspect.signature(build_template).parameters
        assert not (tmp_path / "x").exists()

    def test_unwritable_out_is_an_io_error(self, ws, capsys, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        built = []

        def build_template(cloud, object_class, **kwargs):
            built.append(object_class)
            return SimpleNamespace(id=kwargs["template_id"])

        monkeypatch.setattr("tog.cli.build_template", build_template)
        err = run_error(
            capsys,
            ["db", "build", "--out", str(blocker / "db"), "--labeled",
             f"mug={ws['labeled']}"],
        )
        assert err["code"] == "io"
        assert str(blocker / "db") in err["message"]
        assert built == []

    def test_inspect_missing_db(self, capsys, tmp_path):
        err = run_error(capsys, ["db", "inspect", "--db", str(tmp_path / "void")])
        assert err["code"] == "schema"

    def test_inspect_corrupt_db(self, ws, capsys, tmp_path):
        db = tmp_path / "db"
        shutil.copytree(ws["db"], db)
        (db / "db.json").write_bytes(b"\xff\xfe")
        err = run_error(capsys, ["db", "inspect", "--db", str(db)])
        assert err["code"] == "schema"
        index = {"schema_version": 1, "templates": [{"id": "mug-0"}]}
        (db / "db.json").write_text(json.dumps(index))
        err = run_error(capsys, ["db", "inspect", "--db", str(db)])
        assert err["code"] == "schema"
        shutil.copy(Path(ws["db"]) / "db.json", db / "db.json")
        (db / "mug-0.template.json").unlink()
        err = run_error(capsys, ["db", "inspect", "--db", str(db)])
        assert err["code"] == "parse"


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
        assert err["stage"] == "resolve"

    @pytest.mark.parametrize(
        "failure, code",
        [
            (urllib.error.URLError(ConnectionRefusedError(111, "refused")), "chat-service"),
            (urllib.error.HTTPError("http://chat.test", 500, "Error", {}, None), "chat-service"),
            (TimeoutError("timed out"), "chat-service"),
            (b"<html></html>", "schema"),
            (b'{"choices": [{}]}', "schema"),
        ],
        ids=["url-error", "http-error", "timeout", "not-json", "bad-shape"],
    )
    def test_resolve_chat_failure_is_a_json_error(self, capsys, monkeypatch, failure, code):
        monkeypatch.delenv("TOG_CHAT_FIXTURES", raising=False)
        monkeypatch.setenv("TOG_CHAT_ENDPOINT", "http://chat.test/v1")

        def urlopen(request, timeout=None):
            if isinstance(failure, BaseException):
                raise failure
            return io.BytesIO(failure)

        monkeypatch.setattr("urllib.request.urlopen", urlopen)
        err = run_error(capsys, ["ontology", "resolve", "--text", POUR])
        assert err["code"] == code
        assert err["stage"] == "resolve.chat"

    def test_resolve_runs_without_requests_installed(self, ws):
        # the CLI needs no third-party HTTP library: block `requests` and run it
        script = (
            "import sys; sys.modules['requests'] = None; "
            "from tog.cli import main; "
            f"sys.exit(main(['ontology', 'resolve', '--fixtures', {ws['chat']!r}, "
            f"'--text', {POUR!r}]))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["part_path"] == "handle"

    def test_optimize_scripted(self, ws, capsys, tmp_path):
        client = FixtureChatClient(ws["chat"])
        seed = "Name the part to grasp."
        answer = "The handle, always."
        client.record(seed, answer)
        client.record("Name the part to grasp. Be terse.", "Handle.")
        improver = improver_prompt(seed, answer, "Too chatty; demand a terse answer.")
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

    def test_optimize_without_acceptance_still_writes_the_transcript(self, capsys, tmp_path):
        chat = tmp_path / "chat"
        client = FixtureChatClient(chat)
        prompts = ["Name the part.", "Name the part precisely.", "Name the exact part."]
        for round_no, (prompt, revised) in enumerate(zip(prompts, prompts[1:]), 1):
            client.record(prompt, f"Answer {round_no}.")
            client.record(
                improver_prompt(prompt, f"Answer {round_no}.", "too vague"),
                f"Revised Prompt:\n{revised}",
            )
        transcript = tmp_path / "transcript.json"
        err = run_error(
            capsys,
            ["ontology", "optimize", "--fixtures", str(chat), "--prompt", prompts[0],
             "--feedback", "too vague", "--feedback", "too vague", "--max-rounds", "2",
             "--transcript-out", str(transcript)],
        )
        assert err["code"] == "optimization-incomplete"
        written = json.loads(transcript.read_text())
        assert written["schema_version"] == 1
        assert [(r["round"], r["prompt"], r["feedback"]) for r in written["rounds"]] == [
            (1, prompts[0], "too vague"),
            (2, prompts[1], "too vague"),
        ]

    def test_optimize_needs_prompt(self, ws, capsys):
        err = run_error(capsys, ["ontology", "optimize", "--fixtures", ws["chat"]])
        assert err["code"] == "spec"

    @pytest.mark.parametrize("rounds", ["0", "-3"])
    def test_optimize_max_rounds_below_one_is_a_spec_error(
        self, ws, capsys, monkeypatch, rounds
    ):
        monkeypatch.setattr(
            "tog.cli.optimize_prompt", lambda *a, **kw: pytest.fail("chat was called")
        )
        err = run_error(
            capsys,
            ["ontology", "optimize", "--fixtures", ws["chat"], "--prompt", "Name it.",
             "--feedback", "accept", "--max-rounds", rounds],
        )
        assert err["code"] == "spec"
        assert err["message"] == f"max_rounds must be at least 1, got {rounds}"

    def test_optimize_missing_prompt_file_is_an_io_error(self, ws, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        err = run_error(
            capsys,
            ["ontology", "optimize", "--fixtures", ws["chat"], "--prompt-file",
             str(missing)],
        )
        assert err["code"] == "io"
        assert str(missing) in err["message"]


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

    def test_non_finite_scene_is_parse_error(self, ws, capsys, tmp_path):
        scene = tmp_path / "scene.ply"
        scene.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 nan 0\n"
        )
        err = run_error(
            capsys,
            ["recognize", "--db", ws["db"], "--scene", str(scene), "--part", "handle"],
        )
        assert err["code"] == "parse"
        assert "finite" in err["message"]

    @pytest.mark.parametrize("command", ["recognize", "register"])
    def test_two_point_scene_fails_at_recognize(self, ws, capsys, tmp_path, command):
        scene = tmp_path / "two.json"
        scene.write_text(json.dumps({"points": [[0, 0, 0], [0.01, 0, 0]]}))
        err = run_error(
            capsys,
            [command, "--db", ws["db"], "--scene", str(scene), "--part", "handle"],
        )
        assert err["stage"] == "recognize"
        assert err["message"].startswith("[recognize] ")

    @pytest.mark.parametrize("command", ["recognize", "register"])
    def test_unreadable_scene_fails_at_setup(self, ws, capsys, tmp_path, command):
        scene = tmp_path / "scene.ply"
        scene.write_text("not a ply file\n")
        err = run_error(
            capsys,
            [command, "--db", ws["db"], "--scene", str(scene), "--part", "handle"],
        )
        assert (err["code"], err["stage"]) == ("parse", "setup")

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


@pytest.fixture(scope="module")
def one_mug(ws, tmp_path_factory):
    """A one-template mug database, the recorded pour fixture and a scene path."""
    root = tmp_path_factory.mktemp("one-mug")
    db = root / "db"
    with redirect_stdout(io.StringIO()):
        assert main(["db", "build", "--out", str(db), "--synthetic", "mug=1"]) == 0
    return {"db": str(db), "chat": ws["chat"], "scene": root / "scene.ply"}


class TestFailureContract:
    """A well-formed plan request ends in a plan or in a coded, staged error."""

    @staticmethod
    def plan(one_mug, points):
        """Run `tog plan` on `points` as ASCII PLY; None for a plan, else its JSON error."""
        header = ["ply", "format ascii 1.0", f"element vertex {len(points)}"]
        header += [f"property float {axis}" for axis in "xyz"] + ["end_header"]
        rows = [" ".join(f"{v:.17g}" for v in p) for p in points]
        one_mug["scene"].write_text("\n".join(header + rows) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(
                ["plan", "--db", one_mug["db"], "--fixtures", one_mug["chat"],
                 "--instruction", POUR, "--scene", str(one_mug["scene"]), "--no-timings"]
            )
        if code == 0:
            assert json.loads(out.getvalue())["grasps"]
            return None
        assert code == 2, err.getvalue()
        error = json.loads(err.getvalue())["error"]
        assert error["code"] and error["stage"], error
        assert error["code"] != "spec", error  # the request itself is well formed
        return error

    @given(
        n=st.integers(3, 200),
        repeat=st.integers(1, 3),
        rank=st.integers(0, 3),
        offset=st.sampled_from([0.0, 100.0, 1e4]),
        scale=st.sampled_from([1e-9, 1e-3, 1.0, 10.0, 1e200]),
        nan_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_plan_exits_with_a_plan_or_a_staged_error(
        self, one_mug, n, repeat, rank, offset, scale, nan_row, seed
    ):
        rng = np.random.default_rng(seed)
        axes = np.linalg.qr(rng.normal(size=(3, 3)))[0][:rank]  # rank 0: one point
        points = np.tile(rng.normal(size=(n, rank)) @ axes * scale + offset, (repeat, 1))
        if nan_row:
            points = np.insert(points, rng.integers(len(points) + 1), np.nan, axis=0)
        error = self.plan(one_mug, points)
        if nan_row:
            assert error and (error["code"], error["stage"]) == ("parse", "setup"), error

    def test_scaled_mug_view_is_a_degenerate_cluster(self, one_mug):
        # the mug-handle-partial view of seed 1, scene 0: scaled by 1e160,
        # recognition's sums would overflow, and eigvalsh did not converge
        mug = Condition(name="mug", object_class="mug", part_path="handle", n_points=1500)
        view = make_scene(mug, default_rng(SeedSequence((1, 0, 0))))
        error = self.plan(one_mug, view.points * 1e160)
        assert (error["code"], error["stage"]) == ("degenerate-cluster", "recognize"), error


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

    def test_part_without_grasps_still_exports(self, ws, capsys, tmp_path):
        # build_template stores no grasps for a part wider than the gripper
        db = {
            tid: replace(t, grasps={**t.grasps, "handle": ()})
            for tid, t in load_db(ws["db"]).items()
        }
        save_db(db, tmp_path / "db")
        pipeline = ["--db", str(tmp_path / "db"), "--fixtures", ws["chat"],
                    "--instruction", POUR, "--scene", ws["scene"]]
        payload = run_json(capsys, ["export", *pipeline, "--out", str(tmp_path / "snaps")])
        assert [p.split("/")[-1] for p in payload["written"]] == [
            "scene.ply", "cluster.ply", "overlay.ply",
        ]
        assert payload["grasp_count"] == 0
        err = run_error(capsys, ["plan", *pipeline])
        assert (err["code"], err["stage"]) == ("no-grasp", "plan")


class TestCallersAgree:
    def test_register_and_plan_skip_the_same_templates(self, capsys, tmp_path):
        # bottle-0 fits every point of this full bottle (perfbench's seed-1
        # bottle-body scene 0), so neither command tries the other two
        db = str(tmp_path / "db")
        run_json(capsys, ["db", "build", "--out", db, "--synthetic", "bottle=3"])
        condition = Condition(
            name="bottle-body", object_class="bottle", part_path="body",
            n_points=2000, partial=False,
        )
        scene = tmp_path / "bottle.json"
        save_json(make_scene(condition, default_rng(SeedSequence((1, 2, 0)))), scene)
        chat = tmp_path / "chat"
        FixtureChatClient(chat).record(
            render_prompt(default_graph(), Instruction(GRASP_BODY), False),
            canned("Body of the Bottle"),
        )
        common = ["--db", db, "--scene", str(scene)]
        registered = run_json(capsys, ["register", *common, "--part", "body"])
        planned = run_json(
            capsys,
            ["plan", *common, "--fixtures", str(chat), "--instruction", GRASP_BODY,
             "--no-timings"],
        )
        assert registered["registrations_skipped"] == ["bottle-1", "bottle-2"]
        assert planned["registrations_skipped"] == ["bottle-1", "bottle-2"]
        assert list(registered["registrations"]) == ["bottle-0"]
        assert registered["registrations"] == planned["registrations"]
        assert registered["registrations"]["bottle-0"]["fitness"] == 1.0
        assert registered["winning_template"] == planned["winning_template"] == "bottle-0"

    def test_register_and_recognize_match_plan_and_export(self, ws, capsys, tmp_path):
        seed = ["--rng-seed", "2"]
        scene = ["--db", ws["db"], "--scene", ws["scene"]]
        pipeline = [*scene, *seed, "--fixtures", ws["chat"], "--instruction", POUR]
        registered = run_json(
            capsys, ["register", *scene, *seed, "--part", "handle", "--class", "mug"]
        )
        planned = run_json(capsys, ["plan", *pipeline, "--no-timings"])
        assert registered["registrations"] == planned["registrations"]
        assert registered["registrations_skipped"] == planned["registrations_skipped"]

        cluster_path = tmp_path / "cluster.ply"
        recognized = run_json(
            capsys,
            ["recognize", *scene, "--part", "handle", "--class", "mug",
             "--save-cluster", str(cluster_path)],
        )
        # the winner and scores in plan's report are recognize's, field for field
        recognition = dict(planned["recognition"])
        assert len(recognized["members"]) == recognition.pop("cluster_points")
        assert {key: recognized[key] for key in recognition} == recognition
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

    def test_unknown_template_id_recorded_on_the_trial(self, ws, capsys, tmp_path):
        conditions = [
            {"name": "ghost", "object_class": "mug", "part_path": "handle",
             "template_ids": ["mug-0", "mug-9"]}
        ]
        cond_path = tmp_path / "conditions.json"
        cond_path.write_text(json.dumps(conditions))
        payload = run_json(
            capsys,
            ["bench", "run", "--db", ws["db"], "--conditions", str(cond_path),
             "--trials", "1"],
        )
        (trial,) = payload["trials"]
        assert trial["error"] == "spec: [recognize] template ids ['mug-9'] are not in the bank"

    def test_negative_master_seed(self, ws, capsys):
        err = run_error(
            capsys,
            ["bench", "run", "--db", ws["db"], "--master-seed", "-1", "--trials", "1"],
        )
        assert err["code"] == "spec"
        assert "master_seed must be at least 0" in err["message"]

    @pytest.mark.parametrize(
        "row",
        [
            {"name": "x"},
            {"name": "x", "object_class": "mug", "part_path": "handle", "n_points": "x"},
            {"name": "x", "object_class": "mug", "part_path": "handle", "template_ids": 5},
            {"name": "x", "object_class": "mug", "part_path": "handle",
             "dims_fraction": 1.5},
            {"name": "x", "object_class": "mug", "part_path": "handle", "scale": 1e999},
        ],
        ids=["missing-fields", "n_points-string", "template_ids-number",
             "dims_fraction-out-of-range", "scale-1e999"],
    )
    def test_bad_conditions_file(self, ws, capsys, tmp_path, row):
        cond_path = tmp_path / "conditions.json"
        cond_path.write_text(json.dumps({"conditions": [row]}))
        err = run_error(
            capsys,
            ["bench", "run", "--db", ws["db"], "--conditions", str(cond_path)],
        )
        assert err["code"] == "spec"

    @pytest.mark.parametrize(
        "fields",
        [
            '"noise_sigma": 1e999',
            '"scale": 1e999',
            '"noise_sigma": 1e308',
            '"partial": true, "scale": 1e200',
            '"partial": true, "scale": 1e308',
            '"partial": false, "scale": 1e200',
            '"partial": false, "scale": 1e308',
            '"partial": false, "noise_sigma": 1e300',
        ],
    )
    def test_extreme_condition_ends_in_a_coded_error(self, ws, capsys, tmp_path, fields):
        # JSON reads 1e999 as inf; the rest overflow in the jitter, the
        # hidden point removal or recognition's sums
        cond_path = tmp_path / "conditions.json"
        cond_path.write_text(
            '[{"name": "x", "object_class": "mug", "part_path": "handle", '
            f'"n_points": 200, {fields}}}]'
        )
        argv = ["bench", "run", "--db", ws["db"], "--conditions", str(cond_path), "--trials", "1"]
        code = main(argv)
        captured = capsys.readouterr()
        if code == 2:
            assert json.loads(captured.err)["error"]["code"] == "spec"
            return
        assert code == 0, captured.err
        (trial,) = json.loads(captured.out)["trials"]
        assert re.fullmatch(r"[a-z-]+: \[[a-z]+\] .+", trial["error"]), trial["error"]

    def test_repeated_condition_name_is_a_spec_error(self, ws, capsys, tmp_path):
        row = {"name": "same", "object_class": "mug", "part_path": "handle",
               "n_points": 700}
        cond_path = tmp_path / "conditions.json"
        cond_path.write_text(json.dumps([row, {**row, "part_path": "body.outside"}]))
        err = run_error(
            capsys,
            ["bench", "run", "--db", ws["db"], "--conditions", str(cond_path),
             "--trials", "1", "--out", str(tmp_path / "report.json")],
        )
        assert err["code"] == "spec"
        assert "'same'" in err["message"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("source", ["synthetic", "db"])
    def test_conditions_file_checked_before_templates(
        self, ws, capsys, tmp_path, monkeypatch, source
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("templates were loaded or built")

        monkeypatch.setattr("tog.cli.build_class_templates", refuse)
        monkeypatch.setattr("tog.cli.load_db", refuse)
        cond_path = tmp_path / "conditions.json"
        cond_path.write_text(json.dumps({"conditions": [{"name": "x"}]}))
        templates = ["--synthetic", "mug=2"] if source == "synthetic" else ["--db", ws["db"]]
        err = run_error(
            capsys,
            ["bench", "run", *templates, "--conditions", str(cond_path), "--trials", "1",
             "--out", str(tmp_path / "report.json")],
        )
        assert err["code"] == "spec"
        assert not (tmp_path / "report.json").exists()


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

    @pytest.mark.parametrize(
        "gripper", [{"max_opening": True}, {"jaw_depth": float("inf")}], ids=["true", "infinity"]
    )
    @pytest.mark.parametrize("command", ["db-build", "plan"])
    def test_gripper_must_be_finite_numbers(self, ws, capsys, tmp_path, gripper, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gripper": gripper}))  # inf is written as Infinity
        out = tmp_path / "db"
        argv = {
            "db-build": ["db", "build", "--out", str(out), "--synthetic", "slab=1"],
            "plan": ["plan", "--db", ws["db"], "--fixtures", ws["chat"],
                     "--instruction", POUR, "--scene", ws["scene"]],
        }[command]
        err = run_error(capsys, [*argv, "--config", str(config)])
        assert err["code"] == "spec" and next(iter(gripper)) in err["message"]
        assert not out.exists()  # refused before any work

    def test_bad_config_file(self, ws, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        err = run_error(capsys, ["db", "inspect", "--config", str(config)])
        assert err["code"] == "spec"


NOT_UTF8 = b"\xff\xfe{}"
TOO_DEEP = b"[" * 100_000
# (argv with "{file}" the bad input, its contents, the expected error code)
INPUT_FILES = {
    "config-not-utf8": (["db", "inspect", "--config", "{file}"], NOT_UTF8, "spec"),
    "config-too-deep": (["db", "inspect", "--config", "{file}"], TOO_DEEP, "spec"),
    "conditions-not-utf8": (
        ["bench", "run", "--db", "{db}", "--conditions", "{file}"], NOT_UTF8, "spec"
    ),
    "conditions-too-deep": (
        ["bench", "run", "--db", "{db}", "--conditions", "{file}"], TOO_DEEP, "spec"
    ),
    "ontology-too-deep": (
        ["ontology", "resolve", "--fixtures", "{chat}", "--text", POUR,
         "--ontology", "{file}"],
        TOO_DEEP,
        "schema",
    ),
    "prompt-file-not-utf8": (
        ["ontology", "optimize", "--fixtures", "{chat}", "--prompt-file", "{file}"],
        NOT_UTF8,
        "io",
    ),
    "chat-fixture-not-utf8": (
        ["ontology", "resolve", "--fixtures", "{file}", "--text", POUR],
        NOT_UTF8,
        "schema",
    ),
}


class TestInputFiles:
    @pytest.mark.parametrize("case", sorted(INPUT_FILES))
    def test_unreadable_input_is_a_json_error(self, ws, capsys, tmp_path, case):
        argv, contents, code = INPUT_FILES[case]
        if case == "chat-fixture-not-utf8":
            bad = tmp_path / "chat"
            shutil.copytree(ws["chat"], bad)
            for fixture in bad.iterdir():
                fixture.write_bytes(contents)
        else:
            bad = tmp_path / "input"
            bad.write_bytes(contents)
        fields = {"db": ws["db"], "chat": ws["chat"], "file": str(bad)}
        assert main([arg.format(**fields) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        error = json.loads(captured.err)["error"]
        assert error["code"] == code
        assert str(bad) in error["message"]


# Each settings-reading subcommand, with "{out}" the file or directory it
# would write. Every one validates its settings before doing any work.
SUBCOMMANDS = {
    "db build": ["db", "build", "--out", "{out}", "--synthetic", "mug=1"],
    "db inspect": ["db", "inspect", "--db", "{db}"],
    "ontology resolve": ["ontology", "resolve", "--fixtures", "{chat}", "--text", POUR],
    "ontology optimize": ["ontology", "optimize", "--fixtures", "{chat}", "--prompt",
                          "Name the part.", "--feedback", "accept",
                          "--transcript-out", "{out}"],
    "recognize": ["recognize", "--db", "{db}", "--scene", "{scene}", "--part",
                  "handle", "--save-cluster", "{out}"],
    "register": ["register", "--db", "{db}", "--scene", "{scene}", "--part", "handle"],
    "plan": ["plan", "--db", "{db}", "--fixtures", "{chat}", "--instruction", POUR,
             "--scene", "{scene}", "--export-dir", "{out}"],
    "export": ["export", "--db", "{db}", "--fixtures", "{chat}", "--instruction", POUR,
               "--scene", "{scene}", "--out", "{out}"],
    "bench run": ["bench", "run", "--synthetic", "mug=1", "--trials", "1",
                  "--out", "{out}"],
}
TEMPLATE_MAKERS = ("db build", "bench run")
CHAT = ["--fixtures", "--endpoint", "--api-key", "--model"]
PIPELINE = ["--db", "--ontology", "--rng-seed", "--template-cap", *CHAT]
# The settings flags each subcommand takes besides --config: those it reads
TAKES = {
    "db build": ["--ontology", "--rng-seed", "--leaf"],
    "db inspect": ["--db"],
    "ontology resolve": ["--ontology", *CHAT],
    "ontology optimize": CHAT,
    "recognize": ["--db", "--template-cap"],
    "register": ["--db", "--template-cap", "--rng-seed"],
    "plan": PIPELINE,
    "export": PIPELINE,
    "bench run": ["--db", "--ontology", "--rng-seed", "--leaf"],
}
# (config key, flag, value); a flag of None means the config file only
BAD_SETTINGS = [
    ("template_cap", "--template-cap", -1),
    ("template_cap", "--template-cap", 0),
    ("template_cap", None, "abc"),
    ("rng_seed", "--rng-seed", -1),
    ("rng_seed", None, "abc"),
]
BAD_LEAVES = [
    ("leaf", "--leaf", -0.005),
    ("leaf", "--leaf", 0),
    ("leaf", None, "abc"),
]


def subcommand_argv(ws, name, out):
    fields = {"db": ws["db"], "scene": ws["scene"], "chat": ws["chat"], "out": str(out)}
    return [arg.format(**fields) for arg in SUBCOMMANDS[name]]


def _bad_cases():
    for name in SUBCOMMANDS:
        rows = BAD_SETTINGS + (BAD_LEAVES if name in TEMPLATE_MAKERS else [])
        for key, flag, value in rows:
            for source in ("flag", "config") if flag in TAKES[name] else ("config",):
                yield pytest.param(name, key, flag, value, source,
                                   id=f"{name}-{key}={value}-{source}")


class TestSettingsValidation:
    @pytest.mark.parametrize("name,key,flag,value,source", list(_bad_cases()))
    def test_bad_setting_is_a_spec_error_before_any_work(
        self, ws, capsys, tmp_path, monkeypatch, name, key, flag, value, source
    ):
        monkeypatch.delenv("TOG_DB", raising=False)
        out = tmp_path / "out"
        argv = subcommand_argv(ws, name, out)
        if source == "flag":
            argv += [flag, str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: value}))
            argv += ["--config", str(config)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert "Traceback" not in captured.err
        error = json.loads(captured.err)["error"]
        assert error["code"] == "spec"
        assert key in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "name", [n for n in SUBCOMMANDS if n not in TEMPLATE_MAKERS]
    )
    def test_leaf_only_where_templates_are_built(self, ws, capsys, tmp_path, name):
        argv = subcommand_argv(ws, name, tmp_path / "out")
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--leaf", "0.005"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --leaf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,flag",
        [(name, flag) for name in SUBCOMMANDS for flag in PIPELINE
         if flag not in TAKES[name]],
    )
    def test_flags_a_subcommand_does_not_read_are_unrecognized(
        self, ws, capsys, tmp_path, name, flag
    ):
        argv = subcommand_argv(ws, name, tmp_path / "out")
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, "1"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--rng-seed", "--ontology"])
    def test_bench_synthetic_settings_with_a_database_are_spec_errors(
        self, ws, capsys, tmp_path, flag
    ):
        err = run_error(
            capsys,
            ["bench", "run", "--db", ws["db"], flag, "1", "--trials", "1",
             "--out", str(tmp_path / "report.json")],
        )
        assert err["code"] == "spec"
        assert flag in err["message"]
        assert not (tmp_path / "report.json").exists()

    def test_bench_leaf_with_a_database_is_a_spec_error(self, ws, capsys, tmp_path):
        err = run_error(
            capsys,
            ["bench", "run", "--db", ws["db"], "--leaf", "0.005", "--trials", "1",
             "--out", str(tmp_path / "report.json")],
        )
        assert err["code"] == "spec"
        assert "--leaf" in err["message"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["db", "inspect"], "db"),
            (["ontology", "resolve", "--text", POUR], "ontology"),
        ],
    )
    def test_config_path_of_wrong_type_is_a_spec_error(
        self, capsys, tmp_path, monkeypatch, argv, key
    ):
        monkeypatch.delenv("TOG_DB", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: 5}))
        err = run_error(capsys, [*argv, "--config", str(config)])
        assert err["code"] == "spec"
        assert f"{key}_path must be a path" in err["message"]

    @pytest.mark.parametrize("name", ["db build", "ontology resolve", "plan"])
    def test_missing_ontology_file_is_a_schema_error(self, ws, capsys, tmp_path, name):
        argv = subcommand_argv(ws, name, tmp_path / "out")
        err = run_error(capsys, [*argv, "--ontology", str(tmp_path / "none.json")])
        assert err["code"] == "schema"
        assert not (tmp_path / "out").exists()

    def test_config_leaf_builds_templates_at_that_leaf(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"leaf": 0.006}))
        db = tmp_path / "db"
        run_json(capsys, ["db", "build", "--out", str(db), "--synthetic", "mug=1",
                          "--config", str(config)])
        payload = run_json(capsys, ["db", "inspect", "--db", str(db)])
        assert [t["leaf"] for t in payload["templates"]] == [0.006]
